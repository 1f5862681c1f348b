"""Exact total-positivity arithmetic for the elementary Jacobi matrices.

A rational matrix is kept as integer numerators over one positive common
denominator.  A product of generators x_{i1}(t1) ... x_{ik}(tk) is one
fold of column operations on a single integer matrix, reduced to lowest
terms once at the end; ``@`` is the general product of two matrices.  A
single minor comes from one fraction-free integer determinant (Bareiss);
the total-nonnegativity sweep reads every minor from one Laplace
expansion, each k-minor a sum of (k-1)-minors already computed.
``Fraction`` appears only where values enter or leave: parameters,
``from_rows``, entries, minors and printing.  Floats are refused, because
they arrive already rounded.  The parameter identities below are
therefore checked as equalities of rational matrices, not up to
floating-point error.

The generators are x_i(t) = I + t E_{i,i+1}.  Two identities drive the
checks:

* x_i(a) x_i(b) = x_i(a + b);
* x_i(t1) x_j(t2) x_i(t3) = x_j(t2 t3 / (t1+t3)) x_i(t1+t3)
  x_j(t1 t2 / (t1+t3)) for |i-j| = 1, valid away from t1 + t3 = 0.

>>> verify_braid_identity(3, 1, Fraction(1), Fraction(2), Fraction(3))
True
>>> M = chevalley(3, 1, Fraction(2)) @ chevalley(3, 2, Fraction(5, 7))
>>> is_totally_nonnegative(M)
True
>>> is_totally_nonnegative(chevalley(3, 1, Fraction(-1)))
False
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .coxeter import _integer

__all__ = [
    "RationalMatrix",
    "chevalley",
    "verify_additive_identity",
    "verify_braid_identity",
    "is_totally_nonnegative",
    "seeded_trials",
]

# is_totally_nonnegative reads all C(2n, n) - 1 minors, exponentially many,
# from one Laplace expansion of k * C(n, k)**2 products at each level k
MINOR_SWEEP_CAP = 6


def _exact(x) -> Fraction:
    """``Fraction(x)`` for an int, a Fraction or a string such as "1/3".
    A float raises TypeError: it was rounded before it got here."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("exact arithmetic takes ints, Fractions or strings, "
                        f"not the float {x!r}")
    return Fraction(x)


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable square rational matrix: integer ``numerators`` over one
    positive ``denominator``, kept in lowest terms so that equal matrices
    have equal fields and equal hashes.  Rational entries enter through
    ``from_rows``; ``[i, j]`` and ``minor`` return Fractions."""

    numerators: tuple[tuple[int, ...], ...]
    denominator: int = 1

    def __post_init__(self):
        n = len(self.numerators)
        if any(len(r) != n for r in self.numerators):
            raise ValueError("matrix must be square")
        if self.denominator <= 0:
            raise ValueError(f"denominator must be positive, got {self.denominator}")
        g = math.gcd(self.denominator, *itertools.chain.from_iterable(self.numerators))
        if g != 1:
            object.__setattr__(self, "numerators", tuple(
                tuple(x // g for x in row) for row in self.numerators))
            object.__setattr__(self, "denominator", self.denominator // g)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "RationalMatrix":
        entries = [[_exact(x) for x in row] for row in rows]
        d = math.lcm(*(x.denominator for row in entries for x in row))
        return cls(tuple(tuple(x.numerator * (d // x.denominator) for x in row)
                         for row in entries), d)

    @property
    def n(self) -> int:
        return len(self.numerators)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("size mismatch")
        cols = tuple(zip(*other.numerators))
        return RationalMatrix(tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
            for row in self.numerators), self.denominator * other.denominator)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        self._check_indices((i,), (j,))
        return Fraction(self.numerators[i][j], self.denominator)

    def minor(self, row_idx: tuple[int, ...], col_idx: tuple[int, ...]) -> Fraction:
        """The minor on rows ``row_idx`` and columns ``col_idx``, each a
        strictly increasing tuple of 0-based indices."""
        if len(row_idx) != len(col_idx):
            raise ValueError("a minor needs as many rows as columns, got "
                             f"{len(row_idx)} and {len(col_idx)}")
        self._check_indices(row_idx, col_idx)
        if any(a >= b for idx in (row_idx, col_idx) for a, b in zip(idx, idx[1:])):
            raise ValueError("minor indices must be strictly increasing, got "
                             f"rows {row_idx} and columns {col_idx}")
        return Fraction(self._integer_minor(row_idx, col_idx),
                        self.denominator ** len(row_idx))

    def _check_indices(self, *index_tuples: tuple[int, ...]) -> None:
        """IndexError for an index outside 0..n-1: a negative one would
        silently count from the end."""
        for idx in index_tuples:
            for x in idx:
                if not 0 <= x < self.n:
                    raise IndexError(f"index {x} outside 0..{self.n - 1}")

    def _integer_minor(self, row_idx: tuple[int, ...], col_idx: tuple[int, ...]) -> int:
        """The minor of the numerator matrix: denominator**k times the k-minor."""
        N = self.numerators
        return _det([[N[i][j] for j in col_idx] for i in row_idx])

    def __str__(self) -> str:
        return "\n".join("  ".join(str(Fraction(x, self.denominator)) for x in row)
                         for row in self.numerators)


def _det(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination.  After step c every entry below and right of the pivot is
    a (c+2)-minor of the input, so each division by the previous pivot is
    exact and the entries stay bounded by Hadamard's bound."""
    m = [list(row) for row in m]
    n = len(m)
    sign, prev = 1, 1
    for c in range(n - 1):
        if m[c][c] == 0:
            piv = next((r for r in range(c + 1, n) if m[r][c] != 0), None)
            if piv is None:
                return 0
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        p, top = m[c][c], m[c]
        for r in range(c + 1, n):
            row, a = m[r], m[r][c]
            for k in range(c + 1, n):
                row[k] = (row[k] * p - a * top[k]) // prev
        prev = p
    return sign * m[-1][-1] if n else 1


def chevalley(n: int, i: int, t) -> RationalMatrix:
    """x_i(t) = identity plus t in entry (i, i+1), 1-based i <= n-1."""
    return _product(n, ((i, t),))


def _product(n: int, factors: Iterable[tuple[int, object]]) -> RationalMatrix:
    """x_{i1}(t1) ... x_{ik}(tk) for ``factors`` ((i1, t1), ..., (ik, tk)),
    the identity when there are none.  The product so far is N / d with N
    an integer matrix; right-multiplying by x_i(p/q) = (qI + p E_{i,i+1}) / q
    scales N by q and adds p times the old column i-1 to column i (0-based),
    so each factor costs O(n**2) integer operations, not a matrix product,
    and the one gcd reduction runs when the ``RationalMatrix`` is built."""
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    d = 1
    for i, t in factors:
        if not 1 <= i <= n - 1:
            raise ValueError(f"need 1 <= i <= {n - 1}, got {i}")
        t = _exact(t)
        p, q = t.numerator, t.denominator
        d *= q
        for r, row in enumerate(rows):
            rows[r] = [x * q for x in row]
            rows[r][i] += p * row[i - 1]
    return RationalMatrix(tuple(map(tuple, rows)), d)


def verify_additive_identity(n: int, i: int, a, b) -> bool:
    """x_i(a) x_i(b) == x_i(a+b), exactly."""
    a, b = _exact(a), _exact(b)
    return _product(n, ((i, a), (i, b))) == chevalley(n, i, a + b)


def verify_braid_identity(n: int, i: int, t1, t2, t3, j: int | None = None) -> bool:
    """x_i(t1) x_j(t2) x_i(t3) == x_j(p1) x_i(p2) x_j(p3) with
    p1 = t2 t3/(t1+t3), p2 = t1+t3, p3 = t1 t2/(t1+t3); j defaults to i+1.

    Raises ZeroDivisionError on the pole t1 + t3 = 0: the exchanged
    parameters genuinely blow up there, so callers must resample.
    """
    if j is None:
        j = i + 1
    if abs(i - j) != 1:
        raise ValueError("the three-term exchange applies to adjacent indices only")
    t1, t2, t3 = _exact(t1), _exact(t2), _exact(t3)
    p1 = t2 * t3 / (t1 + t3)
    p2 = t1 + t3
    p3 = t1 * t2 / (t1 + t3)
    return _product(n, ((i, t1), (j, t2), (i, t3))) == _product(n, ((j, p1), (i, p2), (j, p3)))


def is_totally_nonnegative(M: RationalMatrix) -> bool:
    """Every minor of M is >= 0, checked exhaustively up to n =
    MINOR_SWEEP_CAP, one size k = 1..n at a time; False as soon as a size
    has a negative minor.  A k-minor of M is the integer minor of its
    numerators divided by denominator**k > 0, so the two have the same
    sign."""
    if M.n > MINOR_SWEEP_CAP:
        raise ValueError(f"minor sweep capped at n={MINOR_SWEEP_CAP}; got n={M.n}")
    level = {(0, 0): 1}  # the one 0-minor, of no rows and no columns
    for k in range(1, M.n + 1):
        level = _laplace_level(M.numerators, level, k)
        if min(level.values()) < 0:
            return False
    return True


def _laplace_level(N, lower: dict[tuple[int, int], int], k: int) -> dict[tuple[int, int], int]:
    """Every k-minor of the square integer matrix N, keyed by (row mask,
    column mask), from ``lower``, its (k-1)-minors keyed the same way.
    Each expands along the first row r of its row set R:
    minor(R, C) = sum over the j-th column c of C (from 0) of
    (-1)**j * N[r][c] * minor(R - r, C - c)."""
    n = len(N)
    col_sets = []
    for cols in itertools.combinations(range(n), k):
        mask = sum(1 << c for c in cols)
        col_sets.append((mask, [(c, (-1) ** j, mask ^ 1 << c) for j, c in enumerate(cols)]))
    level = {}
    for rows in itertools.combinations(range(n), k):
        r, rest = rows[0], sum(1 << i for i in rows[1:])
        row, key = N[r], rest | 1 << r
        for mask, terms in col_sets:
            level[key, mask] = sum(sign * row[c] * lower[rest, sub]
                                   for c, sign, sub in terms if row[c])
    return level


def seeded_trials(seed: int, trials: int = 100) -> Iterator[tuple[str, bool, str]]:
    """Exact trials drawn from ``random.Random(seed)`` in one fixed order:
    ``trials`` additive identities, ``trials`` adjacent exchanges (t3
    redrawn off the pole t1 + t3 = 0), then ``max(1, trials // 2)``
    products of 4x4 generators with nonnegative parameters.  Yields
    ``(statement, holds, failure)``, failure naming the trial.  A
    ``trials`` that is negative, a bool or no integer raises ValueError at
    the call, before anything is drawn."""
    if isinstance(trials, bool):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    trials = _integer(trials, "trials")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    return _trials(random.Random(seed), trials)


def _trials(rng: random.Random, trials: int) -> Iterator[tuple[str, bool, str]]:
    def rational(lo: int = -9) -> Fraction:
        return Fraction(rng.randint(lo, 9), rng.randint(1, 9))

    for _ in range(trials):
        n = rng.randint(2, 4)
        i = rng.randint(1, n - 1)
        a, b = rational(), rational()
        yield ("additive", verify_additive_identity(n, i, a, b),
               f"additive identity failed at n={n}, i={i}, a={a}, b={b}")
    for _ in range(trials):
        n = rng.randint(3, 4)
        i = rng.randint(1, n - 2)
        t1, t2, t3 = rational(), rational(), rational()
        while t1 + t3 == 0:
            t3 = rational()
        yield ("exchange", verify_braid_identity(n, i, t1, t2, t3),
               f"exchange identity failed at n={n}, i={i}, t=({t1},{t2},{t3})")
    for _ in range(max(1, trials // 2)):
        factors = [(rng.randint(1, 3), rational(lo=0)) for _ in range(rng.randint(1, 8))]
        yield ("nonnegative_products", is_totally_nonnegative(_product(4, factors)),
               "nonnegative Chevalley product with a negative minor, factors (i, t) = "
               + ", ".join(f"({i}, {t})" for i, t in factors))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
