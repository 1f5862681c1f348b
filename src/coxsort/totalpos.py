"""Exact total-positivity arithmetic for the elementary Jacobi matrices.

Everything runs over ``fractions.Fraction`` so the parameter identities
below are checked as equalities of rational matrices, not up to
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
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

__all__ = [
    "RationalMatrix",
    "chevalley",
    "verify_additive_identity",
    "verify_braid_identity",
    "is_totally_nonnegative",
    "seeded_trials",
]


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable square matrix of Fractions with exact @-multiplication."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square")

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(tuple(tuple(Fraction(int(i == j)) for j in range(n))
                         for i in range(n)))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "RationalMatrix":
        return cls(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.rows)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.n != other.n:
            raise ValueError("size mismatch")
        cols = tuple(zip(*other.rows))
        return RationalMatrix(tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
            for row in self.rows))

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.rows[i][j]

    def minor(self, row_idx: tuple[int, ...], col_idx: tuple[int, ...]) -> Fraction:
        sub = [[self.rows[i][j] for j in col_idx] for i in row_idx]
        return _det(sub)

    def __str__(self) -> str:
        return "\n".join("  ".join(str(x) for x in row) for row in self.rows)


def _det(m: list[list[Fraction]]) -> Fraction:
    # fraction-free would be overkill at these sizes; plain expansion by
    # elimination with exact arithmetic
    m = [row[:] for row in m]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            if m[r][c] != 0:
                f = m[r][c] * inv
                for k in range(c, n):
                    m[r][k] -= f * m[c][k]
    return det


def chevalley(n: int, i: int, t) -> RationalMatrix:
    """x_i(t) = identity plus t in entry (i, i+1), 1-based i <= n-1."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"need 1 <= i <= {n - 1}, got {i}")
    t = Fraction(t)
    rows = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    rows[i - 1][i] = t
    return RationalMatrix(tuple(tuple(r) for r in rows))


def verify_additive_identity(n: int, i: int, a, b) -> bool:
    """x_i(a) x_i(b) == x_i(a+b), exactly."""
    a, b = Fraction(a), Fraction(b)
    return chevalley(n, i, a) @ chevalley(n, i, b) == chevalley(n, i, a + b)


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
    t1, t2, t3 = Fraction(t1), Fraction(t2), Fraction(t3)
    p1 = t2 * t3 / (t1 + t3)
    p2 = t1 + t3
    p3 = t1 * t2 / (t1 + t3)
    lhs = chevalley(n, i, t1) @ chevalley(n, j, t2) @ chevalley(n, i, t3)
    rhs = chevalley(n, j, p1) @ chevalley(n, i, p2) @ chevalley(n, j, p3)
    return lhs == rhs


def is_totally_nonnegative(M: RationalMatrix, size_cap: int = 6) -> bool:
    """Every minor of M is >= 0, checked exhaustively (exponentially many
    minors, hence the size cap)."""
    if M.n > size_cap:
        raise ValueError(f"minor sweep capped at n={size_cap}; got n={M.n}")
    idx = range(M.n)
    for k in range(1, M.n + 1):
        for rows in itertools.combinations(idx, k):
            for cols in itertools.combinations(idx, k):
                if M.minor(rows, cols) < 0:
                    return False
    return True


def seeded_trials(seed: int, trials: int = 100) -> Iterator[tuple[str, bool, str]]:
    """Exact trials drawn from ``random.Random(seed)`` in one fixed order:
    ``trials`` additive identities, ``trials`` adjacent exchanges (t3
    redrawn off the pole t1 + t3 = 0), then ``max(1, trials // 2)``
    products of 4x4 generators with nonnegative parameters.  Yields
    ``(statement, holds, failure)``, failure naming the trial."""
    rng = random.Random(seed)

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
        M = RationalMatrix.identity(4)
        for _ in range(rng.randint(1, 8)):
            M = M @ chevalley(4, rng.randint(1, 3), rational(lo=0))
        yield ("nonnegative_products", is_totally_nonnegative(M),
               "nonnegative Chevalley product with a negative minor")


if __name__ == "__main__":
    import doctest

    doctest.testmod()
