"""Finite Coxeter systems, each computed once into a multiplication table.

A system is presented by its matrix of orders ``m(i, j)``: the generators
are involutions and, for ``i != j``, the product ``s_i s_j`` has order
``m(i, j)``.  The first time a system needs an element it builds its
right multiplication table from the matrix alone, one length at a time.
For ``w`` of length ``L`` and an ascent ``s`` of ``w``:

* ``t != s`` is a right descent of ``ws`` exactly when the ``{s, t}``-part
  of ``w`` is the alternating word of length ``m(s, t) - 1`` ending in
  ``t``; it is found by stripping ``t, s, t, ...`` from ``w`` through rows
  already built.
* Only the pair whose ``s`` is the smallest right descent of ``ws``
  creates its row; any other pair reaches that row through the
  ``{s, t}`` coset of its smallest descent ``t``.

This rests only on the parabolic factorisation ``w = w^J w_J`` and the
word property, with no root-system arithmetic, so ``I2(m)``, ``H3`` and
``H4`` are as exact as the classical series.  Rows are never merged, so
``size_cap`` bounds the row count exactly; a larger (in particular an
infinite) group raises :class:`~coxsort.errors.BudgetExceededError`.

The left table follows from ``t(xs) = (tx)s``, each lexicographically
minimal reduced word from the smallest left descent, and rows are
numbered by (length, word).  An :class:`Element` is a system and a row
index.

Generator indices are 1-based everywhere.

>>> b2 = CoxeterSystem.type_b(2)
>>> b2.element((2, 1, 2, 1))
<1,2,1,2>
>>> b2.longest_element().length
4
>>> CoxeterSystem.type_a(2).element((2, 1, 2))
<1,2,1>

Systems and elements are immutable after construction.  The table is
built at most once per system and never changes, so instances may be
shared between threads or tasks; no result depends on whether it was
built before.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

from .errors import BudgetExceededError

__all__ = ["CoxeterSystem", "Element", "word_str", "parse_word", "DEFAULT_SIZE_CAP"]

DEFAULT_SIZE_CAP = 50_000
Word = tuple[int, ...]


def word_str(word: Sequence[int]) -> str:
    """Render a word as comma-joined indices, or ``"e"`` when empty.

    >>> word_str((1, 2, 1))
    '1,2,1'
    >>> word_str(())
    'e'
    """
    return ",".join(str(s) for s in word) if word else "e"


def parse_word(text: str) -> Word:
    """Parse ``"1,2,1"`` (or ``""``/``"e"`` for the empty word) into a tuple.

    >>> parse_word("1,2,3,1,2,1")
    (1, 2, 3, 1, 2, 1)
    >>> parse_word("e")
    ()
    """
    text = text.strip()
    if text in ("", "e"):
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(
            f"cannot parse word {text!r}: expected comma-separated generator indices"
        ) from exc


def _integer(x, what: str) -> int:
    """``x`` through ``operator.index``, so numpy integers pass; a bool, a
    float or a string raises ValueError naming it instead of being read as
    1, 0 or a truncation."""
    if isinstance(x, bool):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{what} {x!r} is not an integer") from None


def _strip(right: list[list[int]], desc: list[int], x: int, a: int, b: int,
           steps: int) -> tuple[int, int]:
    # Multiply x on the right by a, b, a, ... while the letter is a descent,
    # at most ``steps`` times; returns the element reached and the count.
    k = 0
    while k < steps and desc[x] >> a & 1:
        x = right[x][a]
        a, b = b, a
        k += 1
    return x, k


def _build_table(matrix: tuple[Word, ...], size_cap: int):
    """Right and left multiplication, inverses and lex-minimal words of
    every element, rows numbered by (length, word).  Generator columns
    are 0-based here."""
    rank = len(matrix)
    gens = range(rank)
    right = [[-1] * rank]   # right[x][s]: the row of x*s, -1 until linked
    desc = [0]              # right descents of each row, as a bitmask
    length = [0]
    level = [0]
    while level:
        deferred = []
        first_new = len(right)
        for w in level:
            dw = desc[w]
            for s in gens:
                if dw >> s & 1:
                    continue
                found = 1 << s  # the right descents of ws
                for t in gens:
                    steps = matrix[s][t] - 1
                    if t != s and _strip(right, desc, w, t, s, steps)[1] == steps:
                        found |= 1 << t
                smallest = (found & -found).bit_length() - 1
                if smallest != s:
                    deferred.append((w, s, smallest))
                    continue
                if len(right) >= size_cap:
                    raise BudgetExceededError(
                        f"group enumeration exceeded the size cap of {size_cap}",
                        budget="size_cap", limit=size_cap, spent=len(right) + 1)
                y = len(right)
                row = [-1] * rank
                row[s] = w
                right.append(row)
                right[w][s] = y
                desc.append(found)
                length.append(length[w] + 1)
        for w, s, t in deferred:
            steps = matrix[s][t] - 1
            x = _strip(right, desc, w, t, s, steps)[0]
            # climb the alternating word of length m(s, t) - 1 ending in s
            a, b = (s, t) if steps % 2 else (t, s)
            for _ in range(steps):
                x = right[x][a]
                a, b = b, a
            y = right[x][t]
            right[w][s] = y
            right[y][s] = w
        level = range(first_new, len(right))

    n = len(right)
    left = [right[0]]
    words: list[Word] = [()]
    for y in range(1, n):
        d = (desc[y] & -desc[y]).bit_length() - 1
        left.append([right[z][d] for z in left[right[y][d]]])
        s = next(s for s in gens if length[left[y][s]] < length[y])
        words.append((s + 1,) + words[left[y][s]])

    order = sorted(range(n), key=lambda i: (length[i], words[i]))
    pos = [0] * n
    for new, old in enumerate(order):
        pos[old] = new
    right = [tuple(pos[x] for x in right[old]) for old in order]
    left = [tuple(pos[x] for x in left[old]) for old in order]
    inverse = [0] * n
    for y in range(1, n):
        d = next(s for s in gens if right[y][s] < y)
        inverse[y] = left[inverse[right[y][d]]][d]
    return right, left, inverse, tuple(words[old] for old in order)


class CoxeterSystem:
    """A Coxeter presentation of finite rank, with its group built on demand.

    Construction only validates the matrix; the first call that needs an
    element builds the table level by level (see the module docstring).
    ``size_cap`` bounds its rows exactly: a larger group, in particular an
    infinite one, raises :class:`~coxsort.errors.BudgetExceededError` on
    every call rather than being truncated.

    Two systems compare equal when their matrices agree, regardless of
    caps, and elements of equal systems are interchangeable.
    """

    def __init__(self, matrix: Iterable[Iterable[int]], size_cap: int = DEFAULT_SIZE_CAP):
        rows = tuple(tuple(_integer(x, "Coxeter matrix entry") for x in row) for row in matrix)
        n = len(rows)
        if n == 0:
            raise ValueError("a Coxeter matrix must have rank at least 1")
        for row in rows:
            if len(row) != n:
                raise ValueError("Coxeter matrix must be square")
        for i in range(n):
            if rows[i][i] != 1:
                raise ValueError(f"diagonal entry m({i + 1},{i + 1}) must be 1")
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(
                        f"Coxeter matrix must be symmetric; entries ({i + 1},{j + 1}) differ")
                if rows[i][j] < 2:
                    raise ValueError(
                        f"off-diagonal entry m({i + 1},{j + 1}) must be at least 2")
        self.size_cap = _integer(size_cap, "size_cap")
        if self.size_cap <= 0:
            raise ValueError("size_cap must be positive")
        self.matrix = rows
        self.rank = n
        # _right[x][s - 1] is the row of x*s, _left[x][s - 1] that of s*x
        self._right: list[tuple[int, ...]] | None = None
        self._left: list[tuple[int, ...]] | None = None
        self._inverse: list[int] | None = None
        self._words: tuple[Word, ...] | None = None
        self._all_elements: tuple[Element, ...] | None = None
        # memo buckets of hecke and posets, by name
        self._op_cache: dict[str, object] = {}

    # ------------------------------------------------------------------
    # named presentations

    @classmethod
    def type_a(cls, n: int, **kwargs) -> "CoxeterSystem":
        """The symmetric group on n+1 letters; m(i, i+1) = 3 along a chain."""
        if n < 1:
            raise ValueError("type A needs rank >= 1")
        return cls(_chain_matrix(n, {}), **kwargs)

    @classmethod
    def type_b(cls, n: int, **kwargs) -> "CoxeterSystem":
        """The hyperoctahedral group; a chain with m(n-1, n) = 4."""
        if n < 2:
            raise ValueError("type B needs rank >= 2")
        return cls(_chain_matrix(n, {(n - 1, n): 4}), **kwargs)

    @classmethod
    def type_d(cls, n: int, **kwargs) -> "CoxeterSystem":
        """Index-two subgroup of type B; generators 1 and 2 both braid with 3."""
        if n < 2:
            raise ValueError("type D needs rank >= 2")
        # the chain with 1 moved from 2 to 3
        return cls(_chain_matrix(n, {(1, 2): 2, (1, 3): 3}), **kwargs)

    @classmethod
    def dihedral(cls, m: int, **kwargs) -> "CoxeterSystem":
        """I2(m): two generators whose product has order m."""
        if m < 2:
            raise ValueError("a dihedral system needs m >= 2")
        return cls(((1, m), (m, 1)), **kwargs)

    @classmethod
    def type_h3(cls, **kwargs) -> "CoxeterSystem":
        """The symmetry group of the icosahedron (order 120)."""
        return cls(((1, 5, 2), (5, 1, 3), (2, 3, 1)), **kwargs)

    # ------------------------------------------------------------------

    def m(self, i: int, j: int) -> int:
        return self.matrix[i - 1][j - 1]

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, CoxeterSystem):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"CoxeterSystem(rank={self.rank}, matrix={self.matrix})"

    def check_word(self, word: Iterable[int]) -> Word:
        """Validate letters and return the word as a tuple of ints."""
        return tuple(self._column(s) + 1 for s in word)

    def _column(self, s: int) -> int:
        """The table column of generator ``s``, validated as an integer in 1..rank."""
        s = _integer(s, "letter")
        if not 1 <= s <= self.rank:
            raise ValueError(f"letter {s} outside generator range 1..{self.rank}")
        return s - 1

    # ------------------------------------------------------------------
    # the table

    def _index_of(self, word: Iterable[int]) -> int:
        return self._walk(self.check_word(word))

    def _walk(self, word: Word) -> int:
        """The table row of an already-checked word; builds the table on first use."""
        if self._right is None:
            self._right, self._left, self._inverse, self._words = _build_table(
                self.matrix, self.size_cap)
        right = self._right
        x = 0
        for s in word:
            x = right[x][s - 1]
        return x

    def canonical_word(self, word: Iterable[int]) -> Word:
        """The lexicographically minimal reduced word of the element spelt
        by ``word``."""
        x = self._index_of(word)
        return self._words[x]

    def reduced_words_of(self, word: Iterable[int]) -> frozenset[Word]:
        """All reduced words of the element spelt by ``word``, by a depth
        first search over right descents."""
        top = self._index_of(word)
        right = self._right
        out = []
        stack = [(top, ())]
        while stack:
            x, suffix = stack.pop()
            if not x:
                out.append(suffix)
                continue
            for s, xs in enumerate(right[x], start=1):
                if xs < x:
                    stack.append((xs, (s,) + suffix))
        return frozenset(out)

    # ------------------------------------------------------------------
    # elements

    @property
    def identity(self) -> "Element":
        return self.element(())

    def generator(self, s: int) -> "Element":
        return self.element((s,))

    def element(self, word: Iterable[int]) -> "Element":
        """The group element spelt by ``word`` (any word, reduced or not)."""
        return Element(self, self._index_of(word))

    def elements(self) -> tuple["Element", ...]:
        """Every group element, sorted by (length, canonical word).

        Raises :class:`BudgetExceededError` if the group has more than
        ``size_cap`` elements (in particular for non-finite matrices).
        """
        if self._all_elements is None:
            self._walk(())
            self._all_elements = tuple(Element(self, x) for x in range(len(self._words)))
        return self._all_elements

    def order(self) -> int:
        return len(self.elements())

    def longest_element(self) -> "Element":
        # a finite Coxeter group has exactly one element of maximal length
        return self.elements()[-1]


def _chain_matrix(n: int, overrides: dict[tuple[int, int], int]) -> list[list[int]]:
    """The Coxeter matrix of types A, B and D: the chain 1 - 2 - ... - n
    (m = 3 on each link, 2 off it) with the bonds (i, j), i < j, of
    ``overrides`` set on top; a bond past n is never read."""
    bonds = {(i, i + 1): 3 for i in range(1, n)}
    bonds.update(overrides)
    return [[1 if i == j else bonds.get((min(i, j), max(i, j)), 2)
             for j in range(1, n + 1)] for i in range(1, n + 1)]


class Element:
    """A group element: its system and its row in the system's table.

    Instances are created through :class:`CoxeterSystem` methods; the
    ``word`` attribute is always the lexicographically minimal reduced
    word.  Rows are numbered by ``(length, word)``, the ground ordering
    used by every poset in this package, so elements of one system sort
    by their index.

    >>> a2 = CoxeterSystem.type_a(2)
    >>> w = a2.element((1, 2))
    >>> w.mult_right(1)
    <1,2,1>
    >>> w.inverse()
    <2,1>
    >>> w.is_right_descent(2)
    True
    """

    __slots__ = ("system", "index")

    def __init__(self, system: CoxeterSystem, index: int):
        self.system = system
        self.index = index

    @property
    def word(self) -> Word:
        return self.system._words[self.index]

    @property
    def length(self) -> int:
        return len(self.system._words[self.index])

    @property
    def is_identity(self) -> bool:
        return not self.index

    def mult_right(self, s: int) -> "Element":
        system = self.system
        return Element(system, system._right[self.index][system._column(s)])

    def mult_left(self, s: int) -> "Element":
        system = self.system
        return Element(system, system._left[self.index][system._column(s)])

    def __mul__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        if self.system != other.system:
            raise ValueError("cannot multiply elements of different Coxeter systems")
        right = self.system._right
        x = self.index
        for s in other.word:
            x = right[x][s - 1]
        return Element(self.system, x)

    def inverse(self) -> "Element":
        return Element(self.system, self.system._inverse[self.index])

    def is_right_descent(self, s: int) -> bool:
        """Whether right multiplication by generator ``s`` shortens the element."""
        system = self.system
        return system._right[self.index][system._column(s)] < self.index

    def is_left_descent(self, s: int) -> bool:
        system = self.system
        return system._left[self.index][system._column(s)] < self.index

    def right_descents(self) -> tuple[int, ...]:
        x = self.index
        return tuple(s for s, xs in enumerate(self.system._right[x], start=1) if xs < x)

    def left_descents(self) -> tuple[int, ...]:
        x = self.index
        return tuple(s for s, sx in enumerate(self.system._left[x], start=1) if sx < x)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.index == other.index and (
            self.system is other.system or self.system == other.system)

    def __hash__(self) -> int:
        return self.index

    def __lt__(self, other: "Element") -> bool:
        # ground ordering: by length, then lexicographically by word
        return self.index < other.index

    def __le__(self, other: "Element") -> bool:
        return self.index <= other.index

    def __repr__(self) -> str:
        return f"<{word_str(self.word)}>"

    def __str__(self) -> str:
        return word_str(self.word)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
