"""Finite posets with explicit boolean relation matrices.

A poset is its ground set, an ordered tuple, and its relation, a
read-only numpy matrix; it carries no name.  Two posets on the same
ground can be compared, intersected, or united entry by entry.  Element
grounds are always sorted by (length, canonical word), so ``covers()``
comes in that order too.  An order is validated once, where it can fail
(a relation given to ``Poset``, a union, the Bruhat block of the [e, w]
that is built, a sorting order's antisymmetry); orders by construction
are not checked, and neither is a block of a validated order on a subset,
which is an order again.  A union is proved transitive once:
``RelationUnion.is_transitive`` is its one relation product, and
``as_poset`` reuses it.  A caller that must say which order failed names
it itself.

Relations compose through one product, :func:`_bool_product`, under the
transitivity check, the cover matrix and the sorting relation.  Past
32**3 cell-witness steps it packs rows and columns 64 to a uint64 word and
ANDs them word by word; below that numpy's bool matmul is faster.  It also
takes a stack of products, packed 8 to a byte past the same threshold.
All paths are bitwise, so no witness count can wrap and no float enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import hecke
from .coxeter import CoxeterSystem, Element

__all__ = [
    "Poset",
    "RelationUnion",
    "bruhat_interval",
    "weak_interval",
    "sorting_order",
    "relation_intersection",
    "relation_union",
]


# Below this many cell-witness steps (m * k * n) numpy's bool matmul is
# faster than packing: the packed path costs about 15 µs before any work.
# The same bound serves a stack (c * m * k * n steps): on the 4,076 stacked
# products of the default, D4 and B4 order passes, timed one shape at a time
# on a 2-vCPU Xeon, matmul wins up to 11,232 steps and packing from 20,580,
# and every bound from 2**10 to 2**16 gives the same total within 1 ms
# (0.19 s, against 4.3 s with matmul for every stack).
_PACKED_MIN_STEPS = 32 ** 3
# Bytes of the packed path's accumulator; a block of rows of the product is
# taken at a time so that it stays this small.  The order pass of ``verify``
# bounds the cells of each chunk of stacked relations by it too.
_BLOCK_BYTES = 16 * 1024


def _packed_rows(x: np.ndarray, words: int) -> np.ndarray:
    """The rows of bool ``x`` packed 64 to a word and zero-padded to
    ``words`` words, word-major: ``[w, i]`` is word w of row i."""
    packed = np.zeros((len(x), words * 8), dtype=np.uint8)
    packed[:, :(x.shape[1] + 7) // 8] = np.packbits(x, axis=1, bitorder="little")
    return np.ascontiguousarray(packed.view(np.uint64).T)


def _bool_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Composition of bool relations: ``[i, j]`` is set iff some t has
    ``a[i, t]`` and ``b[t, j]``.

    Small operands (fewer than ``_PACKED_MIN_STEPS`` steps m * k * n) use
    numpy's bool matmul.  Larger ones pack the rows of ``a`` and the
    columns of ``b`` 64 to a uint64 word; ``[i, j]`` is set iff some word
    of row i AND-ed with the matching word of column j is nonzero, ORed
    into a ``_BLOCK_BYTES`` scratch a block of rows at a time.  Both paths
    are bitwise throughout, so the result is exact: no witness is counted
    in a type that could wrap, and no float is involved.

    A stack (3-D operands, one product per index of the leading axis)
    takes the same rule on its total steps; past it, the rows of ``a`` and
    the columns of ``b`` are packed 8 to a byte, so the accumulator, one
    byte per cell, is as large as the result, which its caller bounds."""
    a = a.astype(bool, copy=False)
    b = b.astype(bool, copy=False)
    if a.ndim == 3:
        (c, m, k), n = a.shape, b.shape[2]
        if c * m * k * n < _PACKED_MIN_STEPS:
            return a @ b
        rows_a = np.packbits(a, axis=2, bitorder="little")[:, :, None]
        cols_b = np.packbits(b, axis=1, bitorder="little").transpose(0, 2, 1)[:, None]
        acc = rows_a[..., 0] & cols_b[..., 0]
        for byte in range(1, rows_a.shape[3]):
            acc |= rows_a[..., byte] & cols_b[..., byte]
        return acc != 0
    (m, k), n = a.shape, b.shape[1]
    if m * k * n < _PACKED_MIN_STEPS:
        return a @ b
    words = -(-k // 64)
    rows_a, cols_b = _packed_rows(a, words), _packed_rows(b.T, words)
    out = np.empty((m, n), dtype=bool)
    block = max(1, _BLOCK_BYTES // (8 * n))
    acc = np.empty((block, n), dtype=np.uint64)
    hit = np.empty_like(acc)
    for start in range(0, m, block):
        stop = min(start + block, m)
        acc_rows, hit_rows = acc[:stop - start], hit[:stop - start]
        np.bitwise_and(rows_a[0, start:stop, None], cols_b[0], out=acc_rows)
        for w in range(1, words):
            np.bitwise_and(rows_a[w, start:stop, None], cols_b[w], out=hit_rows)
            acc_rows |= hit_rows
        np.not_equal(acc_rows, 0, out=out[start:stop])
    return out


def _covers(leq: np.ndarray) -> np.ndarray:
    """Cover matrix of an order relation: [i, j] is set iff i < j with
    nothing strictly between."""
    strict = leq & ~np.eye(len(leq), dtype=bool)
    return strict & ~_bool_product(strict, strict)


def _is_transitive(matrix: np.ndarray) -> bool:
    """Whether the square bool ``matrix`` is transitive: one relation product."""
    return not (_bool_product(matrix, matrix) & ~matrix).any()


def _check_order(matrix: np.ndarray) -> None:
    """Raise ValueError unless the square bool ``matrix`` is reflexive,
    antisymmetric and transitive."""
    _check_reflexive(matrix)
    _check_antisymmetric(matrix)
    if not _is_transitive(matrix):
        raise ValueError("relation is not transitive")


def _check_reflexive(matrix: np.ndarray) -> None:
    if len(matrix) and not matrix.diagonal().all():
        raise ValueError("relation is not reflexive")


def _check_antisymmetric(matrix: np.ndarray) -> None:
    if (matrix & matrix.T & ~np.eye(len(matrix), dtype=bool)).any():
        raise ValueError("relation is not antisymmetric")


class Poset:
    """An explicit finite poset: an ordered ground tuple plus its relation
    matrix, ``leq[i, j]`` set iff ``ground[i] <= ground[j]``; equal grounds
    and relations make equal posets."""

    def __init__(self, ground: Sequence, leq):
        ground, matrix = _relation(ground, leq)
        _check_order(matrix)
        self._init(ground, matrix)

    @classmethod
    def _induced(cls, ground: tuple, matrix: np.ndarray) -> "Poset":
        """The poset on ``matrix``, a partial order by construction (an
        induced block, a weak interval, an intersection) or validated by
        the caller: nothing is checked.  ``matrix`` must be a fresh array
        no one else writes to."""
        poset = cls.__new__(cls)
        poset._init(ground, matrix)
        return poset

    def _init(self, ground: tuple, matrix: np.ndarray) -> None:
        matrix.setflags(write=False)
        self.ground = ground
        self.leq = matrix
        self._cover_pairs: tuple[tuple, ...] | None = None

    def __len__(self) -> int:
        return len(self.ground)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.ground == other.ground and np.array_equal(self.leq, other.leq)

    __hash__ = None  # mutable-by-convention container semantics

    def __repr__(self) -> str:
        return f"Poset(n={len(self.ground)})"

    @cached_property
    def _index(self) -> dict:
        """Ground item to its position, built when first asked for."""
        return {g: i for i, g in enumerate(self.ground)}

    def index(self, item) -> int:
        try:
            return self._index[item]
        except KeyError:
            raise ValueError(f"{item!r} is not in the ground set") from None

    def covers(self) -> list[tuple]:
        """Cover pairs (a, b): a < b with nothing strictly between, as a
        new list on every call; the relation is read-only, so the pairs are
        computed once."""
        if self._cover_pairs is None:
            self._cover_pairs = tuple((self.ground[i], self.ground[j])
                                      for i, j in np.argwhere(_covers(self.leq)).tolist())
        return list(self._cover_pairs)

    def restrict(self, items: Iterable) -> "Poset":
        """Induced subposet; keeps the parent's ground order.  An induced
        subrelation of a partial order is one, so it is not validated again."""
        wanted = set()
        for item in items:
            self.index(item)
            wanted.add(item)
        idx = [i for i, g in enumerate(self.ground) if g in wanted]
        return Poset._induced(tuple(self.ground[i] for i in idx), self.leq[np.ix_(idx, idx)])

    def is_chain(self) -> bool:
        return bool((self.leq | self.leq.T).all())


def _relation(ground: Sequence, leq) -> tuple[tuple, np.ndarray]:
    """``ground`` as a tuple and a fresh bool copy of ``leq``, raising
    ValueError unless the items are distinct and the matrix square on them;
    whether it is an order is the caller's check."""
    ground = tuple(ground)
    if len(set(ground)) != len(ground):
        raise ValueError("ground set contains duplicates")
    matrix = np.array(leq, dtype=bool)
    n = len(ground)
    if matrix.shape != (n, n):
        raise ValueError(f"relation matrix must be {n}x{n}")
    return ground, matrix


def bruhat_interval(u: Element, w: Element) -> Poset:
    """The Bruhat interval [u, w], a sub-block of the relation on [e, w].

    The block is read off the down-set rows of the elements below ``w``
    once, validated as a partial order, and kept in
    ``system._op_cache["bruhat_interval"]`` as ``(w row, below, block)``:
    ``below`` the table rows of [e, w] in order, ``block[i, j]`` set iff
    ``below[j] <= below[i]``.  A block that is not a partial order raises
    ValueError and is not kept.  A call for another w replaces the bucket,
    so it never holds more than one square [e, w] x [e, w] block, no larger
    than the rows a call stacks to build it.  Each [u, w] is the induced
    sub-block on the elements above u, which is a partial order again, so
    it is not validated a second time.
    """
    if not hecke.bruhat_leq(u, w):
        raise ValueError(f"{u} is not below {w} in Bruhat order")
    system = w.system
    elements = system.elements()
    row, below, block = system._op_cache.get("bruhat_interval", (None, None, None))
    if row != w.index:
        below = np.flatnonzero(hecke.bruhat_row(w))
        block = np.stack([hecke.bruhat_row(elements[z]) for z in below])[:, below]
        _check_order(block)
        block.setflags(write=False)
        system._op_cache["bruhat_interval"] = (w.index, below, block)
    above_u = block[:, np.searchsorted(below, u.index)]
    return Poset._induced(tuple(elements[z] for z in below[above_u]),
                          block[above_u][:, above_u].T)


def _weak_matrix(ground: Sequence[Element]) -> np.ndarray:
    """Right weak order on a lower interval sorted by index: the down-set of
    v is v joined with the down-sets of the vs < v, s a right descent."""
    position = {v.index: i for i, v in enumerate(ground)}
    down = np.eye(len(ground), dtype=bool)
    for i, v in enumerate(ground):
        system, x = v.system, v.index
        row = system._right[x]
        for s in system._right_descents(x):
            down[i] |= down[position[row[s - 1]]]
    return down.T


def weak_interval(w: Element) -> Poset:
    """The right weak order interval [e, w]: everything reached from ``w``
    by walking down right descents; an order by construction, not validated."""
    system = w.system
    right = system._right
    seen = {w.index}
    stack = [w.index]
    while stack:
        x = stack.pop()
        for s in system._right_descents(x):
            xs = right[x][s - 1]
            if xs not in seen:
                seen.add(xs)
                stack.append(xs)
    elements = w.system.elements()
    ground = tuple(elements[x] for x in sorted(seen))
    return Poset._induced(ground, _weak_matrix(ground))


def _sorting_relation(taken: np.ndarray) -> np.ndarray:
    """The sorting relation on the rows of a :func:`hecke.sorting_positions`
    matrix, or on each of a stack of them: u <= v iff no position taken by u
    is missing from v.  A preorder by construction; bool throughout, so
    exact for any length."""
    return ~_bool_product(taken, ~np.swapaxes(taken, -1, -2))


def _class_key(system: CoxeterSystem, Q: tuple[int, ...]) -> tuple:
    """The commutation class of the word Q: its projections onto every pair
    {s, t} with m(s, t) != 2, s = t included.  Two words have equal keys
    iff they are related by swaps of adjacent commuting letters (the
    projection lemma for trace monoids; Diekert & Rozenberg, *The Book of
    Traces*, 1995).

    Each projection is ``bytes(Q)`` with the other letters deleted; the
    letters to delete for each pair are read off the matrix once per
    system, kept in ``system._op_cache["class_key"]``.  A letter fits a
    byte: a group of rank r has at least 2**r elements, so the table of a
    reduced word's group has rank below 256."""
    deletes = system._op_cache.get("class_key")
    if deletes is None:
        letters = range(1, system.rank + 1)
        deletes = system._op_cache["class_key"] = [
            bytes(x for x in letters if x != s and x != t)
            for s in letters for t in letters[s - 1:] if system.m(s, t) != 2]
    word = bytes(Q)
    return tuple(word.translate(None, delete) for delete in deletes)


def sorting_order(system: CoxeterSystem, Q: Iterable[int]) -> Poset:
    """The sorting order of the reduced word Q on the Bruhat interval
    [e, product(Q)]: u <= v iff the sorting subword positions of u are a
    subset of those of v.  Inclusion is reflexive and transitive, so only
    antisymmetry is checked; equal position sets raise ValueError.

    It depends only on the commutation class of Q.  Let Q' swap adjacent
    letters s = Q[j] and t = Q[j + 1] with m(s, t) = 2.  Write the target
    x left at position j as x = y * z, y in the Klein four-group <s, t> and
    z minimal in its coset; a letter of {s, t} is a left descent of x iff
    it is a factor of y, and removing s from y leaves t's membership alone.
    So positions j and j + 1 are taken in Q' exactly when j + 1 and j are
    in Q, the remaining target after both is the same, and every sorting
    subword of Q' is that of Q with the two positions swapped; inclusion
    is unchanged.  Words of one class (equal :func:`_class_key`) therefore
    share one Poset, kept in ``system._op_cache["sorting_order"]`` as
    ``(product row, {key: Poset})``; a word with another product replaces
    the bucket, so it never holds more than one element's classes.  A
    relation that raised is not kept.
    """
    Q, w = hecke._require_reduced(system, Q)
    row, classes = system._op_cache.get("sorting_order", (None, {}))
    if row != w.index:
        classes = {}
    key = _class_key(system, Q)
    if key not in classes:
        below = np.flatnonzero(hecke.bruhat_row(w))
        elements = system.elements()
        ground = tuple(elements[x] for x in below)
        matrix = _sorting_relation(hecke._sorting_rows(system, Q, below))
        _check_antisymmetric(matrix)
        classes[key] = Poset._induced(ground, matrix)
        system._op_cache["sorting_order"] = (w.index, classes)
    return classes[key]


def _common_ground(posets: Sequence[Poset]) -> tuple:
    if not posets:
        raise ValueError("need at least one poset")
    ground = posets[0].ground
    for p in posets[1:]:
        if p.ground != ground:
            raise ValueError("posets must share an identical ground sequence")
    return ground


def relation_intersection(posets: Sequence[Poset]) -> Poset:
    """Entrywise AND of the relations; a partial order, not validated again."""
    ground = _common_ground(posets)
    matrix = posets[0].leq.copy()
    for p in posets[1:]:
        matrix &= p.leq
    return Poset._induced(ground, matrix)


@dataclass(frozen=True)
class RelationUnion:
    """Entrywise OR of order relations, which need not be transitive.

    ``matrix`` is the raw union (no transitive closure is taken);
    ``is_transitive``, read off it by one relation product when first
    asked for, says whether it already is one.
    """

    ground: tuple
    matrix: np.ndarray

    @cached_property
    def is_transitive(self) -> bool:
        return _is_transitive(self.matrix)

    def as_poset(self) -> Poset:
        """The union as a poset, raising ValueError as ``Poset(ground,
        matrix)`` does; transitivity is read off ``is_transitive``."""
        ground, matrix = _relation(self.ground, self.matrix)
        _check_reflexive(matrix)
        _check_antisymmetric(matrix)
        if not self.is_transitive:
            raise ValueError("relation is not transitive")
        return Poset._induced(ground, matrix)


def relation_union(posets: Sequence[Poset]) -> RelationUnion:
    ground = _common_ground(posets)
    matrix = posets[0].leq.copy()
    for p in posets[1:]:
        matrix |= p.leq
    matrix.setflags(write=False)
    return RelationUnion(ground, matrix)
