"""Finite posets with explicit boolean relation matrices.

Every poset here carries its ground set as an ordered tuple and its
relation as a read-only numpy matrix, so that two posets on the same
ground can be compared, intersected, or united entry by entry.  Element
grounds are always sorted by (length, canonical word), so ``covers()``
comes in that order too.  Construction validates reflexivity,
antisymmetry and transitivity, failing loudly on anything that is not a
partial order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import hecke
from .coxeter import CoxeterSystem, Element, word_str

__all__ = [
    "Poset",
    "RelationUnion",
    "bruhat_interval",
    "weak_interval",
    "sorting_order",
    "relation_intersection",
    "relation_union",
]


def _bool_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Composition of bool relations; computed in bool, it cannot wrap the
    way a count of witnesses in a narrow integer type does."""
    return a.astype(bool, copy=False) @ b.astype(bool, copy=False)


def _covers(leq: np.ndarray) -> np.ndarray:
    """Cover matrix of an order relation: [i, j] is set iff i < j with
    nothing strictly between; an empty column is a minimal element, an
    empty row a maximal one."""
    strict = leq & ~np.eye(len(leq), dtype=bool)
    return strict & ~_bool_product(strict, strict)


class Poset:
    """An explicit finite poset: ordered ground tuple plus relation matrix."""

    def __init__(self, ground: Sequence, leq, label: str = "poset"):
        ground = tuple(ground)
        if len(set(ground)) != len(ground):
            raise ValueError(f"ground set of {label!r} contains duplicates")
        matrix = np.array(leq, dtype=bool)
        n = len(ground)
        if matrix.shape != (n, n):
            raise ValueError(f"relation matrix of {label!r} must be {n}x{n}")
        if n and not matrix.diagonal().all():
            raise ValueError(f"relation of {label!r} is not reflexive")
        off = ~np.eye(n, dtype=bool)
        if (matrix & matrix.T & off).any():
            raise ValueError(f"relation of {label!r} is not antisymmetric")
        if (_bool_product(matrix, matrix) & ~matrix).any():
            raise ValueError(f"relation of {label!r} is not transitive")
        matrix.setflags(write=False)
        self.ground = ground
        self.leq = matrix
        self.label = label
        self._index = {g: i for i, g in enumerate(ground)}

    def __len__(self) -> int:
        return len(self.ground)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.ground == other.ground and np.array_equal(self.leq, other.leq)

    __hash__ = None  # mutable-by-convention container semantics

    def __repr__(self) -> str:
        return f"Poset({self.label!r}, n={len(self.ground)})"

    def index(self, item) -> int:
        try:
            return self._index[item]
        except KeyError:
            raise ValueError(f"{item!r} is not in the ground set of {self.label!r}") from None

    def leq_items(self, a, b) -> bool:
        return bool(self.leq[self.index(a), self.index(b)])

    def covers(self) -> list[tuple]:
        """Cover pairs (a, b): a < b with nothing strictly between."""
        return [(self.ground[i], self.ground[j])
                for i, j in np.argwhere(_covers(self.leq)).tolist()]

    def restrict(self, items: Iterable, label: str | None = None) -> "Poset":
        """Induced subposet; keeps the parent's ground order."""
        wanted = set()
        for item in items:
            self.index(item)
            wanted.add(item)
        idx = [i for i, g in enumerate(self.ground) if g in wanted]
        sub = self.leq[np.ix_(idx, idx)]
        return Poset(tuple(self.ground[i] for i in idx), sub,
                     label or f"{self.label}|restricted")

    def dual(self, label: str | None = None) -> "Poset":
        return Poset(self.ground, self.leq.T, label or f"{self.label}^op")

    def minimal_elements(self) -> list:
        return [self.ground[i] for i in np.flatnonzero(~_covers(self.leq).any(axis=0))]

    def maximal_elements(self) -> list:
        return [self.ground[i] for i in np.flatnonzero(~_covers(self.leq).any(axis=1))]

    def is_chain(self) -> bool:
        return bool((self.leq | self.leq.T).all())


def bruhat_interval(u: Element, w: Element, label: str | None = None) -> Poset:
    """The Bruhat interval [u, w], read off the down-set rows of the
    elements below ``w``."""
    if not hecke.bruhat_leq(u, w):
        raise ValueError(f"{u} is not below {w} in Bruhat order")
    elements = w.system.elements()
    below = np.flatnonzero(hecke.bruhat_row(w))
    rows = np.stack([hecke.bruhat_row(elements[z]) for z in below])
    above_u = rows[:, u.index]
    ground = below[above_u]
    return Poset(tuple(elements[z] for z in ground), rows[above_u][:, ground].T,
                 label or f"bruhat[{u},{w}]")


def _weak_matrix(ground: Sequence[Element]) -> np.ndarray:
    """Right weak order on a lower interval sorted by index: the down-set of
    v is v joined with the down-sets of the vs < v, s a right descent."""
    position = {v.index: i for i, v in enumerate(ground)}
    down = np.eye(len(ground), dtype=bool)
    for i, v in enumerate(ground):
        for vs in v.system._right[v.index]:
            if vs < v.index:
                down[i] |= down[position[vs]]
    return down.T


def weak_interval(w: Element, label: str | None = None) -> Poset:
    """The right weak order interval [e, w]: everything reached from ``w``
    by walking down right descents."""
    right = w.system._right
    seen = {w.index}
    stack = [w.index]
    while stack:
        x = stack.pop()
        for xs in right[x]:
            if xs < x and xs not in seen:
                seen.add(xs)
                stack.append(xs)
    elements = w.system.elements()
    ground = tuple(elements[x] for x in sorted(seen))
    return Poset(ground, _weak_matrix(ground), label or f"weak[e,{w}]")


def _sorting_relation(taken: np.ndarray) -> np.ndarray:
    """The sorting relation on the rows of a :func:`hecke.sorting_positions`
    matrix: u <= v iff no position taken by u is missing from v.  A
    preorder by construction; bool throughout, so exact for any length."""
    return ~_bool_product(taken, ~taken.T)


def sorting_order(system: CoxeterSystem, Q: Iterable[int], label: str | None = None) -> Poset:
    """The sorting order of the reduced word Q on the Bruhat interval
    [e, product(Q)]: u <= v iff the sorting subword positions of u are a
    subset of those of v."""
    Q = system.check_word(Q)
    elements = system.elements()
    w = hecke.demazure(system, Q)
    ground = tuple(elements[x] for x in np.flatnonzero(hecke.bruhat_row(w)))
    return Poset(ground, _sorting_relation(hecke.sorting_positions(system, Q, ground)),
                 label or f"sorting[{word_str(Q)}]")


def _common_ground(posets: Sequence[Poset]) -> tuple:
    if not posets:
        raise ValueError("need at least one poset")
    ground = posets[0].ground
    for p in posets[1:]:
        if p.ground != ground:
            raise ValueError("posets must share an identical ground sequence")
    return ground


def relation_intersection(posets: Sequence[Poset], label: str = "intersection") -> Poset:
    """Entrywise AND of the relations; always a partial order."""
    ground = _common_ground(posets)
    matrix = posets[0].leq.copy()
    for p in posets[1:]:
        matrix &= p.leq
    return Poset(ground, matrix, label)


@dataclass
class RelationUnion:
    """Entrywise OR of order relations, which need not be transitive.

    ``matrix`` is the raw union (no transitive closure is taken);
    ``is_transitive`` records whether it already is one.
    """

    ground: tuple
    matrix: np.ndarray
    is_transitive: bool
    label: str = "union"

    def as_poset(self) -> Poset:
        return Poset(self.ground, self.matrix, self.label)


def relation_union(posets: Sequence[Poset], label: str = "union") -> RelationUnion:
    ground = _common_ground(posets)
    matrix = posets[0].leq.copy()
    for p in posets[1:]:
        matrix |= p.leq
    transitive = not (_bool_product(matrix, matrix) & ~matrix).any()
    matrix.setflags(write=False)
    return RelationUnion(ground, matrix, transitive, label)
