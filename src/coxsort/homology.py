"""Exact reduced simplicial homology over GF(2) and over the rationals.

Complexes are presented by facets over an ordered vertex tuple, or, for
the order complex of a poset, by the poset itself, whose chains are
walked once each.  Betti numbers are reduced: the chain complex is
augmented, so a point has all zeros and the empty complex
``{frozenset()}`` has a single unit in dimension -1.  Ranks are computed
by exact elimination, never by floating point: bitset rows over GF(2),
fraction-free integer rows for the rationals, which read the GF(2)
profile instead whenever parity forces it (see :func:`reduced_betti`).

The boundary matrices are eliminated from the top dimension down, with
*clearing* (Chen and Kerber, "Persistent homology computation with a
twist", EuroCG 2011): a face that leads a reduced row of the boundary out
of the faces one size up is skipped in the boundary out of its own size.
This is exact.  A reduced row is a sum of boundaries, so it is a cycle
z, and z[s] != 0 at its leading face s; the leading face is the largest
column over GF(2) and the smallest over Q, so every other face of z lies
on one side of s.  Then the boundary of s is a combination of the
boundaries of the other faces of z, and taking the leading faces in turn
from that side inwards puts the boundary of every skipped face in the
span of the rows kept: the rank does not change.  Only rows that would
have reduced to zero are lost, so the rows eliminated out of the k-vertex
faces number f_k - rank(boundary out of the (k+1)-vertex faces).

A cone needs no elimination.  When some vertex lies in every facet (in an
order complex: some element is comparable to every element), the complex
is a cone over that vertex and so contractible, and both profiles are
trivial; this is a proof, and no boundary matrix is built.

There is one face budget, :data:`DEFAULT_FACE_BUDGET`, read at each call.
Every reading of the faces counts them against it first, cone or not,
cached or not, and a complex that raised keeps no faces.  Only
``num_faces(budget)`` takes another bound, kept for the benchmark tracer.

>>> triangle = SimplicialComplex("abc", [{"a", "b"}, {"b", "c"}, {"a", "c"}])
>>> reduced_betti(triangle, 2).numbers
{1: 1}
>>> reduced_betti(triangle, 0).numbers
{1: 1}
>>> point = SimplicialComplex("a", [{"a"}])
>>> reduced_betti(point, 2).numbers
{}
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain
from operator import and_
from typing import Container, Iterable, Sequence

import numpy as np

from .errors import BudgetExceededError
from .posets import Poset

__all__ = [
    "SimplicialComplex",
    "BettiProfile",
    "reduced_betti",
    "order_complex",
    "DEFAULT_FACE_BUDGET",
]

DEFAULT_FACE_BUDGET = 200_000


class SimplicialComplex:
    """Abstract simplicial complex given by facets over ordered vertices.

    The vertex tuple fixes the total order used for boundary signs.
    Facets contained in other facets are dropped.  At minimum the empty
    face is present, so ``facets == {frozenset()}`` encodes the empty
    complex; a complex with no faces at all is not representable.

    Internally a face is an int vertex mask: bit i is ``vertices[i]``, so
    the empty face is 0 and a face with k vertices has k set bits.  The
    facets are kept as masks, and ``facets`` is read off them when first
    asked for; a subclass that derives its facets as masks hands them to
    the same setup, ``_init_facets``.  The faces are enumerated once,
    top-down from the facets, into one numerically sorted list of masks
    per size.  In the boundary of a face f, the face ``f ^ low`` (drop the
    vertex at bit ``low``) carries the sign (-1)^popcount(f & (low - 1)):
    signs alternate in increasing vertex order.
    """

    def __init__(self, vertices: Sequence, facets: Iterable[Iterable]):
        vertices = tuple(vertices)
        if len(set(vertices)) != len(vertices):
            raise ValueError("vertex order contains duplicates")
        index = {v: i for i, v in enumerate(vertices)}
        masks = set()
        for f in facets:
            mask = 0
            for v in f:
                i = index.get(v)
                if i is None:
                    raise ValueError(f"facet vertex {v!r} is not in the vertex order")
                mask |= 1 << i
            masks.add(mask)
        self._init_facets(vertices, masks)

    def _init_facets(self, vertices: tuple, masks: set[int]) -> None:
        """The one facet setup: keep the masks no other mask contains, as
        ``_facet_masks``; ``facets`` is read off them when first asked for."""
        if not masks:
            raise ValueError("a complex needs at least the empty facet frozenset()")
        top = max(m.bit_count() for m in masks)  # only a larger mask can contain m
        self.vertices = vertices
        self._facet_masks = [m for m in masks if m.bit_count() == top
                             or not any(m & g == m != g for g in masks)]
        self._levels: list[list[int]] | None = None

    @cached_property
    def facets(self) -> frozenset[frozenset]:
        return frozenset(map(self._face, self._facet_masks))

    @property
    def dim(self) -> int:
        return max(len(f) for f in self.facets) - 1

    def _is_cone(self) -> bool:
        """Whether some vertex lies in every facet, which makes the complex
        contractible."""
        return bool(reduce(and_, self._facet_masks))

    def _face_levels(self, budget: int | None = None) -> list[list[int]]:
        """``levels[k]``: the faces with k vertices (dimension k - 1) as
        sorted masks, enumerated once and then kept; every call compares
        their number with ``budget``, by default the face budget."""
        budget = DEFAULT_FACE_BUDGET if budget is None else budget
        if self._levels is None:
            self._levels = self._enumerate(budget)
        total = sum(map(len, self._levels))
        if total > budget:
            raise _face_budget_error(budget, total)
        return self._levels

    def _enumerate(self, budget: int) -> list[list[int]]:
        """Level k - 1 is the facets of that size plus every face of level
        k with one vertex dropped; the budget is checked face by face while
        a level is built."""
        by_size: dict[int, set[int]] = {}
        for mask in self._facet_masks:
            by_size.setdefault(mask.bit_count(), set()).add(mask)
        top = max(by_size)
        levels: list[list[int]] = [[]] * (top + 1)
        total = 0
        level = by_size[top]
        for k in range(top, -1, -1):
            total += len(level)
            if total > budget:
                raise _face_budget_error(budget, total)
            levels[k] = sorted(level)
            if k:
                level = by_size.get(k - 1, set())
                add = level.add
                for f in levels[k]:
                    rest = f
                    while rest:
                        low = rest & -rest
                        add(f ^ low)
                        rest ^= low
                    if total + len(level) > budget:
                        raise _face_budget_error(budget, total + len(level))
        return levels

    def _face(self, mask: int) -> frozenset:
        return frozenset(self.vertices[i] for i in range(mask.bit_length()) if mask >> i & 1)

    def faces(self) -> set[frozenset]:
        """All faces, including the empty face, as vertex sets."""
        return {self._face(mask) for level in self._face_levels() for mask in level}

    def num_faces(self, budget: int | None = None) -> int:
        return sum(map(len, self._face_levels(budget)))

    def __repr__(self) -> str:
        return f"SimplicialComplex(vertices={len(self.vertices)}, facets={len(self.facets)})"


def _face_budget_error(budget: int, spent: int) -> BudgetExceededError:
    return BudgetExceededError(f"face enumeration exceeded the budget of {budget} faces",
                               budget="face_budget", limit=budget, spent=spent)


@dataclass(frozen=True)
class BettiProfile:
    """Reduced Betti numbers over one coefficient field.

    ``coefficient_field`` is 2, or 0 for the rationals.
    ``counts`` holds the nonzero entries as (dimension, rank) pairs.
    """

    coefficient_field: int
    counts: tuple[tuple[int, int], ...]

    @property
    def numbers(self) -> dict[int, int]:
        return dict(self.counts)

    def is_trivial(self) -> bool:
        return not self.counts

    def matches_sphere(self, d: int) -> bool:
        """Profile of the d-sphere: a single unit in dimension d.
        d = -1 means the empty complex."""
        return self.counts == ((d, 1),)

    def __str__(self) -> str:
        body = ", ".join(f"b~{d}={b}" for d, b in self.counts) or "all zero"
        name = "Q" if self.coefficient_field == 0 else f"GF({self.coefficient_field})"
        return f"[{name}: {body}]"


def _pivots_gf2(rows: list[int]) -> set[int]:
    """Pivot columns of bitset rows over GF(2), one per unit of rank: a
    row is reduced until its top bit leads no stored row."""
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            pivot = row.bit_length() - 1
            other = basis.get(pivot)
            if other is None:
                basis[pivot] = row
                break
            row ^= other
    return set(basis)


def _pivots_q(rows: list[dict[int, int]]) -> set[int]:
    """Pivot columns of integer rows ``{column: value}`` over the
    rationals, one per unit of rank, by fraction-free elimination on the
    smallest column: a row meeting a pivot with the same leading column
    becomes a*row - b*pivot (a, b the two leading entries), then is
    divided by the gcd of its entries so the integers stay small."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = _normalised({c: v for c, v in row.items() if v})
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = row
                break
            a, b = piv[c], row[c]
            if a != 1:
                row = {col: a * val for col, val in row.items()}
            for col, val in piv.items():
                # an integer -b*val is never 0, so a zero means col was in row
                nv = row.get(col, 0) - b * val
                if nv:
                    row[col] = nv
                else:
                    del row[col]
            row = _normalised(row)
    return set(pivots)


def _normalised(row: dict[int, int]) -> dict[int, int]:
    g = math.gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def _boundary_rows(levels: list[list[int]], k: int, p: int, skip: Container[int]) -> list:
    """Rows of the boundary map from the k-vertex faces, except those at
    the positions ``skip``, to the (k-1)-vertex faces, whose positions in
    ``levels[k - 1]`` are the columns: bitmasks of columns over GF(2)
    (p = 2), ``{column: +-1}`` over Q (p = 0)."""
    column = {mask: i for i, mask in enumerate(levels[k - 1])}
    rows: list = []
    for i, f in enumerate(levels[k]):
        if i in skip:
            continue
        rest = f
        if p == 2:
            row = 0
            while rest:
                low = rest & -rest
                row |= 1 << column[f ^ low]
                rest ^= low
        else:
            row, sign = {}, 1
            while rest:
                low = rest & -rest
                row[column[f ^ low]] = sign
                rest ^= low
                sign = -sign
        rows.append(row)
    return rows


def _betti_counts(levels: list[list[int]], p: int) -> tuple[tuple[int, int], ...]:
    """Nonzero reduced Betti numbers over GF(2), or over Q for p = 0, by
    elimination on every boundary matrix from the top dimension down; the
    pivot columns of one matrix are the faces cleared from the next (see
    the module docstring)."""
    eliminate = _pivots_gf2 if p == 2 else _pivots_q
    # ranks[k]: rank of the boundary out of the k-vertex faces; the
    # augmentation sends every vertex to the empty face
    ranks = [0] * (len(levels) + 1)
    ranks[1] = 1 if len(levels) > 1 else 0
    cleared: set[int] = set()
    for k in range(len(levels) - 1, 1, -1):
        cleared = eliminate(_boundary_rows(levels, k, p, cleared))
        ranks[k] = len(cleared)
    return tuple((k - 1, b) for k, level in enumerate(levels)
                 if (b := len(level) - ranks[k] - ranks[k + 1]))


def _profiles(K: SimplicialComplex) -> tuple[BettiProfile, BettiProfile]:
    """Reduced Betti numbers of ``K`` over GF(2) and over the rationals,
    from one GF(2) pass; see :func:`reduced_betti` for when the rational
    profile is read off it.  A cone, once its faces are counted against the
    face budget, gets the trivial profiles with no pass at all."""
    levels = K._face_levels()
    if K._is_cone():
        return BettiProfile(2, ()), BettiProfile(0, ())
    gf2 = _betti_counts(levels, 2)
    rational = _betti_counts(levels, 0) if len({d % 2 for d, _ in gf2}) > 1 else gf2
    return BettiProfile(2, gf2), BettiProfile(0, rational)


def reduced_betti(K: SimplicialComplex, coefficient_field: int = 2) -> BettiProfile:
    """Reduced Betti numbers of ``K`` over GF(2) or, with
    ``coefficient_field=0``, over the rationals.

    The rationals start from the GF(2) profile.  An integer matrix has
    rank over GF(2) at most its rank over Q, so b~_i(Q) <= b~_i(GF(2))
    for every i, and the reduced Euler characteristic does not depend on
    the field.  If the nonzero GF(2) numbers all sit in degrees of one
    parity, the rational ones of the other parity vanish, and the rest
    share the GF(2) sum while each is bounded by its GF(2) term: the
    profiles are equal (spheres, balls, ``{}``, ``{-1: 1}``).  Only mixed
    parity, as in the projective plane (GF(2) {1: 1, 2: 1}, Q {}), runs
    integer elimination.

    >>> two_points = SimplicialComplex("ab", [{"a"}, {"b"}])
    >>> reduced_betti(two_points).numbers
    {0: 1}
    >>> empty = SimplicialComplex((), [frozenset()])
    >>> reduced_betti(empty).numbers
    {-1: 1}
    """
    if coefficient_field not in (2, 0):
        raise ValueError("coefficient field must be 2 or 0 (the rationals)")
    return _profiles(K)[coefficient_field == 0]


class _OrderComplex(SimplicialComplex):
    """The order complex of the order ``leq`` on ``ground``, a relation
    already known to be a partial order.  A face is a chain, as a vertex
    mask over ``ground``; each chain is made once, by extending a shorter
    one by a strict upper bound of its top element.  The facets, the
    maximal chains, are read off those chains, so every reading of
    ``facets`` counts them against the face budget."""

    def __init__(self, ground: tuple, leq: np.ndarray):
        self.vertices = ground
        self._leq = leq
        self._levels = None

    @property
    def facets(self) -> frozenset[frozenset]:
        """The maximal chains: the chains that are no longer chain with one
        vertex dropped."""
        levels = self._face_levels()
        extended = set()
        for g in chain.from_iterable(levels):
            rest = g
            while rest:
                low = rest & -rest
                extended.add(g ^ low)
                rest ^= low
        return frozenset(self._face(m) for m in chain.from_iterable(levels) if m not in extended)

    def _is_cone(self) -> bool:
        """Whether some element is comparable to every element; it then lies
        in every maximal chain."""
        return bool((self._leq | self._leq.T).all(axis=1).any())

    def _enumerate(self, budget: int) -> list[list[int]]:
        """The chains by size.  The size of each level is counted from the
        one below before the level is built, so no level over the budget is
        ever made."""
        n = len(self.vertices)
        strict = self._leq & ~np.eye(n, dtype=bool)
        # ups[t]: the strict upper bounds of t; the empty chain has the
        # virtual top n, below every element
        rows, cols = np.nonzero(strict)
        cols = cols.tolist()
        ends = np.cumsum(np.bincount(rows, minlength=n)).tolist()
        ups = [cols[start:end] for start, end in zip([0] + ends, ends)] + [list(range(n))]
        # groups[t]: the chains of the last level built whose top is t
        groups: list[list[int]] = [[] for _ in range(n)] + [[0]]
        levels, total = [[0]], 1
        while size := sum(len(g) * len(u) for g, u in zip(groups, ups)):
            total += size
            if total > budget:
                raise _face_budget_error(budget, total)
            longer: list[list[int]] = [[] for _ in range(n + 1)]
            for g, u in zip(groups, ups):
                if g:
                    for j in u:
                        bit = 1 << j
                        longer[j] += [m | bit for m in g]
            groups = longer
            levels.append(sorted(chain.from_iterable(groups)))
        return levels

    def __repr__(self) -> str:
        # the facet count would enumerate every chain
        return f"SimplicialComplex(order complex on {len(self.vertices)} vertices)"


def order_complex(P: Poset) -> SimplicialComplex:
    """The complex of chains of ``P``; facets are the maximal chains.

    Faces are enumerated straight from the order, each chain once, when
    first asked for (:func:`reduced_betti`, ``num_faces``, ``facets``,
    ``dim``, ...), and counted against the face budget, which raises
    :class:`BudgetExceededError` before a level over the budget is built.
    The order complex of the empty poset is the empty complex.
    """
    return _OrderComplex(P.ground, P.leq)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
