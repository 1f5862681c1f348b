"""Exact reduced simplicial homology over GF(2) and over the rationals.

Complexes are presented by facets over an ordered vertex tuple.  Betti
numbers are reduced: the chain complex is augmented, so a point has all
zeros and the empty complex ``{frozenset()}`` has a single unit in
dimension -1.  Ranks are computed by exact elimination, never by
floating point: bitset rows over GF(2), fraction-free integer rows for
the rationals, which read the GF(2) profile instead whenever parity
forces it (see :func:`reduced_betti`).

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

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetExceededError
from .posets import Poset, _covers

__all__ = [
    "SimplicialComplex",
    "BettiProfile",
    "ContractibilityEvidence",
    "reduced_betti",
    "order_complex",
    "contractibility_evidence",
    "DEFAULT_FACE_BUDGET",
]

DEFAULT_FACE_BUDGET = 200_000


class SimplicialComplex:
    """Abstract simplicial complex given by facets over ordered vertices.

    The vertex tuple fixes the total order used for boundary signs.
    Facets contained in other facets are dropped.  At minimum the empty
    face is present, so ``facets == {frozenset()}`` encodes the empty
    complex; a complex with no faces at all is not representable.
    """

    def __init__(self, vertices: Sequence, facets: Iterable[Iterable]):
        vertices = tuple(vertices)
        if len(set(vertices)) != len(vertices):
            raise ValueError("vertex order contains duplicates")
        index = {v: i for i, v in enumerate(vertices)}
        fs = {frozenset(f) for f in facets}
        if not fs:
            raise ValueError("a complex needs at least the empty facet frozenset()")
        for f in fs:
            for v in f:
                if v not in index:
                    raise ValueError(f"facet vertex {v!r} is not in the vertex order")
        self.vertices = vertices
        top = max(len(f) for f in fs)  # only a strictly larger facet can contain f
        self.facets = frozenset(f for f in fs if len(f) == top or not any(f < g for g in fs))
        self._index = index
        self._by_dim: dict[int, list[tuple[int, ...]]] | None = None

    @property
    def dim(self) -> int:
        return max(len(f) for f in self.facets) - 1

    def is_pure(self) -> bool:
        sizes = {len(f) for f in self.facets}
        return len(sizes) == 1

    def _faces_by_dim(self, budget: int = DEFAULT_FACE_BUDGET) -> dict[int, list[tuple[int, ...]]]:
        if self._by_dim is None:
            seen: set[tuple[int, ...]] = set()
            for facet in self.facets:
                idx = tuple(sorted(self._index[v] for v in facet))
                for k in range(len(idx) + 1):
                    for sub in itertools.combinations(idx, k):
                        if sub not in seen:
                            seen.add(sub)
                            if len(seen) > budget:
                                raise BudgetExceededError(
                                    f"face enumeration exceeded the budget of {budget} faces")
            by_dim: dict[int, list[tuple[int, ...]]] = {}
            for f in seen:
                by_dim.setdefault(len(f) - 1, []).append(f)
            for d in by_dim:
                by_dim[d].sort()
            self._by_dim = by_dim
        total = sum(len(v) for v in self._by_dim.values())
        if total > budget:
            raise BudgetExceededError(
                f"face enumeration exceeded the budget of {budget} faces")
        return self._by_dim

    def faces(self, budget: int = DEFAULT_FACE_BUDGET) -> set[frozenset]:
        """All faces, including the empty face, as vertex sets."""
        by_dim = self._faces_by_dim(budget)
        out = set()
        for faces in by_dim.values():
            for f in faces:
                out.add(frozenset(self.vertices[i] for i in f))
        return out

    def num_faces(self, budget: int = DEFAULT_FACE_BUDGET) -> int:
        return sum(len(v) for v in self._faces_by_dim(budget).values())

    def reduced_euler_characteristic(self, budget: int = DEFAULT_FACE_BUDGET) -> int:
        by_dim = self._faces_by_dim(budget)
        # (-1) ** d would be a float for d = -1 (the empty face)
        return sum(len(faces) if d % 2 == 0 else -len(faces)
                   for d, faces in by_dim.items())

    def cone_vertex(self):
        """A vertex lying in every facet, or None.  Such a vertex proves the
        complex contractible."""
        common = None
        for f in self.facets:
            common = set(f) if common is None else common & f
            if not common:
                return None
        return min(common, key=lambda v: self._index[v])

    def __repr__(self) -> str:
        return f"SimplicialComplex(vertices={len(self.vertices)}, facets={len(self.facets)})"


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

    def get(self, d: int) -> int:
        return dict(self.counts).get(d, 0)

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


def _rank_gf2(rows: list[int]) -> int:
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            pivot = row.bit_length() - 1
            other = basis.get(pivot)
            if other is None:
                basis[pivot] = row
                break
            row ^= other
    return len(basis)


def _rank_sparse(rows: list[dict[int, int]]) -> int:
    """Rank of integer rows ``{column: value}`` over the rationals by
    fraction-free elimination: a row meeting a pivot with the same leading
    column becomes a*row - b*pivot (a, b the two leading entries), then is
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
    return len(pivots)


def _normalised(row: dict[int, int]) -> dict[int, int]:
    g = math.gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def _boundary_rows_signed(faces_d: list[tuple[int, ...]],
                          index_dm1: dict[tuple[int, ...], int]) -> list[dict[int, int]]:
    rows = []
    for face in faces_d:
        row: dict[int, int] = {}
        for i in range(len(face)):
            col = index_dm1[face[:i] + face[i + 1:]]
            row[col] = 1 if i % 2 == 0 else -1
        rows.append(row)
    return rows


def _betti_counts(by_dim: dict[int, list[tuple[int, ...]]],
                  p: int) -> tuple[tuple[int, int], ...]:
    """Nonzero reduced Betti numbers over GF(2), or over Q for p = 0, by
    elimination on every boundary matrix."""
    top = max(by_dim)
    counts = {d: len(faces) for d, faces in by_dim.items()}
    ranks: dict[int, int] = {0: 1 if counts.get(0, 0) else 0}
    for d in range(1, top + 1):
        index_dm1 = {f: i for i, f in enumerate(by_dim[d - 1])}
        faces_d = by_dim[d]
        if p == 2:
            rows = []
            for face in faces_d:
                mask = 0
                for i in range(len(face)):
                    mask |= 1 << index_dm1[face[:i] + face[i + 1:]]
                rows.append(mask)
            ranks[d] = _rank_gf2(rows)
        else:
            ranks[d] = _rank_sparse(_boundary_rows_signed(faces_d, index_dm1))
    nonzero = []
    for d in range(-1, top + 1):
        b = counts.get(d, 0) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if b:
            nonzero.append((d, b))
    return tuple(nonzero)


def _profiles(K: SimplicialComplex,
              face_budget: int = DEFAULT_FACE_BUDGET) -> tuple[BettiProfile, BettiProfile]:
    """Reduced Betti numbers of ``K`` over GF(2) and over the rationals,
    from one GF(2) pass; see :func:`reduced_betti` for when the rational
    profile is read off it."""
    by_dim = K._faces_by_dim(face_budget)
    gf2 = _betti_counts(by_dim, 2)
    rational = _betti_counts(by_dim, 0) if len({d % 2 for d, _ in gf2}) > 1 else gf2
    return BettiProfile(2, gf2), BettiProfile(0, rational)


def reduced_betti(K: SimplicialComplex, coefficient_field: int = 2,
                  face_budget: int = DEFAULT_FACE_BUDGET) -> BettiProfile:
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
    if coefficient_field == 0:
        return _profiles(K, face_budget)[1]
    if coefficient_field != 2:
        raise ValueError("coefficient field must be 2 or 0 (the rationals)")
    return BettiProfile(2, _betti_counts(K._faces_by_dim(face_budget), 2))


def order_complex(P: Poset) -> SimplicialComplex:
    """The complex of chains of ``P``; facets are the maximal chains.

    The order complex of the empty poset is the empty complex.
    """
    cover = _covers(P.leq)
    uppers = [np.flatnonzero(row).tolist() for row in cover]
    minimal = np.flatnonzero(~cover.any(axis=0)).tolist()
    facets: list[frozenset] = []
    stack = [(i, (i,)) for i in reversed(minimal)]
    while stack:
        i, chain = stack.pop()
        ups = uppers[i]
        if not ups:
            facets.append(frozenset(P.ground[j] for j in chain))
        else:
            for j in reversed(ups):
                stack.append((j, chain + (j,)))
    return SimplicialComplex(P.ground, facets or [frozenset()])


@dataclass(frozen=True)
class ContractibilityEvidence:
    """Outcome of a contractibility check.

    ``method`` is ``"cone"`` for a genuine proof (a vertex in every
    facet), ``"homology"`` when the claim rests on vanishing reduced
    Betti numbers over GF(2) and the rationals, and None when the
    complex is provably not contractible.
    """

    contractible: bool
    method: str | None
    betti: tuple[BettiProfile, ...] = field(default=())


def contractibility_evidence(K: SimplicialComplex,
                             face_budget: int = DEFAULT_FACE_BUDGET) -> ContractibilityEvidence:
    v = K.cone_vertex()
    if v is not None:
        return ContractibilityEvidence(True, "cone")
    profiles = _profiles(K, face_budget)
    if all(p.is_trivial() for p in profiles):
        return ContractibilityEvidence(True, "homology", profiles)
    return ContractibilityEvidence(False, None, profiles)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
