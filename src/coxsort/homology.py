"""Exact reduced simplicial homology over GF(2) and over the rationals.

Complexes are presented by facets over an ordered vertex tuple, or, for
the order complex of a poset, by the poset itself, whose chains are
counted before any is built, and then built only where they are read.
Betti numbers are reduced: the chain complex is augmented, so a point has
all zeros and the empty complex ``{frozenset()}`` has a single unit in
dimension -1.  Ranks are computed by exact elimination, never by floating
point: bitset rows over GF(2), fraction-free integer rows for the
rationals, which read the GF(2) profile instead whenever parity forces it
(see :func:`reduced_betti`).

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

Every complex is eliminated relative to a subcomplex L with no reduced
homology over any field, which its one hook, ``_relative_levels``,
names.  The long exact sequence of the pair (Delta, L),
... -> H~_n(L) -> H~_n(Delta) -> H_n(Delta, L) -> H~_(n-1)(L) -> ...,
then gives H~_n(Delta) = H_n(Delta, L) for every n, over GF(2) and Q.
The relative chain complex C(Delta, L) = C~(Delta) / C~(L) has as basis
the faces outside L; when L holds the empty face there is no
augmentation, and the boundary is that of Delta with the faces of L
dropped, zero columns.  Clearing and the count of eliminated rows above
use only that the rows are boundaries in a finite chain complex with one
basis per degree, so they hold on C(Delta, L) as they stand.  When some
vertex lies in every facet (``_cone``, the one cone test, read off the
facets once every face is counted, and by an order complex off its
comparabilities), the complex is a cone, the closed
star of that vertex: L is the whole complex and no face is built.
Otherwise a simplicial complex, such as a subword complex, which is not
flag, has L void.  (The subword certificates read their Betti numbers off
homotopy types, see :mod:`coxsort.subword`, and eliminate nothing.)

An order complex takes L from a maximal chain.  Its faces are the chains of a
poset, so it is flag: a vertex set is a face as soon as its vertices are
pairwise comparable.  Take a maximal chain sigma, and let L be the union
of the closed stars st(v) = {c : c + {v} is a chain} over the v in
sigma.  Any j of these stars meet in the chains c for which c + {v_1,
..., v_j} is a chain, since the complex is flag; that intersection is a
cone over v_1, so contractible, and never empty, since sigma is a chain.
By the nerve lemma (Bjorner, "Topological methods", Handbook of
Combinatorics 1995, Thm 10.6), L is homotopy equivalent to the nerve of
its stars, a simplex, so contractible.  Left are the chains that hold,
for every v in sigma, an element incomparable with v.  A chain that
holds them stays outside L when it grows, so one walk that extends a
chain upwards, only while its strict upper bounds can still supply what
it lacks, builds exactly these chains and no other: 4,204 on the B3
intervals (e, w) of lengths 6 and 7, of the 41,194 that it counts.  (The
empty order has sigma empty and L void, and keeps its one face.)  A cone
needs no more: an element comparable with all lies in every maximal
chain, so in sigma, and its star is the whole complex: no chain is left.

There is one face budget, :data:`DEFAULT_FACE_BUDGET`, read at each call
and only where faces or chains are built: ``num_faces``, the gate of
``faces``, ``facets``, ``interior_faces`` and elimination; the
enumeration from facets; a subword complex's listings of its facets and
interior faces; and the chain counts of an order complex.  Every reading
of the faces counts them against it first, cone or not, cached or not,
in ``num_faces``, on the count of each class's ``_count``, and a complex
that raised keeps no faces.  Facets are enumerated, stopping past the
budget; an order complex counts its chains level by level, and a subword
complex reads its count off one pass over its word (see
:mod:`coxsort.subword`), both before any face is built.  A certificate
that builds nothing reads no budget: the subword and fiber certificates
read homotopy types off that pass, and the EL-labelling pass of
:mod:`coxsort.fibermap` builds no chain.  Only ``num_faces(budget)``
takes another bound, kept for the benchmark tracer.

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
from operator import and_, or_
from typing import Container, Iterable, Sequence

import numpy as np

from .coxeter import _integer
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
    facets are kept as masks, those no other mask contains (a subword
    complex lists its own), read off as ``facets`` when first asked for.
    The faces are enumerated once, top-down from the facets, into one
    sorted list of masks per size.  In the boundary of a face f, the face
    ``f ^ low`` (drop the vertex at bit ``low``) carries the sign
    (-1)^popcount(f & (low - 1)): signs alternate in increasing vertex order.
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

    @cached_property
    def _cone(self) -> bool:
        """Whether some vertex lies in every facet, making the complex a cone."""
        return bool(reduce(and_, self._facet_masks))

    def _relative_levels(self) -> list[list[int]]:
        """The faces outside a subcomplex L with no reduced homology, which
        :func:`_profiles` eliminates in place of every face, once all are
        counted against the face budget.  For a cone, L is the whole
        complex and no face is left or built, not even the empty one:
        ``[[]]``.  Otherwise L is void and every face is kept: the argument
        for order complexes needs a flag complex (see the module docstring)."""
        self.num_faces()
        if self._cone:
            return [[]]
        return self._face_levels()

    def num_faces(self, budget: int | None = None) -> int:
        """The number of faces, the empty one included, read off ``_count``
        and compared with ``budget``, by default the face budget."""
        budget = DEFAULT_FACE_BUDGET if budget is None else budget
        total = self._count(budget)
        if total > budget:
            raise _face_budget_error(budget, total)
        return total

    def _count(self, budget: int) -> int:
        """The face count of a complex given by facets, which enumerates
        them, stopping once ``budget`` is passed; the faces are kept."""
        if self._levels is None:
            self._levels = self._enumerate(budget)
        return sum(map(len, self._levels))

    def _face_levels(self) -> list[list[int]]:
        """``levels[k]``: the faces with k vertices (dimension k - 1) as
        sorted masks, built once and kept, once counted against the budget."""
        self.num_faces()
        if self._levels is None:
            self._levels = self._build_levels()
        return self._levels

    def _build_levels(self) -> list[list[int]]:
        """Every face by size, once counted: enumerated from the facets."""
        return self._enumerate()

    def _enumerate(self, budget: float = math.inf) -> list[list[int]]:
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
    (p = 2), ``{column: +-1}`` over Q (p = 0).  A face missing from
    ``levels[k - 1]`` lies in the subcomplex taken out: a zero column."""
    column = {mask: i for i, mask in enumerate(levels[k - 1])}.get
    rows: list = []
    for i, f in enumerate(levels[k]):
        if i in skip:
            continue
        rest = f
        if p == 2:
            row = 0
            while rest:
                low = rest & -rest
                if (j := column(f ^ low)) is not None:
                    row |= 1 << j
                rest ^= low
        else:
            row, sign = {}, 1
            while rest:
                low = rest & -rest
                if (j := column(f ^ low)) is not None:
                    row[j] = sign
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
    # augmentation sends every vertex to the empty face, if there is one
    ranks = [0] * (len(levels) + 1)
    ranks[1] = 1 if levels[0] and len(levels) > 1 else 0
    cleared: set[int] = set()
    for k in range(len(levels) - 1, 1, -1):
        cleared = eliminate(_boundary_rows(levels, k, p, cleared))
        ranks[k] = len(cleared)
    return tuple((k - 1, b) for k, level in enumerate(levels)
                 if (b := len(level) - ranks[k] - ranks[k + 1]))


def _profiles(K: SimplicialComplex) -> tuple[BettiProfile, BettiProfile]:
    """Reduced Betti numbers of ``K`` over GF(2) and over the rationals,
    from one GF(2) pass over the faces ``K._relative_levels`` keeps (none
    of a cone) once all are counted against the face budget; see
    :func:`reduced_betti` for when the rational profile is read off it."""
    levels = K._relative_levels()
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
    integer elimination.  The argument holds for any finite chain complex
    of free abelian groups with integer boundary matrices, so it covers the
    relative complex C(Delta, L) that an order complex is eliminated as
    (see the module docstring) as well as the augmented one.

    >>> two_points = SimplicialComplex("ab", [{"a"}, {"b"}])
    >>> reduced_betti(two_points).numbers
    {0: 1}
    >>> empty = SimplicialComplex((), [frozenset()])
    >>> reduced_betti(empty).numbers
    {-1: 1}
    """
    index = _field_index(coefficient_field)
    return _profiles(K)[index]


def _field_index(coefficient_field: int) -> int:
    """Where the profile over ``coefficient_field`` sits in a
    :func:`_profiles` pair; ValueError for a field other than 2 or 0, a
    non-integer such as 2.0 or a bool.  Numpy integers pass."""
    if _integer(coefficient_field, "coefficient field") not in (2, 0):
        raise ValueError("coefficient field must be 2 or 0 (the rationals)")
    return int(coefficient_field == 0)


class _OrderComplex(SimplicialComplex):
    """The order complex of the order ``leq`` on ``ground``, a relation
    already known to be a partial order.  A face is a chain, as a vertex
    mask over ``ground``.  The chains are counted, level by level, before
    any is built (``_chain_counts``, the face-budget check), and then one
    walk (``_walk``) builds the chains outside the stars of a chain sigma:
    every chain for sigma empty, which ``faces``, ``facets`` and ``dim``
    read, and for :func:`_profiles` only those outside L, the union of the
    stars of one maximal chain (``_relative_levels`` and the module
    docstring), a small part of them.  The facets, the maximal chains,
    are read off the full levels."""

    def __init__(self, ground: tuple, leq: np.ndarray):
        self.vertices = ground
        self._leq = leq
        self._levels = None
        self._counts: list[int] | None = None

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

    @cached_property
    def _ups(self) -> list[list[int]]:
        """``ups[t]``: the strict upper bounds of t; the empty chain has the
        virtual top n, below every element."""
        n = len(self.vertices)
        rows, cols = np.nonzero(self._leq & ~np.eye(n, dtype=bool))
        cols = cols.tolist()
        ends = np.cumsum(np.bincount(rows, minlength=n)).tolist()
        return [cols[start:end] for start, end in zip([0] + ends, ends)] + [list(range(n))]

    @cached_property
    def _cone(self) -> bool:
        """Whether some element is comparable with every element.  Such an
        element lies in every maximal chain, each a facet; conversely an
        element in every maximal chain is comparable with all, since each
        element lies in some maximal chain.  Read off the comparabilities,
        so no chain is built."""
        return (1 << len(self.vertices)) - 1 in self._comparable

    @cached_property
    def _comparable(self) -> list[int]:
        """``comparable[i]``: the mask of the elements comparable with i, i
        included."""
        packed = np.packbits(self._leq | self._leq.T, axis=1, bitorder="little")
        width = packed.shape[1]
        data = packed.tobytes()
        return [int.from_bytes(data[i * width:(i + 1) * width], "little")
                for i in range(len(self.vertices))]

    def _chain_counts(self, budget: int | None = None) -> list[int]:
        """``counts[k]``: the number of chains with k elements, counted in
        Python ints with no chain built, then kept.  With N_k[t] the chains
        of k elements with top t, N_1[t] = 1 and N_(k+1)[j] is the sum of
        N_k[t] over t < j.  The running total is compared with ``budget``,
        by default the face budget, after each level, so a complex over it
        raises at the first level that crosses it and keeps no counts."""
        budget = DEFAULT_FACE_BUDGET if budget is None else budget
        if self._counts is None:
            ups = self._ups
            counts, total = [1], 1
            by_top = [1] * len(self.vertices)
            while size := sum(by_top):
                total += size
                if total > budget:
                    raise _face_budget_error(budget, total)
                counts.append(size)
                longer = [0] * len(by_top)
                for t, count in enumerate(by_top):
                    if count:
                        for j in ups[t]:
                            longer[j] += count
                by_top = longer
            if total > budget:  # the empty order's one chain, which no level follows
                raise _face_budget_error(budget, total)
            self._counts = counts
        return self._counts

    def _count(self, budget: int) -> int:
        """The number of chains, read off the counts: none is built."""
        return sum(self._chain_counts(budget))

    def _build_levels(self) -> list[list[int]]:
        """Every chain by size: the walk with sigma empty."""
        return self._walk(0)

    def _relative_levels(self) -> list[list[int]]:
        """The chains outside L, the union of the stars of a maximal chain
        sigma, once every chain is counted against the face budget.  sigma
        is built greedily: the elements in decreasing order of how many
        elements each is comparable with, ties by index, each kept when it
        is comparable with all kept so far.  Every element left out is
        incomparable with one kept, so sigma is maximal; one comparable
        with all is kept, so a cone leaves none."""
        self.num_faces()
        comparable = self._comparable
        sigma = 0
        for i in sorted(range(len(comparable)), key=lambda i: -comparable[i].bit_count()):
            if not sigma & ~comparable[i]:
                sigma |= 1 << i
        return self._walk(sigma)

    def _walk(self, sigma: int) -> list[list[int]]:
        """The chains that hold, for every v in the chain ``sigma`` (a
        mask), an element incomparable with v, by size as sorted masks,
        one level per level of ``_counts``.  A chain c is extended by the
        strict upper bounds of its top t.  hit(c), the v of sigma that some
        element of c is incomparable with, only grows along the walk, and
        at most to hit(c) | reach[t], reach[t] the union of hits[j] over
        the strict upper bounds j of t.  So c is extended only while that
        union is sigma, and kept when hit(c) is; this is exact, since every
        chain that is kept passes the test at each of its prefixes.  Chains
        of one size with the same top and hit are extended together."""
        ups = self._ups
        hits = [sigma & ~c for c in self._comparable]
        reach = [reduce(or_, map(hits.__getitem__, up), 0) for up in ups]
        levels: list[list[int]] = [[] for _ in self._counts]
        groups = {(len(hits), 0): [0]}  # the empty chain, at the virtual top
        for level in levels:
            longer: dict[tuple[int, int], list[int]] = {}
            for (t, hit), masks in groups.items():
                if hit == sigma:
                    level += masks
                for j in ups[t]:
                    if (h := hit | hits[j]) | reach[j] == sigma:
                        bit = 1 << j
                        longer.setdefault((j, h), []).extend([m | bit for m in masks])
            level.sort()
            groups = longer
        return levels

    def __repr__(self) -> str:
        # the facet count would enumerate every chain
        return f"SimplicialComplex(order complex on {len(self.vertices)} vertices)"


def order_complex(P: Poset) -> SimplicialComplex:
    """The complex of chains of ``P``; facets are the maximal chains.

    Nothing is built here.  The chains are counted level by level, in
    Python ints, when first asked for (:func:`reduced_betti`,
    ``num_faces``, ``facets``, ``dim``, ...), and the count is checked
    against the face budget, which raises :class:`BudgetExceededError`
    before any chain is built.  ``num_faces`` reads the count alone;
    :func:`reduced_betti` builds only the chains it eliminates, those
    outside the stars of one maximal chain, and ``faces`` and ``facets``
    build every chain, once.  The order complex of the empty poset is the
    empty complex.
    """
    return _OrderComplex(P.ground, P.leq)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
