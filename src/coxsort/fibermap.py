"""The monoid-product map from subsets of a reduced word to the group.

For a reduced word Q of w, every set S of positions yields an element
f(S) = Demazure product of the subword of Q at S.  The map f is
order-preserving from the boolean lattice onto the interval [e, w] in
Bruhat order, and its upper fibers f^{-1}([u, w]) are the subword
complex Delta(Q, u) turned inside out: they are the complements of its
faces.  This module computes f on int masks (bit j is position j + 1) as
table rows, its fibers as masks filtered through Bruhat down-set rows,
and the homotopy certificate of each upper fiber, read off Delta(Q, u)
itself; position sets become frozensets only where they leave the module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .coxeter import CoxeterSystem, Element
from .errors import BudgetExceededError
from .hecke import _require_reduced, bruhat_leq, bruhat_row, demazure
from .homology import BettiProfile, _OrderComplex, _profiles, reduced_betti
from .posets import bruhat_interval
from .subword import _positions, subword_complex

__all__ = [
    "subset_image",
    "check_order_preserving",
    "fiber_up",
    "fiber_open",
    "FiberReport",
    "certify_fiber_contractible",
    "IntervalReport",
    "certify_interval_sphere",
]

_MASK_CAP = 16


def subset_image(system: CoxeterSystem, Q: Iterable[int],
                 positions: Iterable[int]) -> Element:
    """f(S): Demazure product of the subword of Q at the 1-based
    positions S."""
    Q = tuple(Q)
    _require_reduced(system, Q)
    S = sorted(set(positions))
    if S and not (1 <= S[0] and S[-1] <= len(Q)):
        raise ValueError(f"positions must lie in 1..{len(Q)}")
    return demazure(system, tuple(Q[j - 1] for j in S))


def _mask_images(system: CoxeterSystem, Q: tuple[int, ...]) -> list[int]:
    """The table row of f(S) for every mask S; each mask extends
    mask-without-top-bit by one letter, absorbed if it is a right descent."""
    _require_reduced(system, Q)
    n = len(Q)
    if n > _MASK_CAP:
        raise BudgetExceededError(
            f"boolean lattice on {n} positions exceeds the cap of {_MASK_CAP}",
            budget="mask_cap", limit=_MASK_CAP, spent=n)
    right = system._right
    imgs = [0] * (1 << n)
    for mask in range(1, 1 << n):
        top = mask.bit_length() - 1
        prev = imgs[mask ^ (1 << top)]
        imgs[mask] = max(prev, right[prev][Q[top] - 1])
    return imgs


def check_order_preserving(system: CoxeterSystem, Q: Iterable[int]) -> bool:
    """Verify that S <= T implies f(S) <= f(T) in Bruhat order, exhaustively.

    Bruhat order is transitive, so it is enough to compare f(S - {j}) with
    f(S) for every cover of the boolean lattice, i.e. every mask S and every
    position j in S.  This is exact for every word up to the mask cap of
    16 letters; the Bruhat relation is read once per distinct image.
    """
    Q = tuple(Q)
    imgs = np.array(_mask_images(system, Q), dtype=np.intp)
    elements = system.elements()
    images, rank = np.unique(imgs, return_inverse=True)
    # below[a, b] says images[b] <= images[a]
    below = np.stack([bruhat_row(elements[x])[images] for x in images.tolist()])
    masks = np.arange(len(imgs))
    for j in range(len(Q)):
        bit = 1 << j
        upper = masks[(masks & bit) != 0]
        if not below[rank[upper], rank[upper ^ bit]].all():
            return False
    return True


def _fiber(system: CoxeterSystem, Q: tuple[int, ...], u: Element,
           excluded: tuple[int, ...] = ()) -> set[frozenset[int]]:
    # the position sets whose image dominates u and is no excluded row;
    # Bruhat order is asked once per distinct image, not once per mask
    elements = system.elements()
    imgs = _mask_images(system, Q)
    above = {x for x in set(imgs) if x not in excluded and bruhat_leq(u, elements[x])}
    return {_positions(mask) for mask, x in enumerate(imgs) if x in above}


def fiber_up(system: CoxeterSystem, Q: Iterable[int], u: Element) -> set[frozenset[int]]:
    """f^{-1} of the upper interval [u, w]: all position sets whose
    image dominates u.  These are exactly the complements of the faces
    of the subword complex of (Q, u)."""
    return _fiber(system, tuple(Q), u)


def fiber_open(system: CoxeterSystem, Q: Iterable[int], u: Element) -> set[frozenset[int]]:
    """f^{-1} of the open interval (u, w).  Requires u strictly below w."""
    Q = tuple(Q)
    w = _require_reduced(system, Q)
    if u == w or not bruhat_leq(u, w):
        raise ValueError("open-interval fibers need u strictly below the full product")
    return _fiber(system, Q, u, (u.index, w.index))


@dataclass(frozen=True)
class FiberReport:
    """Certificate that the strict upper fiber at ``target`` is contractible,
    read off the subword complex Delta(Q, u) of the same target.

    ``poset_size`` counts the upper fiber, one element per face of Delta
    (the empty face included).  ``method`` is ``"singleton"`` when u is the
    product of Q and the strict fiber is empty; ``"cone"`` when Delta has
    one facet, which proves contractibility: the complement of that facet
    is the least element of the strict fiber, so its order complex is a
    cone; ``"homology"`` when the claim rests on the vanishing reduced
    Betti numbers of Delta over GF(2) and the rationals, listed in
    ``betti``; None when those numbers do not vanish.
    """

    target: tuple[int, ...]
    complex_type: str
    poset_size: int
    contractible: bool
    method: str | None
    betti: tuple[BettiProfile, ...] = field(default=())


def certify_fiber_contractible(system: CoxeterSystem, Q: Iterable[int],
                               u: Element) -> FiberReport:
    """Certify that the strict part of the upper fiber at u (the fiber
    poset ordered by inclusion, minus its maximum, the full position set)
    is contractible, from the one complex Delta = Delta(Q, u).

    S is in the fiber iff its complement is a face of Delta, so the strict
    fiber is the poset of nonempty faces of Delta under reverse inclusion.
    Its order complex is the barycentric subdivision sd(Delta), which is
    homeomorphic to Delta: the Betti numbers of Delta are those of the
    strict fiber.  A cone vertex of an order complex is an element
    comparable to all others.  A nonempty face comparable to every vertex
    and to every facet contains all vertices (or is the only one) and lies
    in every facet, so it exists iff Delta has one facet.  A single facet
    is therefore exactly the cone case, while a cone vertex of Delta with
    two facets (B2, Q = 1,2,1,2, u = s1) is left to homology, whose
    trivial profiles the cone vertex of Delta itself then proves.  A face
    budget exceeded on the way raises :class:`BudgetExceededError` naming Q
    and u.
    """
    Q = tuple(Q)
    w = _require_reduced(system, Q)
    if not bruhat_leq(u, w):
        raise ValueError("u must lie below the product of Q")
    delta = subword_complex(system, Q, u)
    kind = delta.classify()
    try:
        # enumerates the faces under the default budget, which _profiles reuses
        size = delta.num_faces()
    except BudgetExceededError as exc:
        raise exc.about(delta._subject()) from exc
    if u == w:
        # the fiber is {full}; its proper part is empty, so nothing to certify
        return FiberReport(u.word, kind, size, True, "singleton")
    if len(delta._facet_masks) == 1:
        return FiberReport(u.word, kind, size, True, "cone")
    profiles = _profiles(delta)
    contractible = all(p.is_trivial() for p in profiles)
    return FiberReport(u.word, kind, size, contractible,
                       "homology" if contractible else None, profiles)


@dataclass(frozen=True)
class IntervalReport:
    """Homology check of the order complex of an open interval (u, w)."""

    lower: tuple[int, ...]
    upper: tuple[int, ...]
    expected_dim: int
    profile: BettiProfile
    matches: bool
    size: int

    def to_json(self) -> str:
        return json.dumps({
            "lower": list(self.lower),
            "upper": list(self.upper),
            "expected_dim": self.expected_dim,
            "betti": {"field": self.profile.coefficient_field,
                      "numbers": dict(self.profile.counts)},
            "matches": self.matches,
            "size": self.size,
        }, sort_keys=True)


def certify_interval_sphere(u: Element, w: Element,
                            coefficient_field: int = 2) -> IntervalReport:
    """Check that the order complex of the open Bruhat interval (u, w)
    has the reduced homology of a sphere of dimension l(w)-l(u)-2.

    Needs u <= w with l(w)-l(u) >= 2, so that the open interval is
    nonempty and the sphere has dimension at least 0; for length difference
    exactly 2 the open interval is two incomparable points, the 0-sphere.
    A face budget exceeded on the way raises :class:`BudgetExceededError`
    naming the interval (u, w).
    """
    if u.system != w.system:
        raise ValueError("elements belong to different systems")
    closed = bruhat_interval(u, w)  # raises ValueError unless u <= w
    d = w.length - u.length
    if d < 2:
        raise ValueError("open-interval homology needs length difference at least 2")
    # the ground is sorted by table row, so u comes first and w last; the
    # inner block of an order is an order, so it is not validated again
    inner = _OrderComplex(closed.ground[1:-1], closed.leq[1:-1, 1:-1])
    try:
        profile = reduced_betti(inner, coefficient_field)
    except BudgetExceededError as exc:
        raise exc.about(f"interval ({u!r}, {w!r})") from exc
    expected = d - 2
    return IntervalReport(u.word, w.word, expected, profile,
                          profile.matches_sphere(expected), len(inner.vertices))
