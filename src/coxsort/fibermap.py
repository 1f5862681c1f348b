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
A fiber's certificate is read off the subword certificate of Delta(Q, u),
whose Betti numbers come from the homotopy type that the fold of Q gives
(:func:`coxsort.subword.homotopy_types`), with no face built; interval
spheres are eliminated by the homology module.  Fiber certificates, like
interval ones, are one batch route whose single call is a batch of one: a
sweep over the u below w checks Q once and folds it once, and reads each
u <= w off the fold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .coxeter import CoxeterSystem, Element, _integer, word_str
from .errors import BudgetExceededError
from .hecke import _require_reduced, bruhat_leq, bruhat_row, demazure
from .homology import BettiProfile, _OrderComplex, _field_index, _shared_profiles
from .posets import bruhat_interval
from .subword import _certify, _fold, _positions

__all__ = [
    "subset_image",
    "check_order_preserving",
    "fiber_up",
    "fiber_open",
    "FiberReport",
    "certify_fiber_contractible",
    "IntervalReport",
    "certify_interval_sphere",
    "certify_interval_spheres",
]

_MASK_CAP = 16


def subset_image(system: CoxeterSystem, Q: Iterable[int],
                 positions: Iterable[int]) -> Element:
    """f(S): Demazure product of the subword of Q at the 1-based
    positions S, each an integer (numpy ones included)."""
    Q, _ = _require_reduced(system, Q)
    S = sorted({_integer(j, "position") for j in positions})
    if S and not (1 <= S[0] and S[-1] <= len(Q)):
        raise ValueError(f"positions must lie in 1..{len(Q)}")
    return demazure(system, tuple(Q[j - 1] for j in S))


def _mask_images(system: CoxeterSystem, Q: tuple[int, ...]) -> list[int]:
    """The table row of f(S) for every mask S of a checked reduced word Q;
    each mask extends mask-without-top-bit by one letter, absorbed if it is
    a right descent."""
    n = len(Q)
    if n > _MASK_CAP:
        raise BudgetExceededError(
            f"boolean lattice on {n} positions exceeds the cap of {_MASK_CAP}",
            budget="mask_cap", limit=_MASK_CAP, spent=n,
            subject=f"Q={word_str(Q)} in {system!r}")
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
    Q, _ = _require_reduced(system, Q)
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


def _fiber(system: CoxeterSystem, images: list[int], u: Element,
           excluded: tuple[int, ...] = ()) -> set[frozenset[int]]:
    """The position sets whose image, read off ``images`` (the table of
    :func:`_mask_images`), dominates u and is no excluded row; Bruhat order
    is asked once per distinct image, not once per mask."""
    elements = system.elements()
    above = {x for x in set(images) if x not in excluded and bruhat_leq(u, elements[x])}
    return {_positions(mask) for mask, x in enumerate(images) if x in above}


def fiber_up(system: CoxeterSystem, Q: Iterable[int], u: Element) -> set[frozenset[int]]:
    """f^{-1} of the upper interval [u, w]: all position sets whose
    image dominates u.  These are exactly the complements of the faces
    of the subword complex of (Q, u)."""
    Q, _ = _require_reduced(system, Q)
    return _fiber(system, _mask_images(system, Q), u)


def fiber_open(system: CoxeterSystem, Q: Iterable[int], u: Element) -> set[frozenset[int]]:
    """f^{-1} of the open interval (u, w).  Requires u strictly below w."""
    Q, w = _require_reduced(system, Q)
    if u == w or not bruhat_leq(u, w):
        raise ValueError("open-interval fibers need u strictly below the full product")
    return _fiber(system, _mask_images(system, Q), u, (u.index, w.index))


@dataclass(frozen=True)
class FiberReport:
    """Certificate that the strict upper fiber at ``target`` is contractible,
    read off the subword complex Delta(Q, u) of the same target.

    ``poset_size`` counts the upper fiber, one element per face of Delta
    (the empty face included).  ``method`` is ``"singleton"`` when u is the
    product of Q and the strict fiber is empty; ``"cone"`` when Delta has
    one facet, which proves contractibility: the complement of that facet
    is the least element of the strict fiber, so its order complex is a
    cone; ``"homology"`` when Delta has two facets or more and its reduced
    Betti numbers over GF(2) and the rationals, listed in ``betti``,
    vanish; None when they do not.  ``"homology"`` is kept as a label,
    part of the report's bytes: those trivial numbers are read off the
    homotopy type of Delta (:func:`coxsort.subword.homotopy_types`), which
    proves it contractible, with no face built and no elimination.
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
    fiber is the poset of nonempty faces of Delta under reverse inclusion,
    whose order complex sd(Delta) is homeomorphic to Delta.  It has a cone
    vertex, a face comparable to every vertex and every facet, iff Delta
    has one facet, that is (Delta is pure) 2^(len(Q) - l(u)) faces; a cone
    vertex of Delta with two facets (B2, Q = 1,2,1,2, u = s1) keeps the
    label "homology".  The kind and profiles are read off
    :func:`subword.certify_subword_complex` of Delta, from its homotopy
    type, so a face budget exceeded on the way names Q and u.  The same
    code as a one-target :func:`_fiber_reports`.
    """
    return _fiber_reports(system, Q, [u])[0]


def _fiber_reports(system: CoxeterSystem, Q: Iterable[int],
                   targets: Iterable[Element]) -> list[FiberReport]:
    """``certify_fiber_contractible(system, Q, u)`` for every u of
    ``targets``, in order, from one check and one fold of Q: a nonzero
    face count says that u lies below w, and the count and the subword
    certificate of every Delta(Q, u) are read off the same fold, with no
    complex built.  Raises ValueError as the one-target call does,
    at the first target that fails."""
    Q, w = _require_reduced(system, Q)
    fold = _fold(system, Q)
    shared: dict = {}
    reports = []
    for u in targets:
        if u.system != system:
            raise ValueError("elements belong to different Coxeter systems")
        if not fold.faces[u.index]:
            raise ValueError("u must lie below the product of Q")
        report = _certify(system, Q, u.index, fold, shared)
        faces = fold.faces[u.index]
        if faces == 1 << (len(Q) - u.length):  # one facet: Delta is pure
            # for u = w the fiber is {full}: its proper part is empty, nothing to certify
            contractible, method, betti = True, "singleton" if u == w else "cone", ()
        else:
            contractible = all(p.is_trivial() for p in report.profiles)
            method, betti = "homology" if contractible else None, report.profiles
        reports.append(FiberReport(u.word, report.kind, faces, contractible, method, betti))
    return reports


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
    naming the interval (u, w) and the group.  The same code as a
    one-pair :func:`certify_interval_spheres`.
    """
    return certify_interval_spheres([(u, w)], coefficient_field)[0]


def certify_interval_spheres(pairs: Iterable[tuple[Element, Element]],
                             coefficient_field: int = 2) -> list[IntervalReport]:
    """``certify_interval_sphere(u, w, coefficient_field)`` for every pair
    (u, w) of ``pairs``, in order; the pairs may come from several groups.

    Open intervals with the same relation matrix on their inner block have
    the same order complex on the same ordered vertices, so within one call
    they share one homology computation, exact over both fields; nothing is
    kept once the call returns.  A face budget exceeded raises
    :class:`BudgetExceededError` at the first pair over it, naming that
    interval as the one-pair call does.

    >>> b2 = CoxeterSystem.type_b(2)
    >>> e, w0 = b2.identity, b2.longest_element()
    >>> [(r.expected_dim, r.size, r.matches)
    ...  for r in certify_interval_spheres([(e, w0), (b2.element((1,)), w0)])]
    [(2, 6, True), (1, 4, True)]
    """
    index = _field_index(coefficient_field)
    shared: dict = {}
    reports = []
    for u, w in pairs:
        if u.system != w.system:
            raise ValueError("elements belong to different systems")
        closed = bruhat_interval(u, w)  # raises ValueError unless u <= w
        d = w.length - u.length
        if d < 2:
            raise ValueError("open-interval homology needs length difference at least 2")
        # the ground is sorted by table row, so u comes first and w last; the
        # inner block of an order is an order, so it is not validated again
        inner = _OrderComplex(closed.ground[1:-1], closed.leq[1:-1, 1:-1])
        profile = _shared_profiles(
            inner, shared, lambda: f"interval ({u!r}, {w!r}) in {w.system!r}")[index]
        expected = d - 2
        reports.append(IntervalReport(u.word, w.word, expected, profile,
                                      profile.matches_sphere(expected), len(inner.vertices)))
    return reports
