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
(:func:`coxsort.subword.homotopy_types`), with no face built.  Every
open Bruhat interval of a group is proved a sphere by one EL-labelling
pass, :func:`certify_interval_el`, with no chain built; one interval, or a
batch, is also certified by eliminating its order complex in the homology
module, the route each pair the pass leaves takes.  Fiber certificates, like
interval ones, are one batch route whose single call is a batch of one: a
sweep over the u below w checks Q once and folds it once, and reads each
u <= w off the fold.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import posets
from .coxeter import CoxeterSystem, Element, _integer, word_str
from .errors import BudgetExceededError
from .hecke import _left_column, _require_reduced, bruhat_leq, bruhat_row, demazure
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
    "certify_interval_el",
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


def _reflection_order(system: CoxeterSystem) -> list[int]:
    """The table rows of the reflections t_1, ..., t_N that the canonical
    word s_1 ... s_N of w0 gives, t_k = s_1 ... s_(k-1) s_k s_(k-1) ... s_1,
    each conjugated over the table one letter at a time.  They are the N
    reflections of the group, each once, in a reflection order (Dyer,
    "Hecke algebras and shellings of Bruhat intervals", Compositio 1993)."""
    w0 = system.longest_element().word
    right, left = system._right, system._left
    order = []
    for k, s in enumerate(w0):
        t = right[0][s - 1]
        for r in reversed(w0[:k]):
            t = left[right[t][r - 1]][r - 1]
        order.append(t)
    return order


def certify_interval_el(system: CoxeterSystem) -> np.ndarray:
    """Prove every open Bruhat interval (u, w) of ``system`` with
    l(w) - l(u) >= 2 a sphere of dimension l(w) - l(u) - 2 by an
    EL-labelling, with no chain built: a read-only bool matrix over table
    rows whose ``[u, w]`` is set for each pair it proves.

    *Cited theorem* (Björner & Wachs, "On lexicographically shellable
    posets", Trans. AMS 1983): if the covers of a bounded poset P are
    labelled from a total order so that every closed interval [x, y] of P
    has exactly one increasing maximal chain, and it is lexicographically
    first, then the order complex of the open part of P is shellable and
    homotopy equivalent to a wedge of spheres, one for each decreasing
    maximal chain of P, of dimension its length minus 2.

    *Finite checks* (:func:`_el_proven`), on the relation of
    ``bruhat_interval(e, w0)``, which is validated as an order there:
    - a step is a pair x < z with l(z) = l(x) + 1, labelled with the rank of
      z x^-1 in :func:`_reflection_order`, or with none when z x^-1 is not
      in it.  Two steps from one element have distinct labels, and so do
      two consecutive steps (z = t x, y = t z would give y = x), so
      increasing and decreasing are strict or weak alike;
    - going down by length, a dynamic programme finds for every pair
      (x, y) the largest first label of an increasing chain of steps from
      x to y: the largest label of a step x < z that is below the largest
      first label from z to y.  It counts the decreasing chains, saturated
      at 2, as their two smallest first labels, repeats included:
      x < z < ... < y is decreasing when the label of x < z is above the
      first label of the rest, and those two labels say how many of the
      rest's chains, up to two, start below it;
    - (x, y) with x < y is bad when it has no increasing chain of steps,
      or when the largest first label of one is not the least label of the
      steps x < z <= y.  If no pair inside [x, y] is bad, every increasing
      chain starts with that least step x < z, and by induction on [z, y]
      there is exactly one, and it is lexicographically first.  A step with
      no label has no increasing chain, so it is bad;
    - (u, w) is proved when no bad pair lies inside [u, w], found by two
      :func:`posets._bool_product` calls, and exactly one decreasing chain
      of steps goes from u to w.
    With no bad pair inside [u, w], every cover of [u, w] is a step, since
    a cover x < y of length difference other than 1 has no chain of steps
    and is bad; so the maximal chains of [u, w] are its chains of steps, all
    of l(w) - l(u) covers, and the theorem gives one sphere of dimension
    l(w) - l(u) - 2.  Dyer ("Hecke algebras and shellings of Bruhat
    intervals", Compositio 1993) proved that a reflection order labels
    every Bruhat interval this way; that is why every pair is proved, and
    no step uses it: a label order that is no reflection order leaves pairs
    unproved instead of proving them wrongly.

    The upper ends y are taken a chunk at a time, so that a chunk's arrays,
    one byte a cell while there are fewer than 255 reflections, stay within
    ``posets._BLOCK_BYTES`` read at the call; the relation, the label of
    each pair of elements and the result are n x n.

    >>> b2 = CoxeterSystem.type_b(2)
    >>> int(certify_interval_el(b2).sum())  # 8 pairs at distance 2, 4 at 3, 1 at 4
    13
    """
    n = system.order()
    interval = bruhat_interval(system.identity, system.longest_element())
    ground = np.fromiter((v.index for v in interval.ground), dtype=np.intp, count=len(interval))
    order = _reflection_order(system)
    label = np.zeros((n, n), dtype=np.min_scalar_type(len(order) + 1))
    rows = np.arange(n)
    for k, t in enumerate(order, start=1):
        tx = rows
        for s in reversed(system._words[t]):
            tx = _left_column(system, s - 1)[tx]
        label[rows, tx] = k
    proven = np.zeros((n, n), dtype=bool)
    proven[np.ix_(ground, ground)] = _el_proven(
        interval.leq, np.array([v.length for v in interval.ground]),
        label[np.ix_(ground, ground)], len(order) + 1)
    proven.setflags(write=False)
    return proven


def _el_proven(leq: np.ndarray, length: np.ndarray, label: np.ndarray, none: int) -> np.ndarray:
    """The finite checks of :func:`certify_interval_el` on the order ``leq``
    (``[x, y]`` iff x <= y) over a ground sorted by ``length``, the label of
    a step x < z being ``label[x, z]``, from 1 to ``none`` - 1, or 0 for no
    label, and the labelled steps from one element carrying distinct labels:
    ``[u, w]`` is set when no bad pair lies inside [u, w], exactly one
    decreasing chain of steps goes from u to w, and l(w) - l(u) >= 2."""
    xs, zs = np.nonzero(leq & (length[:, None] + 1 == length))
    # the steps from each length L: their ends, labels, and the first step,
    # the index and the element x of each run of steps from one x
    steps = []
    for a, b in itertools.pairwise(np.searchsorted(length[xs], np.arange(length[-1] + 1))):
        new = np.concatenate(([True], xs[a + 1:b] != xs[a:b - 1]))
        steps.append((zs[a:b], label[xs[a:b], zs[a:b], None], np.flatnonzero(new),
                      np.cumsum(new) - 1, xs[a:b][new]) if b > a else None)
    k = len(leq)
    # a pair x < y is bad until the pass finds its chains: one with y no
    # longer than x has none
    bad = leq & ~np.eye(k, dtype=bool)
    single = np.zeros((k, k), dtype=bool)
    widest = max((len(step[0]) for step in steps if step), default=1)
    width = max(1, posets._BLOCK_BYTES // max(k, widest))
    for y0 in range(0, k, width):
        y1 = min(y0 + width, k)
        cols = np.arange(y1 - y0)
        # [z, y]: the largest first label of an increasing chain (0 for
        # none) and the two smallest of decreasing ones (``none`` for none)
        up = np.zeros((k, len(cols)), dtype=label.dtype)
        down1, down2 = np.full_like(up, none), np.full_like(up, none)
        up[y0 + cols, cols], down1[y0 + cols, cols] = none, 0
        for L in range(length[y1 - 1] - 1, -1, -1):
            if steps[L] is None:
                continue
            ez, m, heads, of, x = steps[L]
            # the ys longer than x, a suffix of the chunk
            j = np.searchsorted(length[y0:y1], L, side="right")
            u = np.maximum.reduceat(np.where(up[ez, j:] > m, m, 0), heads)
            below = (down1[ez, j:] < m).view(np.uint8) + (down2[ez, j:] < m)
            first = np.where(below > 0, m, none)
            d1 = np.minimum.reduceat(first, heads)
            first[first == d1[of]] = none
            d2 = np.minimum(np.minimum.reduceat(first, heads),
                            np.minimum.reduceat(np.where(below > 1, m, none), heads))
            least = np.minimum.reduceat(np.where(leq[ez, y0 + j:y1], m, none), heads)
            up[x, j:], down1[x, j:], down2[x, j:] = u, d1, d2
            bad[x, y0 + j:y1] = (u == 0) | (u != least)
            single[x, y0 + j:y1] = (d1 < none) & (d2 == none)
    bad &= leq
    inside = posets._bool_product(posets._bool_product(leq, bad), leq)
    return single & ~inside & (length[:, None] + 2 <= length)
