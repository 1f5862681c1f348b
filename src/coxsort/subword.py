"""Subword complexes.

Given a word Q in the generators and a group element w, the faces are
the sets of positions one can delete from Q so that the remaining
subword still contains a reduced word for w; equivalently the facets
are the complements of the position sets carrying reduced subwords
equal to w.  A :class:`SubwordComplex` is the simplicial complex on the
positions 1..len(Q), its facets derived from (Q, w), never given.
Positions are 1-based; inside the facet search and the complex a set of
positions is an int mask, bit j for position j + 1.  Masks go end to end:
the facet search returns them, the complex keeps them, and faces and
homology run on them.  Frozensets of positions are made only where they
leave the module, ``facets`` once when first read.

Every such complex is homeomorphic to a ball or to a sphere, and the
sphere case occurs exactly when the Demazure product of Q equals w.

One right-to-left pass over Q (:func:`_spell`) counts the faces of every
Delta(Q, u) and finds the cones among them, before any facet is searched
or any face built.  The count rests on a lemma of Knutson and Miller
("Subword complexes in Coxeter groups", Adv. Math. 2004, section 3): F is
a face of Delta(Q, u) exactly when the Demazure product of Q minus F is
>= u.  For a letter s and elements x, u, the product s * x of the
Demazure monoid, max(x, sx), is >= u exactly when x >= min(u, su): if
x >= u' = min(u, su), then y = max(x, sx) >= u', and s is a left
descent of y but not of u', so the lifting property (Bjorner and Brenti,
*Combinatorics of Coxeter Groups*, Prop. 2.2.7) puts su' below y as
well, and u is one of u', su'; conversely y >= u >= u', and if x = sy the
lifting property gives u' <= sy.  So with faces_j[u] the number of
position sets P of Q[j:] whose product is >= u, faces_n[u] = 1 for u = e
and 0 otherwise, and faces_j[u] = faces_(j+1)[u] + faces_(j+1)[min(u, su)]
for s = Q[j]; faces_0[u] is the face count of Delta(Q, u), in Python
ints (a word of 64 letters has 2^64 faces for u = e).  The same pass
keeps used[x], the positions lying in some reduced subword of Q spelling
x: used_j[x] = used_(j+1)[x] | bit j | used_(j+1)[sx] when sx < x, for x
below the product of Q[j:], which by the lemma puts sx below the product
of Q[j+1:].  The facets are the complements of these subwords, so a
position outside used[u] lies in every facet: Delta(Q, u) is a cone
exactly when used[u] is not every position.  (For Q empty, used[e] is
every position, none, and Delta((), e) = {frozenset()} is no cone.)  The
complex reads its cone test and its face count (``_cone``, ``_count``)
off this pass, so a cone is certified with no facet searched.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .coxeter import CoxeterSystem, Element, word_str
from .errors import BudgetExceededError, VoidComplexError
from .hecke import _suffix_demazure, bruhat_row
from .homology import BettiProfile, SimplicialComplex, _shared_profiles

__all__ = ["SubwordComplex", "subword_complex", "SubwordReport", "certify_subword_complex",
           "certify_subword_complexes"]


class SubwordComplex(SimplicialComplex):
    """The subword complex Delta(Q, target) on the positions 1..len(Q) of
    Q, its facets derived from (Q, target) as masks (see the module
    docstring); Q is folded once, for the void test, the face count, the
    cone test, ``classify`` and the facet search, which runs when the
    facets are first read.  Raises VoidComplexError when Q carries no
    reduced subword for the target.  For the identity target the complex
    is the full simplex on all positions, for the empty word the empty
    complex.  The face budget is checked on the count, so a complex over
    it raises before any face is built.
    """

    def __init__(self, system: CoxeterSystem, Q: Iterable[int], target: Element):
        Q = system.check_word(Q)
        if target.system != system:
            raise ValueError("target element belongs to a different system")
        self._setup(system, Q, target, _fold(system, Q))

    @classmethod
    def _folded(cls, system: CoxeterSystem, Q: tuple[int, ...], target: Element,
                fold: "_Fold") -> "SubwordComplex":
        """The complex of a checked word Q and a target of the same system,
        from the fold :func:`_fold` already made of Q."""
        complex_ = cls.__new__(cls)
        complex_._setup(system, Q, target, fold)
        return complex_

    def _setup(self, system: CoxeterSystem, Q: tuple[int, ...], target: Element,
               fold: "_Fold") -> None:
        # the target is below the product of Q, the root test of the facet
        # search, exactly when Q carries a reduced subword for it
        t = target.index
        if not fold.bounds[0][t]:
            raise VoidComplexError(
                f"the word {word_str(Q)} carries no reduced subword equal to {target}")
        self.vertices = tuple(range(1, len(Q) + 1))
        self._levels = None
        self.system = system
        self.Q = Q
        self.target = target
        self._bounds = fold.bounds
        self._product = fold.suffix[0]  # table row of the Demazure product of Q
        self._cone = fold.used[t] != (1 << len(Q)) - 1
        self._faces = fold.faces[t]

    @cached_property
    def _facet_masks(self) -> list[int]:
        """The facets as masks, from the facet search, run when first read;
        the one facet setup of :class:`SimplicialComplex` stores them on
        the instance."""
        self._init_facets(self.vertices, _facets_by_backtrack(
            self.system, self.Q, self.target, self._bounds))
        return vars(self)["_facet_masks"]

    def _count(self, budget: int) -> int:
        """The number of faces, read off the fold's count: none is built."""
        return self._faces

    def classify(self) -> str:
        """"sphere" when the Demazure product of Q equals the target,
        "ball" otherwise."""
        return "sphere" if self._product == self.target.index else "ball"

    def interior_faces(self) -> frozenset[frozenset[int]]:
        """Faces whose complementary subword still has Demazure product
        equal to the target.  For a sphere every face qualifies; for a
        ball these are the faces off the boundary sphere."""
        Q, system, target = self.Q, self.system, self.target.index
        return frozenset(
            _positions(F) for level in self._face_levels() for F in level
            if _suffix_demazure(system, tuple(
                s for j, s in enumerate(Q) if not F >> j & 1))[0] == target)

    def boundary_faces(self) -> frozenset[frozenset[int]]:
        return frozenset(self.faces() - self.interior_faces())

    def __repr__(self) -> str:
        return (f"SubwordComplex(Q={self.Q}, target={self.target!r}, "
                f"facets={len(self._facet_masks)})")


def _positions(mask: int) -> frozenset[int]:
    """The 1-based position set of a mask: bit j is position j + 1."""
    return frozenset(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)


class _Fold(NamedTuple):
    """The one fold of a checked word Q, by table row: ``suffix[j]``, the
    row of the Demazure product of Q[j:], and ``bounds[j]``, its Bruhat
    row; ``used`` and ``faces``, the two lists of :func:`_spell`.
    ``suffix[0]`` is the product of Q and ``bounds[0]`` the elements below
    it, so one fold serves the verdict, the targets, the counts, the cone
    tests and every facet search."""

    suffix: list[int]
    bounds: list
    used: list[int]
    faces: list[int]


def _fold(system: CoxeterSystem, Q: tuple[int, ...]) -> _Fold:
    """The fold of a checked word Q; each Bruhat row is read once per
    distinct row of ``suffix``."""
    suffix = _suffix_demazure(system, Q)
    elements = system.elements()
    rows = {x: bruhat_row(elements[x]) for x in set(suffix)}
    return _Fold(suffix, [rows[x] for x in suffix], *_spell(system, Q, suffix))


def _spell(system: CoxeterSystem, Q: tuple[int, ...],
           suffix: list[int]) -> tuple[list[int], list[int]]:
    """``(used, faces)`` for every table row x, from one right-to-left
    pass over Q (see the module docstring): ``used[x]``, the mask of the
    positions lying in some reduced subword of Q that spells x, and
    ``faces[x]``, the number of faces of Delta(Q, x), in Python ints; both
    are 0 for the rows not below the product of Q.  Rows are sorted by
    length, so letter j updates in place the rows up to ``suffix[j]``,
    from the top down, and the row sx < x that it reads still holds the
    value for Q[j+1:].  A row x with sx < x is spelled through position j
    exactly when sx is below the product of Q[j+1:], that is when it has a
    face count there."""
    left = system._left
    used = [0] * len(left)
    faces = [1] + [0] * (len(left) - 1)  # row 0 is e, the product of no letter
    for j in range(len(Q) - 1, -1, -1):
        s, bit = Q[j] - 1, 1 << j
        for x in range(suffix[j], -1, -1):
            sx = left[x][s]
            if sx > x:
                faces[x] += faces[x]
            elif faces[sx]:
                faces[x] += faces[sx]
                used[x] |= bit | used[sx]
    return used, faces


def _facets_by_backtrack(system: CoxeterSystem, Q: tuple[int, ...], target: Element,
                         bounds: list) -> set[int]:
    """The facets of Delta(Q, target) as masks: the complements of the
    position sets spelling a reduced word for the target; ``bounds`` is
    that of :func:`_fold`."""
    # depth first over (position j, row still to spell, mask of positions
    # taken); the Bruhat row of suffix[j], the Demazure product of Q[j:],
    # bounds what the positions from j on can still spell
    left = system._left
    full = (1 << len(Q)) - 1
    out: set[int] = set()
    stack = [(0, target.index, 0)]
    while stack:
        j, rest, taken = stack.pop()
        if not rest:
            out.add(full ^ taken)
        elif j < len(Q) and bounds[j][rest]:
            stack.append((j + 1, rest, taken))
            shorter = left[rest][Q[j] - 1]
            if shorter < rest:
                stack.append((j + 1, shorter, taken | 1 << j))
    return out


def subword_complex(system: CoxeterSystem, Q: Iterable[int], target: Element) -> SubwordComplex:
    """The subword complex of (Q, target), its facets derived from Q:
    ``SubwordComplex(system, Q, target)``."""
    return SubwordComplex(system, Q, target)


@dataclass(frozen=True)
class SubwordReport:
    """Ball/sphere verdict of a subword complex against its reduced
    Betti numbers over GF(2) and over Q (``profiles``, in that order);
    ``matches`` says per field whether the profile is the verdict's: one
    class in dimension ``top`` for a sphere, none for a ball."""

    kind: str
    top: int
    profiles: tuple[BettiProfile, ...]
    matches: tuple[bool, ...]


def certify_subword_complex(complex_: SubwordComplex) -> SubwordReport:
    """Classify ``complex_`` and check the verdict over GF(2) and Q; the
    sphere would have dimension len(Q) - l(target) - 1, and a cone has the
    trivial profiles with no face built.  A face count over the face budget
    raises :class:`BudgetExceededError` naming Q, the target and the group,
    before any face is built.  The same code as one instance of
    :func:`certify_subword_complexes`."""
    return _certify(complex_, {})


def certify_subword_complexes(system: CoxeterSystem, words: Iterable[Iterable[int]]
                              ) -> Iterator[tuple[tuple[int, ...], Element, SubwordReport]]:
    """``(Q, u, certify_subword_complex(subword_complex(system, Q, u)))``
    for every word Q of ``words`` and every u below its Demazure product,
    in word order and then table order.

    Each Q is folded once, and the fold gives the product, the u below it,
    every face count and cone test and every facet search.  Within one
    call, complexes with equal keys share one homology computation, exact
    over both fields: every cone shares one, with no facet searched and no
    face built, and other complexes on the same number of positions with
    the same facet masks are the same complex; nothing is kept once the
    call ends.  A face budget exceeded raises :class:`BudgetExceededError`
    at the first instance over it, naming its Q and u as the one-instance
    call does.

    >>> a2 = CoxeterSystem.type_a(2)
    >>> [(word_str(Q), str(u), r.kind)
    ...  for Q, u, r in certify_subword_complexes(a2, [(1,), (1, 1)])]
    [('1', 'e', 'ball'), ('1', '1', 'sphere'), ('1,1', 'e', 'ball'), ('1,1', '1', 'sphere')]
    """
    shared: dict = {}
    elements = system.elements()
    for Q in words:
        Q = system.check_word(Q)
        fold = _fold(system, Q)
        for x in np.flatnonzero(fold.bounds[0]).tolist():
            u = elements[x]
            yield Q, u, _certify(SubwordComplex._folded(system, Q, u, fold), shared)


def _certify(complex_: SubwordComplex, shared: dict) -> SubwordReport:
    """The report of ``complex_``.  Its face count is checked against the
    face budget before anything else, its key's facet search included, and
    a budget error names Q, the target and the group."""
    kind = complex_.classify()
    top = len(complex_.Q) - complex_.target.length - 1

    def subject() -> str:
        return f"Q={word_str(complex_.Q)}, target={complex_.target!r} in {complex_.system!r}"

    try:
        complex_.num_faces()
    except BudgetExceededError as exc:
        raise exc.about(subject()) from exc
    profiles = _shared_profiles(complex_, shared, subject)
    matches = tuple(b.matches_sphere(top) if kind == "sphere" else b.is_trivial()
                    for b in profiles)
    return SubwordReport(kind, top, profiles, matches)
