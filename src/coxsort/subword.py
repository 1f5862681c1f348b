"""Subword complexes.

Given a word Q in the generators and a group element w, the faces are
the sets of positions one can delete from Q so that the remaining
subword still contains a reduced word for w; equivalently the facets
are the complements of the position sets carrying reduced subwords
equal to w.  A :class:`SubwordComplex` is the simplicial complex on the
positions 1..len(Q), its facets derived from (Q, w), never given.
Positions are 1-based; inside the module a set of positions is an int
mask, bit j for position j + 1, and frozensets of positions are made
only where they leave it, ``facets`` once when first read.

Every such complex is homeomorphic to a ball or to a sphere, and the
sphere case occurs exactly when the Demazure product of Q equals w.

One right-to-left pass over Q (:func:`_spell`) counts the faces of every
Delta(Q, u) before any facet is listed or any face built.  The count
rests on a lemma of Knutson and Miller ("Subword complexes in Coxeter
groups", Adv. Math. 2004, section 3): F is a face of Delta(Q, u) exactly
when the Demazure product of Q minus F is >= u.  For a letter s and
elements x, u, the product s * x of the Demazure monoid, max(x, sx), is
>= u exactly when x >= min(u, su): if x >= u' = min(u, su), then
y = max(x, sx) >= u', and s is a left descent of y but not of u', so the
lifting property (Bjorner and Brenti, *Combinatorics of Coxeter Groups*,
Prop. 2.2.7) puts su' below y as well, and u is one of u', su';
conversely y >= u >= u', and if x = sy the lifting property gives
u' <= sy.  So with faces_j[u] the number of position sets P of Q[j:]
whose product is >= u, faces_n[u] = 1 for u = e and 0 otherwise, and
faces_j[u] = faces_(j+1)[u] + faces_(j+1)[min(u, su)] for s = Q[j];
faces_0[u] is the face count of Delta(Q, u), in Python
ints (a word of 64 letters has 2^64 faces for u = e).  The complex
reads its face count (``_count``) off this pass, so the face budget is
checked before any facet is listed.  The same pass counts, as exact[u],
the position sets of Q whose Demazure product is exactly u, the sets
that f of :mod:`coxsort.fibermap` sends to u, with no 2^len(Q) table.

One walk over Q (:func:`_spellings`) lists the complements of the
position sets that spell u as a reduced word, the facets of Delta(Q, u),
or as a Demazure product, its interior faces.  For s = Q[j] and x the
product of the positions kept after j, s * x = t exactly when s is a left
descent of t and x is t or st: s * x = max(x, sx) has s as a left descent,
and then s * x = t forces {x, sx} = {t, st}.  A reduced word takes x = st.

The same pass gives the homotopy type of every Delta(Q, u), with no face
built, by vertex decomposition (Knutson and Miller, Thm 2.5 and section
3).  Take s = Q[0], Q' = Q[1:] and the first position p.  A face F
holding p is p joined to a face of Delta(Q', u), since Q minus F is Q'
minus F - {p}: the link of p is lk = Delta(Q', u).  A face F without p
leaves s * x, x the product of Q' minus F, which is >= u exactly when
x >= min(u, su) by the lemma above: the deletion of p is
del = Delta(Q', min(u, su)).  If su > u, del = lk and Delta = p * lk is a
cone, contractible unless lk is void.  If su < u, every subword of Q'
whose product is >= u has product >= su, so lk is a subcomplex of del
(the subword property) and Delta = del glued to the cone p * lk along lk.  The gluing lemma (Hatcher, *Algebraic
Topology*, Prop. 0.17): X is homotopy equivalent to X / A for a
contractible subcomplex A of X.  So if del is contractible, Delta ~
Delta / del = (p * lk) / lk, the suspension of lk (of S^-1 = {empty face},
the empty space, two points: S^0); if lk is contractible, Delta ~ Delta /
(p * lk) = del / lk ~ del; and if lk is void, Delta = del.  By induction
on Q, Delta(Q, u) is S^(len(Q) - l(u) - 1) when u is the product of Q,
contractible when u is below it and void otherwise, so lk and del are
never both spheres: that would need the product of Q' to be u and su.
:func:`homotopy_types` is the list of these types that the fold keeps,
and every certificate reads its Betti numbers off it: S^d has one class
in dimension d over every field, a contractible complex none.  A
certificate builds no face, so no face budget applies to it; the budget
bounds only ``num_faces`` and the listings (``faces``, ``facets``,
``interior_faces``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from . import homology
from .coxeter import CoxeterSystem, Element, word_str
from .errors import BudgetExceededError, VoidComplexError
from .hecke import _suffix_demazure, bruhat_row
from .homology import BettiProfile, SimplicialComplex, _face_budget_error

__all__ = ["SubwordComplex", "subword_complex", "SubwordReport", "certify_subword_complex",
           "certify_subword_complexes", "homotopy_types", "VOID", "CONTRACTIBLE"]

# the homotopy types of :func:`homotopy_types`; an int d >= -1 is the sphere S^d
VOID = -3
CONTRACTIBLE = -2


class SubwordComplex(SimplicialComplex):
    """The subword complex Delta(Q, target) on the positions 1..len(Q) of
    Q, its facets derived from (Q, target) as masks (see the module
    docstring); Q is folded once, for the void test, the face count,
    ``classify``, the homotopy type and the walks listing the facets and
    the interior faces; its cone test is the base rule, over the facets
    listed.  Raises VoidComplexError when Q carries no reduced subword for
    the target.  For the identity target the complex is the full simplex
    on all positions, for the empty word the empty complex.  The face
    budget is checked on the count, so a complex over it raises before any
    face is built, and on the facet listing."""

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
        # the target is below the product of Q, so has a face count, exactly
        # when Q carries a reduced subword for it
        t = target.index
        if not fold.faces[t]:
            raise VoidComplexError(
                f"the word {word_str(Q)} carries no reduced subword equal to {target}")
        self.vertices = tuple(range(1, len(Q) + 1))
        self._levels = None
        self.system = system
        self.Q = Q
        self.target = target
        self._fold = fold

    @cached_property
    def _facet_masks(self) -> list[int]:
        """The facets as masks, listed by :func:`_spellings` when first read:
        the complements of the reduced subwords for the target, all of one
        size, so none contains another.  A listing past the face budget
        raises, naming Q, the target and the group, and keeps nothing."""
        try:
            return _spellings(self.system, self.Q, self.target.index, self._fold.bounds, False)
        except BudgetExceededError as exc:
            raise exc.about(_subject(self.system, self.Q, self.target.index)) from exc

    def _count(self, budget: int) -> int:
        """The number of faces, read off the fold's count: none is built."""
        return self._fold.faces[self.target.index]

    def classify(self) -> str:
        """"sphere" when the Demazure product of Q equals the target,
        "ball" otherwise."""
        return _kind(self._fold, self.target.index)

    def interior_faces(self) -> frozenset[frozenset[int]]:
        """Faces whose complementary subword has Demazure product equal to
        the target, listed once counted against the face budget: every face
        of a sphere, and the faces off the boundary sphere of a ball."""
        self.num_faces()
        return frozenset(map(_positions, _spellings(
            self.system, self.Q, self.target.index, self._fold.bounds, True)))

    def boundary_faces(self) -> frozenset[frozenset[int]]:
        return frozenset(self.faces() - self.interior_faces())

    def __repr__(self) -> str:
        # the face count is the fold's; the facets would be listed
        return (f"SubwordComplex(Q={self.Q}, target={self.target!r}, "
                f"faces={self._fold.faces[self.target.index]})")


def _positions(mask: int) -> frozenset[int]:
    """The 1-based position set of a mask: bit j is position j + 1."""
    return frozenset(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)


def _subject(system: CoxeterSystem, Q: tuple[int, ...], x: int) -> str:
    """How an error about Delta(Q, x) names it: Q, the target and the group."""
    return f"Q={word_str(Q)}, target={system.elements()[x]!r} in {system!r}"


class _Fold:
    """The one fold of a checked word Q, by table row: ``suffix[j]``, the
    row of the Demazure product of Q[j:]; ``faces``, ``exact`` and
    ``types``, the three lists of :func:`_spell`; and ``bounds[j]``, the
    Bruhat row of ``suffix[j]`` as a list (readers take single entries),
    read once per distinct row when a walk (:func:`_spellings`) first asks.
    ``suffix[0]`` is the product of Q, and x is below it exactly when
    ``faces[x]`` is nonzero: the empty set is a face of Delta(Q, x) iff the
    product of Q is >= x, and when it is not, no set is, since the product
    of a subword of Q is below that of Q (the subword property).  So one
    fold serves the verdict, the targets, the counts, the homotopy types
    and every walk."""

    def __init__(self, system: CoxeterSystem, suffix: list[int], faces: list[int],
                 exact: list[int], types: list[int]):
        self.system, self.suffix = system, suffix
        self.faces, self.exact, self.types = faces, exact, types

    @cached_property
    def bounds(self) -> list:
        elements = self.system.elements()
        rows = {x: bruhat_row(elements[x]).tolist() for x in set(self.suffix)}
        return [rows[x] for x in self.suffix]


def _fold(system: CoxeterSystem, Q: tuple[int, ...]) -> _Fold:
    """The fold of a checked word Q; its Bruhat rows wait for a walk."""
    suffix = _suffix_demazure(system, Q)
    return _Fold(system, suffix, *_spell(system, Q, suffix))


def _spell(system: CoxeterSystem, Q: tuple[int, ...],
           suffix: list[int]) -> tuple[list[int], list[int], list[int]]:
    """``(faces, exact, types)`` for every table row x, from one
    right-to-left pass over Q (see the module docstring): ``faces[x]``, the
    number of faces of Delta(Q, x), ``exact[x]``, the number of position
    sets of Q whose Demazure product is exactly x, both in Python ints, and
    ``types[x]``, the homotopy type of Delta(Q, x) (:func:`homotopy_types`);
    they are 0, 0 and VOID for the rows not below the product of Q.  Rows
    are sorted by length, so letter j updates in place the rows up to
    ``suffix[j]``, from the top down, and the row sx < x that it reads
    still holds the value for Q[j+1:].  For a row x with sx < x, the
    deletion of position j, Delta(Q[j+1:], sx), is not void exactly when sx
    is below the product of Q[j+1:], that is when it has a face count
    there.  Raises RuntimeError, naming Q and x, if the link and the
    deletion are both spheres.

    The exact counts: a position set of Q[j:] without j has the product y
    of its positions in Q[j+1:], and one with j has s * y, s = Q[j].  Since
    s * y = max(y, sy) has s as a left descent, and then s * y = x forces
    {y, sy} = {x, sx}, s * y = x exactly when s is a left descent of x and
    y is x or sx.  So exact_j[x] = exact_(j+1)[x] when sx > x, and
    exact_j[x] = 2 exact_(j+1)[x] + exact_(j+1)[sx] when sx < x.  Where
    sx < x has no face count the pass skips x, and both counts are 0:
    exact[sx] <= faces[sx] = 0, and exact[x] <= faces[x] <= faces[sx],
    since a product >= x is >= sx."""
    left = system._left
    faces = [1] + [0] * (len(left) - 1)  # row 0 is e, the product of no letter
    exact = faces[:]  # the empty set, the one position set of no letter
    types = [-1] + [VOID] * (len(left) - 1)  # Delta((), e) = {frozenset()}, S^-1
    for j in range(len(Q) - 1, -1, -1):
        s = Q[j] - 1
        for x in range(suffix[j], -1, -1):
            sx = left[x][s]
            if sx > x:  # a cone with apex j over the link, or void
                faces[x] += faces[x]
                if faces[x]:
                    types[x] = CONTRACTIBLE
            elif faces[sx]:
                faces[x] += faces[sx]
                exact[x] += exact[x] + exact[sx]
                link, deletion = types[x], types[sx]
                if link == VOID or link == CONTRACTIBLE:  # the deletion, or ~ it
                    types[x] = deletion
                elif deletion == CONTRACTIBLE:  # the suspension of the link
                    types[x] = link + 1
                else:
                    raise RuntimeError(
                        f"the link and the deletion of position {j + 1} are both spheres "
                        f"({_subject(system, Q, x)})")
    return faces, exact, types


def homotopy_types(system: CoxeterSystem, Q: Iterable[int]) -> list[int]:
    """The homotopy type of Delta(Q, x) for every table row x, from one
    right-to-left pass over Q by vertex decomposition (see the module
    docstring): VOID, CONTRACTIBLE, or an int d >= -1 for the sphere S^d
    (S^-1 is the empty complex {frozenset()}).  No face is built, so no
    face budget applies.  The list is the one the fold of Q keeps, from
    which every subword certificate reads its Betti numbers.

    >>> b2 = CoxeterSystem.type_b(2)
    >>> w0 = b2.longest_element()
    >>> types = homotopy_types(b2, (1, 2, 1, 2, 1))
    >>> types[w0.index], types[b2.identity.index] == CONTRACTIBLE
    (0, True)
    >>> homotopy_types(b2, (1, 2))[w0.index] == VOID
    True
    """
    Q = system.check_word(Q)
    return _spell(system, Q, _suffix_demazure(system, Q))[2]


def _spellings(system: CoxeterSystem, Q: tuple[int, ...], target: int, bounds: list,
               absorb: bool) -> list[int]:
    """The masks F whose complement in Q spells the table row ``target``,
    as a reduced word or, with ``absorb``, as a Demazure product; depth
    first over (j, t, F), t the row that Q[j:] must spell, pushed only when
    t is below the product of Q[j:] (``bounds[j]``), so each ends in an F.
    Every mask is a face, so listing more than the face budget, read at the
    call, raises the face-budget error."""
    left, out, budget = system._left, [], homology.DEFAULT_FACE_BUDGET
    stack = [(0, target, 0)] if bounds[0][target] else []
    while stack:
        j, t, F = stack.pop()
        if j == len(Q):
            out.append(F)
            if len(out) > budget:
                raise _face_budget_error(budget, len(out))
            continue
        below, st = bounds[j + 1], left[t][Q[j] - 1]
        if below[t]:  # position j joins F
            stack.append((j + 1, t, F | 1 << j))
        if st < t and below[st]:  # kept, x = st
            stack.append((j + 1, st, F))
        if st < t and absorb and below[t]:  # kept and absorbed, x = t
            stack.append((j + 1, t, F))
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
    sphere would have dimension len(Q) - l(target) - 1.  The Betti numbers
    are read off the homotopy type of :func:`homotopy_types`, with no face
    built, so no face budget applies.  The same code as one instance of
    :func:`certify_subword_complexes`."""
    return _certify(complex_.system, complex_.Q, complex_.target.index, complex_._fold, {})


def certify_subword_complexes(system: CoxeterSystem, words: Iterable[Iterable[int]]
                              ) -> Iterator[tuple[tuple[int, ...], Element, SubwordReport]]:
    """``(Q, u, certify_subword_complex(subword_complex(system, Q, u)))``
    for every word Q of ``words`` and every u below its Demazure product,
    in word order and then table order.

    Each Q is folded once, and the fold gives the product, the u below it,
    every face count and every homotopy type, so no complex is built and
    no face budget applies.  Within one call, instances with the same
    verdict, top dimension and homotopy type share one report; nothing is
    kept once the call ends.

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
        for x, faces in enumerate(fold.faces):
            if faces:
                yield Q, elements[x], _certify(system, Q, x, fold, shared)


def _kind(fold: _Fold, x: int) -> str:
    """The verdict on Delta(Q, x): "sphere" when x is the Demazure product
    of Q, "ball" otherwise."""
    return "sphere" if fold.suffix[0] == x else "ball"


def _certify(system: CoxeterSystem, Q: tuple[int, ...], x: int, fold: _Fold,
             shared: dict) -> SubwordReport:
    """The report of Delta(Q, x), x a row below the product of Q, read off
    the fold.  Reports with equal verdict, top dimension and homotopy type
    are one object in ``shared``."""
    kind, top, type_ = _kind(fold, x), len(Q) - len(system._words[x]) - 1, fold.types[x]
    report = shared.get((kind, top, type_))
    if report is None:
        profiles = _type_profiles(type_)
        matches = tuple(b.matches_sphere(top) if kind == "sphere" else b.is_trivial()
                        for b in profiles)
        report = shared[kind, top, type_] = SubwordReport(kind, top, profiles, matches)
    return report


def _type_profiles(type_: int) -> tuple[BettiProfile, BettiProfile]:
    """The reduced Betti numbers over GF(2) and over Q of a complex of
    homotopy type ``type_``: one class in dimension d for the sphere S^d,
    none for a contractible complex."""
    counts = () if type_ == CONTRACTIBLE else ((type_, 1),)
    return BettiProfile(2, counts), BettiProfile(0, counts)
