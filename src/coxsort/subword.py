"""Subword complexes.

Given a word Q in the generators and a group element w, the faces are
the sets of positions one can delete from Q so that the remaining
subword still contains a reduced word for w; equivalently the facets
are the complements of the position sets carrying reduced subwords
equal to w.  A :class:`SubwordComplex` is the simplicial complex on the
positions 1..len(Q), its facets derived from (Q, w), never given.
Positions are 1-based; inside the facet search and the complex a set of
positions is an int mask, bit j for position j + 1.  Masks go end to end:
the facet search returns them, the complex keeps them through the facet
setup of :class:`SimplicialComplex`, and faces and homology run on them.
Frozensets of positions are made only where they leave the module,
``facets`` once when first read.

Every such complex is homeomorphic to a ball or to a sphere, and the
sphere case occurs exactly when the Demazure product of Q equals w.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .coxeter import CoxeterSystem, Element, word_str
from .errors import VoidComplexError
from .hecke import _suffix_demazure, bruhat_row
from .homology import BettiProfile, SimplicialComplex, _shared_profiles

__all__ = ["SubwordComplex", "subword_complex", "SubwordReport", "certify_subword_complex",
           "certify_subword_complexes"]


class SubwordComplex(SimplicialComplex):
    """The subword complex Delta(Q, target) on the positions 1..len(Q) of
    Q, its facets derived from (Q, target) as masks (see the module
    docstring); Q is folded once, for the facet search and ``classify``.
    Raises VoidComplexError when Q carries no reduced subword for the
    target.  For the identity target the complex is the full simplex on
    all positions, for the empty word the empty complex.
    """

    def __init__(self, system: CoxeterSystem, Q: Iterable[int], target: Element):
        Q = system.check_word(Q)
        if target.system != system:
            raise ValueError("target element belongs to a different system")
        self._setup(system, Q, target, *_fold(system, Q))

    @classmethod
    def _folded(cls, system: CoxeterSystem, Q: tuple[int, ...], target: Element,
                suffix: list[int], bounds: list) -> "SubwordComplex":
        """The complex of a checked word Q and a target of the same system,
        from the fold :func:`_fold` already made of Q."""
        complex_ = cls.__new__(cls)
        complex_._setup(system, Q, target, suffix, bounds)
        return complex_

    def _setup(self, system: CoxeterSystem, Q: tuple[int, ...], target: Element,
               suffix: list[int], bounds: list) -> None:
        facets = _facets_by_backtrack(system, Q, target, bounds)
        if not facets:
            raise VoidComplexError(
                f"the word {word_str(Q)} carries no reduced subword equal to {target}")
        self._init_facets(tuple(range(1, len(Q) + 1)), facets)
        self.system = system
        self.Q = Q
        self.target = target
        self._product = suffix[0]  # table row of the Demazure product of Q

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


def _fold(system: CoxeterSystem, Q: tuple[int, ...]) -> tuple[list[int], list]:
    """The one fold of a checked word Q: ``suffix[j]``, the table row of the
    Demazure product of Q[j:], and ``bounds[j]``, its Bruhat row, read once
    per distinct row.  ``suffix[0]`` is the product of Q and ``bounds[0]``
    the elements below it, so one fold serves the verdict, the targets and
    every facet search."""
    suffix = _suffix_demazure(system, Q)
    elements = system.elements()
    rows = {x: bruhat_row(elements[x]) for x in set(suffix)}
    return suffix, [rows[x] for x in suffix]


def _facets_by_backtrack(system: CoxeterSystem, Q: tuple[int, ...], target: Element,
                         bounds: list) -> set[int]:
    """The facets of Delta(Q, target) as masks: the complements of the
    position sets spelling a reduced word for the target; ``bounds`` is
    the second half of :func:`_fold`."""
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
    sphere would have dimension len(Q) - l(target) - 1.  A face budget
    exceeded on the way raises :class:`BudgetExceededError` naming Q, the
    target and the group.  The same code as one instance of
    :func:`certify_subword_complexes`."""
    return _certify(complex_, {})


def certify_subword_complexes(system: CoxeterSystem, words: Iterable[Iterable[int]]
                              ) -> Iterator[tuple[tuple[int, ...], Element, SubwordReport]]:
    """``(Q, u, certify_subword_complex(subword_complex(system, Q, u)))``
    for every word Q of ``words`` and every u below its Demazure product,
    in word order and then table order.

    Each Q is folded once, and the fold gives the product, the u below it
    and every facet search.  Complexes on the same number of positions with
    the same facet masks are the same complex, so within one call they
    share one homology computation, exact over both fields; nothing is kept
    once the call ends.  A face budget exceeded raises
    :class:`BudgetExceededError` at the first instance over it, naming its
    Q and u as the one-instance call does.

    >>> a2 = CoxeterSystem.type_a(2)
    >>> [(word_str(Q), str(u), r.kind)
    ...  for Q, u, r in certify_subword_complexes(a2, [(1,), (1, 1)])]
    [('1', 'e', 'ball'), ('1', '1', 'sphere'), ('1,1', 'e', 'ball'), ('1,1', '1', 'sphere')]
    """
    shared: dict = {}
    elements = system.elements()
    for Q in words:
        Q = system.check_word(Q)
        suffix, bounds = _fold(system, Q)
        for x in np.flatnonzero(bounds[0]).tolist():
            u = elements[x]
            yield Q, u, _certify(SubwordComplex._folded(system, Q, u, suffix, bounds), shared)


def _certify(complex_: SubwordComplex, shared: dict) -> SubwordReport:
    """The report of ``complex_``, its homology shared through ``shared``
    (see :func:`homology._shared_profiles`)."""
    kind = complex_.classify()
    top = len(complex_.Q) - complex_.target.length - 1
    profiles = _shared_profiles(complex_, shared, lambda: (
        f"Q={word_str(complex_.Q)}, target={complex_.target!r} in {complex_.system!r}"))
    matches = tuple(b.matches_sphere(top) if kind == "sphere" else b.is_trivial()
                    for b in profiles)
    return SubwordReport(kind, top, profiles, matches)
