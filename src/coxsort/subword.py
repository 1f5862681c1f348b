"""Subword complexes.

Given a word Q in the generators and a group element w, the faces are
the sets of positions one can delete from Q so that the remaining
subword still contains a reduced word for w; equivalently the facets
are the complements of the position sets carrying reduced subwords
equal to w.  Position indices are 1-based; inside the facet search a set
of positions is an int mask, bit j for position j + 1.

Every such complex is homeomorphic to a ball or to a sphere, and the
sphere case occurs exactly when the Demazure product of Q equals w.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .coxeter import CoxeterSystem, Element
from .errors import VoidComplexError
from .hecke import _suffix_demazure, bruhat_row, demazure
from .homology import BettiProfile, SimplicialComplex, _profiles

__all__ = ["SubwordComplex", "subword_complex", "SubwordReport", "certify_subword_complex"]


class SubwordComplex:
    """Faces-of-deletable-positions complex for (Q, target).

    ``facets`` are frozensets of 1-based positions of Q.  Vertices of
    the underlying simplicial complex are all positions 1..len(Q); a
    position lying in every facet is a cone point and certifies
    contractibility.
    """

    def __init__(self, system: CoxeterSystem, Q: tuple[int, ...], target: Element,
                 facets: Iterable[frozenset[int]]):
        self.system = system
        self.Q = tuple(Q)
        self.target = target
        self.facets = frozenset(frozenset(f) for f in facets)
        if not self.facets:
            raise VoidComplexError(
                f"the word {Q} carries no reduced subword equal to {target}")
        self._complex: SimplicialComplex | None = None
        self._product: int | None = None  # table row of the Demazure product of Q
        self._interior: frozenset[frozenset[int]] | None = None

    def as_simplicial_complex(self) -> SimplicialComplex:
        if self._complex is None:
            self._complex = SimplicialComplex(range(1, len(self.Q) + 1), self.facets)
        return self._complex

    def faces(self) -> set[frozenset[int]]:
        return self.as_simplicial_complex().faces()

    @property
    def dim(self) -> int:
        return self.as_simplicial_complex().dim

    def classify(self) -> str:
        """"sphere" when the Demazure product of Q equals the target,
        "ball" otherwise."""
        if self._product is None:
            self._product = _suffix_demazure(self.system, self.Q)[0]
        return "sphere" if self._product == self.target.index else "ball"

    def _subword_at_complement(self, face: frozenset[int]) -> tuple[int, ...]:
        return tuple(s for j, s in enumerate(self.Q, start=1) if j not in face)

    def interior_faces(self) -> frozenset[frozenset[int]]:
        """Faces whose complementary subword still has Demazure product
        equal to the target.  For a sphere every face qualifies; for a
        ball these are the faces off the boundary sphere."""
        if self._interior is None:
            self._interior = frozenset(
                F for F in self.faces()
                if demazure(self.system, self._subword_at_complement(F)) == self.target)
        return self._interior

    def boundary_faces(self) -> frozenset[frozenset[int]]:
        return frozenset(self.faces() - self.interior_faces())

    def __repr__(self) -> str:
        return (f"SubwordComplex(Q={self.Q}, target={self.target!r}, "
                f"facets={len(self.facets)})")


def _positions(mask: int) -> frozenset[int]:
    """The 1-based position set of a mask: bit j is position j + 1."""
    return frozenset(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)


def _facets_by_backtrack(system: CoxeterSystem, Q: tuple[int, ...], target: Element, *,
                         suffix: list[int] | None = None) -> set[frozenset[int]]:
    # depth first over (position j, row still to spell, mask of positions
    # taken); suffix[j], the row of the Demazure product of Q[j:], bounds
    # what the positions from j on can still spell
    if suffix is None:
        suffix = _suffix_demazure(system, Q)
    elements, left = system.elements(), system._left
    full = (1 << len(Q)) - 1
    out: set[frozenset[int]] = set()
    stack = [(0, target.index, 0)]
    while stack:
        j, rest, taken = stack.pop()
        if not rest:
            out.add(_positions(full ^ taken))
        elif j < len(Q) and bruhat_row(elements[suffix[j]])[rest]:
            stack.append((j + 1, rest, taken))
            shorter = left[rest][Q[j] - 1]
            if shorter < rest:
                stack.append((j + 1, shorter, taken | 1 << j))
    return out


def subword_complex(system: CoxeterSystem, Q: Iterable[int], target: Element) -> SubwordComplex:
    """Build the subword complex of (Q, target).

    Raises VoidComplexError when Q carries no reduced subword for the
    target.  When the target is the identity the complex is the full
    simplex on all positions (the boundary of nothing to delete), which
    for the empty word degenerates to the empty complex.  Q is folded
    once and ``classify`` reads that fold, as the facet search does; the
    search prunes a target not below the whole product at its root, so a
    void complex fails in the constructor.
    """
    Q = system.check_word(Q)
    if target.system != system:
        raise ValueError("target element belongs to a different system")
    suffix = _suffix_demazure(system, Q)
    complex_ = SubwordComplex(system, Q, target,
                              _facets_by_backtrack(system, Q, target, suffix=suffix))
    complex_._product = suffix[0]
    return complex_


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
    sphere would have dimension len(Q) - l(target) - 1."""
    kind = complex_.classify()
    top = len(complex_.Q) - complex_.target.length - 1
    K = complex_.as_simplicial_complex()
    profiles = _profiles(K)
    matches = tuple(b.matches_sphere(top) if kind == "sphere" else b.is_trivial()
                    for b in profiles)
    return SubwordReport(kind, top, profiles, matches)
