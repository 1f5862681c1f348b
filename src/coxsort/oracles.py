"""Independent reference models used to cross-check the group tables.

A :class:`CayleyModel` is a concrete finite group given by explicit
generator states and a composition function.  Lengths come from a
breadth-first search of the Cayley graph, so nothing here touches the
multiplication tables of :mod:`coxsort.coxeter`; agreement between the
two is a genuine consistency check, not a tautology.

The models provided are the permutation model of type A (one-line
permutations under composition), the signed-permutation model of type B,
the even-signed-permutation model of type D and an affine model of the
dihedral groups I2(m).  :class:`BraidRewriting` decides equality of words
of any Coxeter matrix by nil and braid moves alone, the subword scan tries
every position set, :func:`bruhat_leq_walk` compares two elements by
stripping left descents, :func:`element_poset` and
:func:`inclusion_poset_bruteforce` order elements and sets by a pairwise
scan, and :func:`faces_bruteforce` lists the faces of a complex as tuples
from every subset of every facet; all are slow references for tests.
:func:`contractibility_evidence` (a cone vertex, else vanishing homology)
is the reference the fiber certificates of :mod:`coxsort.fibermap` are
tested against.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .homology import BettiProfile, SimplicialComplex, _profiles
from .posets import Poset

__all__ = [
    "CayleyModel",
    "BraidRewriting",
    "permutation_model",
    "signed_permutation_model",
    "even_signed_permutation_model",
    "dihedral_model",
    "canonical_word_bruteforce",
    "bruhat_leq_bruteforce",
    "bruhat_leq_walk",
    "sorting_subword_bruteforce",
    "contains_reduced_word_bruteforce",
    "subword_facets_bruteforce",
    "element_poset",
    "inclusion_poset_bruteforce",
    "faces_bruteforce",
    "cone_vertex",
    "ContractibilityEvidence",
    "contractibility_evidence",
]

Word = tuple[int, ...]


class CayleyModel:
    """A finite group with 1-based generators and BFS word lengths."""

    def __init__(self, generators: Sequence, compose: Callable, identity):
        self.generators = tuple(generators)
        self.compose = compose
        self.identity = identity
        lengths = {identity: 0}
        frontier = [identity]
        while frontier:
            nxt = []
            for g in frontier:
                for gen in self.generators:
                    h = compose(g, gen)
                    if h not in lengths:
                        lengths[h] = lengths[g] + 1
                        nxt.append(h)
            frontier = nxt
        self.lengths = lengths

    @property
    def rank(self) -> int:
        return len(self.generators)

    def order(self) -> int:
        return len(self.lengths)

    def elements(self) -> list:
        return sorted(self.lengths, key=lambda g: (self.lengths[g], g))

    def product(self, word: Sequence[int]):
        g = self.identity
        for s in word:
            g = self.compose(g, self.generators[s - 1])
        return g

    def length_of_word(self, word: Sequence[int]) -> int:
        return self.lengths[self.product(word)]

    def is_reduced(self, word: Sequence[int]) -> bool:
        return self.length_of_word(word) == len(word)

    def left_mult(self, s: int, g):
        return self.compose(self.generators[s - 1], g)

    def lexmin_word(self, g) -> tuple[int, ...]:
        """Greedy smallest left descent; yields the lex-minimal reduced word."""
        word = []
        while g != self.identity:
            for s in range(1, self.rank + 1):
                h = self.left_mult(s, g)
                if self.lengths[h] < self.lengths[g]:
                    word.append(s)
                    g = h
                    break
        return tuple(word)

    def artin_order(self, i: int, j: int) -> int:
        """Order of the product of generators i and j (sanity check vs m(i,j))."""
        g = self.compose(self.generators[i - 1], self.generators[j - 1])
        h = g
        n = 1
        while h != self.identity:
            h = self.compose(h, g)
            n += 1
        return n


def permutation_model(rank: int) -> CayleyModel:
    """Type A_rank as one-line permutations of 0..rank."""
    n = rank + 1
    identity = tuple(range(n))

    def compose(p, q):
        return tuple(p[q[i]] for i in range(n))

    gens = []
    for i in range(rank):
        g = list(identity)
        g[i], g[i + 1] = g[i + 1], g[i]
        gens.append(tuple(g))
    return CayleyModel(gens, compose, identity)


def signed_permutation_model(rank: int) -> CayleyModel:
    """Type B_rank as signed permutations in window notation.

    Generators 1..rank-1 swap adjacent window entries; generator ``rank``
    negates the last entry, matching a chain diagram whose double bond
    sits between the last two nodes.
    """
    n = rank
    identity = tuple(range(1, n + 1))

    def compose(u, v):
        out = []
        for i in range(n):
            vi = v[i]
            out.append(u[vi - 1] if vi > 0 else -u[-vi - 1])
        return tuple(out)

    gens = []
    for i in range(rank - 1):
        g = list(identity)
        g[i], g[i + 1] = g[i + 1], g[i]
        gens.append(tuple(g))
    last = list(identity)
    last[-1] = -last[-1]
    gens.append(tuple(last))
    return CayleyModel(gens, compose, identity)


def even_signed_permutation_model(rank: int) -> CayleyModel:
    """Type D_rank as the even signed permutations in window notation, in
    the generator order of ``CoxeterSystem.type_d``: generator 1 swaps the
    first two window entries, generator 2 swaps and negates them, and
    generator k >= 3 swaps entries k - 1 and k, so 1 and 2 both braid with
    3 and the rest form a chain."""
    if rank < 2:
        raise ValueError("type D needs rank >= 2")
    signed = signed_permutation_model(rank)

    def swap(i: int, sign: int) -> tuple:
        g = list(signed.identity)
        g[i - 1], g[i] = sign * g[i], sign * g[i - 1]
        return tuple(g)

    gens = [swap(1, 1), swap(1, -1)] + [swap(k - 1, 1) for k in range(3, rank + 1)]
    return CayleyModel(gens, signed.compose, signed.identity)


def dihedral_model(m: int) -> CayleyModel:
    """I2(m) as the maps x -> a*x + b of Z/m with a = +-1, stored as pairs
    (a, b) and composed as maps, so that m = 2 gives the Klein four-group;
    the generators are the reflections x -> -x and x -> 1 - x, whose
    product is a rotation by one step, of order m."""
    if m < 2:
        raise ValueError("a dihedral group needs m >= 2")

    def compose(p, q):
        return p[0] * q[0], (p[0] * q[1] + p[1]) % m

    return CayleyModel(((-1, 0), (-1, 1)), compose, (1, 0))


def canonical_word_bruteforce(model: CayleyModel, word: Sequence[int]) -> tuple[int, ...]:
    return model.lexmin_word(model.product(word))


def bruhat_leq_bruteforce(model: CayleyModel, u_word, v_word) -> bool:
    """Subword test by exhaustive scan over one reduced word of v."""
    u = model.product(u_word)
    v = model.product(v_word)
    vword = model.lexmin_word(v)
    k = model.lengths[u]
    if k > len(vword):
        return False
    return any(model.product(sub) == u for sub in itertools.combinations(vword, k))


def bruhat_leq_walk(u, v) -> bool:
    """Bruhat comparison of two table elements without down-set rows: walk
    the canonical word of ``v`` from the left, stripping each letter that
    is a left descent of what remains of ``u``."""
    if u.length > v.length:
        return False
    x = u
    for s in v.word:
        if x.is_identity:
            return True
        if x.is_left_descent(s):
            x = x.mult_left(s)
    return x.is_identity


def contains_reduced_word_bruteforce(model: CayleyModel, Q, u_word) -> bool:
    u = model.product(u_word)
    k = model.lengths[u]
    if k > len(Q):
        return False
    return any(model.product(sub) == u for sub in itertools.combinations(Q, k))


def sorting_subword_bruteforce(model: CayleyModel, Q, u_word):
    """First position subset, in lexicographic order, whose subword is a
    reduced word for u; None when no subset works."""
    u = model.product(u_word)
    k = model.lengths[u]
    if k > len(Q):
        return None
    for subset in itertools.combinations(range(1, len(Q) + 1), k):
        if model.product(tuple(Q[p - 1] for p in subset)) == u:
            return subset
    return None


def subword_facets_bruteforce(system, Q: Sequence[int], target) -> set[frozenset[int]]:
    """Facets of the subword complex of (Q, target) by trying every set
    of ``target.length`` positions of Q."""
    positions = range(1, len(Q) + 1)
    out = set()
    for combo in itertools.combinations(positions, target.length):
        if system.element(tuple(Q[j - 1] for j in combo)) == target:
            out.add(frozenset(positions) - frozenset(combo))
    return out


def element_poset(elements: Iterable, relation: Callable) -> Poset:
    """Poset on group elements, ground sorted by (length, word), with the
    relation asked pair by pair."""
    ground = tuple(sorted(set(elements)))
    return Poset(ground, [[relation(a, b) for b in ground] for a in ground])


def inclusion_poset_bruteforce(sets: Iterable[Iterable]) -> Poset:
    """Finite sets under inclusion, compared pair by pair; ground sorted
    by (size, sorted members)."""
    ground = sorted({frozenset(s) for s in sets}, key=lambda s: (len(s), sorted(s)))
    return Poset(ground, [[a <= b for b in ground] for a in ground])


def faces_bruteforce(K: SimplicialComplex) -> dict[int, list[tuple[int, ...]]]:
    """Faces of ``K`` by dimension, as sorted tuples of vertex indices,
    from every subset of every facet; each list is sorted."""
    seen: set[tuple[int, ...]] = set()
    for facet in K.facets:
        idx = tuple(sorted(K.vertices.index(v) for v in facet))
        for k in range(len(idx) + 1):
            seen.update(itertools.combinations(idx, k))
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for f in sorted(seen):
        by_dim.setdefault(len(f) - 1, []).append(f)
    return by_dim


def cone_vertex(K: SimplicialComplex):
    """The first vertex of ``K`` lying in every facet, or None.  Such a
    vertex proves the complex contractible."""
    common = frozenset.intersection(*K.facets)
    return next((v for v in K.vertices if v in common), None)


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


def contractibility_evidence(K: SimplicialComplex) -> ContractibilityEvidence:
    """A cone vertex of ``K``, else both reduced Betti profiles of ``K``."""
    if cone_vertex(K) is not None:
        return ContractibilityEvidence(True, "cone")
    profiles = _profiles(K)
    if all(p.is_trivial() for p in profiles):
        return ContractibilityEvidence(True, "homology", profiles)
    return ContractibilityEvidence(False, None, profiles)


def _nil_sweep(word: Word) -> Word:
    # One stack pass deletes adjacent equal pairs, including pairs exposed
    # by earlier deletions.
    out: list[int] = []
    for s in word:
        if out and out[-1] == s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def _adjacent_pair(word: Word) -> int:
    for i in range(len(word) - 1):
        if word[i] == word[i + 1]:
            return i
    return -1


class BraidRewriting:
    """Words of a Coxeter matrix, compared by rewriting alone.

    * a *nil move* deletes an adjacent equal pair of letters;
    * a *braid move* rewrites an alternating run ``s_i s_j s_i ...`` of
      length ``m(i, j)`` as the run ``s_j s_i s_j ...`` of the same length.

    By the word property these moves decide equality, and the braid
    closure of a reduced word is the set of all reduced words of its
    element.  There is no budget: the closure of a long element can be
    very large, so this is for small groups only.
    """

    def __init__(self, matrix: Iterable[Iterable[int]]):
        self.matrix = tuple(tuple(int(x) for x in row) for row in matrix)
        self._canon: dict[Word, Word] = {}
        self._closures: dict[Word, frozenset[Word]] = {}

    def _braid_neighbors(self, word: Word) -> list[Word]:
        matrix = self.matrix
        out: list[Word] = []
        L = len(word)
        for i in range(L - 1):
            a = word[i]
            b = word[i + 1]
            if a == b:
                continue
            m = matrix[a - 1][b - 1]
            end = i + m
            if end > L:
                continue
            if all(word[i + k] == (a if k % 2 == 0 else b) for k in range(2, m)):
                run = tuple((b if k % 2 == 0 else a) for k in range(m))
                out.append(word[:i] + run + word[end:])
        return out

    def canonical_word(self, word: Iterable[int]) -> Word:
        """The lexicographically minimal reduced word of the element spelt
        by ``word``.

        Nil moves strip adjacent equal pairs; between deletions a breadth
        first search over braid moves either exposes another pair or, by
        exhausting the braid closure, proves the word reduced.  The
        minimum of the closure is then the canonical form.
        """
        current = _nil_sweep(tuple(word))
        pending = [current]
        while True:
            canon = self._canon.get(current)
            if canon is not None:
                break
            seen = {current}
            queue = deque((current,))
            shorter: Word | None = None
            while queue:
                w = queue.popleft()
                for nb in self._braid_neighbors(w):
                    if nb in seen:
                        continue
                    pair = _adjacent_pair(nb)
                    if pair >= 0:
                        shorter = _nil_sweep(nb[:pair] + nb[pair + 2:])
                        queue.clear()
                        break
                    seen.add(nb)
                    queue.append(nb)
            if shorter is None:
                canon = min(seen)
                self._closures[canon] = frozenset(seen)
                for member in seen:
                    self._canon[member] = canon
                break
            pending.append(shorter)
            current = shorter
        for w in pending:
            self._canon[w] = canon
        return canon

    def reduced_words(self, word: Iterable[int]) -> frozenset[Word]:
        """The braid closure of the element spelt by ``word``."""
        return self._closures[self.canonical_word(word)]
