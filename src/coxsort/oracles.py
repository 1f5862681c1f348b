"""Independent reference models used to cross-check the group tables.

A :class:`CayleyModel` is a concrete finite group given by explicit
generator states and a composition function.  Lengths come from a
breadth-first search of the Cayley graph, which keeps every right
product g·s it computes; the left products s·g are then composed once
each, and products of words and left multiplications read these two
tables of the model's own Cayley graph.  Nothing here touches the
multiplication tables of :mod:`coxsort.coxeter`, so agreement between
the two is a genuine consistency check, not a tautology.

The models provided are the permutation model of type A (one-line
permutations under composition), the signed-permutation model of type B,
the even-signed-permutation model of type D and an affine model of the
dihedral groups I2(m).  :class:`BraidRewriting` decides equality of words
of any Coxeter matrix by nil and braid moves alone, the subword scan tries
every position set, :func:`bruhat_leq_walk` compares two elements by
stripping left descents, :func:`element_poset` and
:func:`inclusion_poset_bruteforce` order elements and sets by a pairwise
scan, :func:`faces_bruteforce` lists the faces of a complex as tuples
from every subset of every facet, and :func:`mobius` runs the defining
recursion of the Möbius function; all are slow references for tests.
:func:`contractibility_evidence` (a cone vertex, else vanishing homology)
is the reference the fiber certificates of :mod:`coxsort.fibermap` are
tested against.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .coxeter import _integer
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
    "mobius",
    "cone_vertex",
    "ContractibilityEvidence",
    "contractibility_evidence",
]

Word = tuple[int, ...]


class CayleyModel:
    """A finite group with 1-based generators and BFS word lengths.

    Elements are numbered in BFS order; ``_right[i][s - 1]`` and
    ``_left[i][s - 1]`` number g·s and s·g for the element g numbered i.
    A letter outside 1..rank raises ValueError."""

    def __init__(self, generators: Sequence, compose: Callable, identity):
        self.generators = tuple(generators)
        self.compose = compose
        self.identity = identity
        index = {identity: 0}
        states = [identity]
        depth = [0]
        right = []
        for i, g in enumerate(states):  # states grows as it is read: the BFS queue
            row = []
            for gen in self.generators:
                h = compose(g, gen)
                j = index.get(h)
                if j is None:
                    j = index[h] = len(states)
                    states.append(h)
                    depth.append(depth[i] + 1)
                row.append(j)
            right.append(row)
        self._states = states
        self._index = index
        self._depth = depth
        self._right = right
        self._left = [[index[compose(gen, g)] for gen in self.generators] for g in states]
        self._lexmin: list[Word | None] = [()] + [None] * (len(states) - 1)
        self.lengths = dict(zip(states, depth))

    @property
    def rank(self) -> int:
        return len(self.generators)

    def order(self) -> int:
        return len(self.lengths)

    def elements(self) -> list:
        return sorted(self.lengths, key=lambda g: (self.lengths[g], g))

    def _check(self, word: Iterable[int]) -> Word:
        """``word`` as a tuple, once its smallest and largest letters are
        known to lie in 1..rank."""
        word = tuple(word)
        rank = len(self.generators)
        if word and not (1 <= min(word) and max(word) <= rank):
            bad = next(s for s in word if not 1 <= s <= rank)
            raise ValueError(f"letter {bad} is not a generator: the model has "
                             f"rank {rank}, so letters run 1..{rank}")
        return word

    def _walk(self, word: Iterable[int]) -> int:
        """The number of the product of a word already checked."""
        right = self._right
        i = 0
        for s in word:
            i = right[i][s - 1]
        return i

    def product(self, word: Iterable[int]):
        return self._states[self._walk(self._check(word))]

    def length_of_word(self, word: Iterable[int]) -> int:
        return self._depth[self._walk(self._check(word))]

    def is_reduced(self, word: Sequence[int]) -> bool:
        return self.length_of_word(word) == len(word)

    def left_mult(self, s: int, g):
        self._check((s,))
        return self._states[self._left[self._index[g]][s - 1]]

    def lexmin_word(self, g) -> tuple[int, ...]:
        """Greedy smallest left descent; yields the lex-minimal reduced word.
        Each element's word is kept, and each word is built from the kept
        word of the element below it."""
        return self._lexmin_at(self._index[g])

    def _lexmin_at(self, i: int) -> Word:
        memo, left, depth = self._lexmin, self._left, self._depth
        path = []
        while memo[i] is None:
            s = next(s for s, h in enumerate(left[i]) if depth[h] < depth[i])
            path.append((i, s + 1))
            i = left[i][s]
        word = memo[i]
        for j, s in reversed(path):
            word = (s,) + word
            memo[j] = word
        return word

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
    identity = tuple(range(1, rank + 1))
    gens = []
    for i in range(rank - 1):
        g = list(identity)
        g[i], g[i + 1] = g[i + 1], g[i]
        gens.append(tuple(g))
    last = list(identity)
    last[-1] = -last[-1]
    gens.append(tuple(last))
    return CayleyModel(gens, _compose_signed, identity)


def _compose_signed(u, v):
    """The signed permutation u∘v, both in window notation."""
    return tuple(u[x - 1] if x > 0 else -u[-x - 1] for x in v)


def even_signed_permutation_model(rank: int) -> CayleyModel:
    """Type D_rank as the even signed permutations in window notation, in
    the generator order of ``CoxeterSystem.type_d``: generator 1 swaps the
    first two window entries, generator 2 swaps and negates them, and
    generator k >= 3 swaps entries k - 1 and k, so 1 and 2 both braid with
    3 and the rest form a chain."""
    if rank < 2:
        raise ValueError("type D needs rank >= 2")
    identity = tuple(range(1, rank + 1))

    def swap(i: int, sign: int) -> tuple:
        g = list(identity)
        g[i - 1], g[i] = sign * g[i], sign * g[i - 1]
        return tuple(g)

    gens = [swap(1, 1), swap(1, -1)] + [swap(k - 1, 1) for k in range(3, rank + 1)]
    return CayleyModel(gens, _compose_signed, identity)


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
    return model._lexmin_at(model._walk(model._check(word)))


def bruhat_leq_bruteforce(model: CayleyModel, u_word, v_word) -> bool:
    """Subword test by exhaustive scan over one reduced word of v."""
    u = model._walk(model._check(u_word))
    vword = model._lexmin_at(model._walk(model._check(v_word)))
    k = model._depth[u]
    if k > len(vword):
        return False
    return any(model._walk(sub) == u for sub in itertools.combinations(vword, k))


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
    u = model._walk(model._check(u_word))
    Q = model._check(Q)
    k = model._depth[u]
    if k > len(Q):
        return False
    return any(model._walk(sub) == u for sub in itertools.combinations(Q, k))


def sorting_subword_bruteforce(model: CayleyModel, Q, u_word):
    """First position subset, in lexicographic order, whose subword is a
    reduced word for u; None when no subset works."""
    u = model._walk(model._check(u_word))
    Q = model._check(Q)
    k = model._depth[u]
    if k > len(Q):
        return None
    for subset in itertools.combinations(range(1, len(Q) + 1), k):
        if model._walk(Q[p - 1] for p in subset) == u:
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


def mobius(leq) -> list[list[int]]:
    """The Möbius function of the order ``leq`` (``leq[x][y]`` iff x <= y)
    as a matrix of Python ints, 0 where x is not below y, by the plain
    recursion mu(x, x) = 1, mu(x, y) = -sum of mu(x, z) over x <= z < y.
    The elements above x are taken by the size of their down-sets, which
    puts every z < y before y."""
    leq = [[bool(v) for v in row] for row in leq]
    n = len(leq)
    down = [sum(leq[z][y] for z in range(n)) for y in range(n)]
    mu = [[0] * n for _ in range(n)]
    for x in range(n):
        above = sorted((y for y in range(n) if leq[x][y]), key=down.__getitem__)
        for i, y in enumerate(above):
            mu[x][y] = 1 if y == x else -sum(mu[x][z] for z in above[:i] if leq[z][y])
    return mu


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
        self.matrix = tuple(tuple(_integer(x, "Coxeter matrix entry") for x in row)
                            for row in matrix)
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
