"""The Cayley-graph models must be valid stand-ins for the word machinery:
they share no code with it, so any agreement is meaningful evidence."""

import functools
import itertools
import random

import numpy as np
import pytest

from coxsort import CoxeterSystem
from coxsort.hecke import bruhat_leq
from coxsort.homology import _OrderComplex
from coxsort.oracles import (BraidRewriting, bruhat_leq_bruteforce, canonical_word_bruteforce,
                             contains_reduced_word_bruteforce, dihedral_model,
                             even_signed_permutation_model, mobius, permutation_model,
                             signed_permutation_model, sorting_subword_bruteforce)
from coxsort.posets import bruhat_interval

FAMILIES = {"A3": lambda: permutation_model(3),
            "B3": lambda: signed_permutation_model(3),
            "D4": lambda: even_signed_permutation_model(4),
            "I2(5)": lambda: dihedral_model(5)}


def test_permutation_model_shape():
    model = permutation_model(3)
    assert model.order() == 24
    assert model.rank == 3
    assert model.lengths[model.identity] == 0
    w0 = model.product((1, 2, 3, 1, 2, 1))
    assert model.lengths[w0] == 6  # unique longest element of S4
    assert model.is_reduced((1, 2, 1)) and not model.is_reduced((1, 1))


def test_signed_model_shape():
    model = signed_permutation_model(2)
    assert model.order() == 8
    assert model.lengths[model.product((1, 2, 1, 2))] == 4
    # the two reduced words of the longest element multiply equal
    assert model.product((1, 2, 1, 2)) == model.product((2, 1, 2, 1))


def test_artin_orders_match_coxeter_matrices():
    a3 = CoxeterSystem.type_a(3)
    pm = permutation_model(3)
    for i, j in itertools.combinations(range(1, 4), 2):
        assert pm.artin_order(i, j) == a3.m(i, j)
    b2 = CoxeterSystem.type_b(2)
    sm = signed_permutation_model(2)
    assert sm.artin_order(1, 2) == b2.m(1, 2) == 4


def test_lexmin_words_are_reduced_and_minimal():
    model = signed_permutation_model(2)
    for g in model.elements():
        word = model.lexmin_word(g)
        assert model.product(word) == g
        assert len(word) == model.lengths[g]


def test_canonical_word_bruteforce():
    model = permutation_model(2)
    assert canonical_word_bruteforce(model, (2, 1, 2)) == (1, 2, 1)
    assert canonical_word_bruteforce(model, (1, 1)) == ()


def test_bruhat_bruteforce_examples():
    model = signed_permutation_model(2)
    assert bruhat_leq_bruteforce(model, (), (1, 2))
    assert bruhat_leq_bruteforce(model, (1,), (2, 1, 2))
    assert not bruhat_leq_bruteforce(model, (1, 2, 1), (2, 1, 2))


def test_contains_and_sorting_bruteforce():
    model = signed_permutation_model(2)
    assert contains_reduced_word_bruteforce(model, (1, 2, 1, 2), (2, 1, 2))
    assert not contains_reduced_word_bruteforce(model, (1, 1), (2,))
    assert sorting_subword_bruteforce(model, (2, 1, 2), (1,)) == (2,)
    assert sorting_subword_bruteforce(model, (2, 1, 2), (2, 1)) == (1, 2)
    assert sorting_subword_bruteforce(model, (1, 1), (2,)) is None


@pytest.mark.parametrize("system, model", [
    (CoxeterSystem.type_d(4), even_signed_permutation_model(4)),
    *((CoxeterSystem.dihedral(m), dihedral_model(m)) for m in range(3, 9)),
], ids=["D4", *(f"I2({m})" for m in range(3, 9))])
def test_d4_and_dihedral_systems_match_their_models(system, model):
    # the default sweep's I2 groups, which the oracle check never models
    rank = system.rank
    assert tuple(tuple(1 if i == j else model.artin_order(i, j) for j in range(1, rank + 1))
                 for i in range(1, rank + 1)) == system.matrix
    elements = system.elements()
    assert model.order() == len(elements)
    assert sorted(model.lexmin_word(g) for g in model.elements()) == sorted(
        e.word for e in elements)
    for e in elements:
        assert model.lexmin_word(model.product(e.word)) == e.word
    for u in elements:
        for v in elements:
            assert bruhat_leq(u, v) == bruhat_leq_bruteforce(model, u.word, v.word), (u, v)


def test_small_d_and_dihedral_models():
    # D2 is A1 x A1 and D3 is A3; I2(2) is the Klein four-group
    for n, order in ((2, 4), (3, 24), (5, 1920)):
        model = even_signed_permutation_model(n)
        assert model.order() == order
        assert model.rank == n
        system = CoxeterSystem.type_d(n)
        assert all(model.artin_order(i, j) == system.m(i, j)
                   for i, j in itertools.combinations(range(1, n + 1), 2))
    assert dihedral_model(2).order() == 4 and dihedral_model(2).artin_order(1, 2) == 2
    for bad, make in ((1, even_signed_permutation_model), (1, dihedral_model)):
        with pytest.raises(ValueError):
            make(bad)


@pytest.mark.parametrize("name", FAMILIES)
def test_cayley_tables_match_the_models_own_compose(name):
    model = FAMILIES[name]()
    gens, compose = model.generators, model.compose
    rng = random.Random(24)
    for _ in range(200):
        word = tuple(rng.randint(1, model.rank) for _ in range(rng.randint(0, 12)))
        fold = functools.reduce(lambda g, s: compose(g, gens[s - 1]), word, model.identity)
        assert model.product(word) == fold, word
        assert model.product(list(word)) == fold
        assert model.length_of_word(word) == model.lengths[fold]
    for g in model.elements():
        for s in range(1, model.rank + 1):
            assert model.left_mult(s, g) == compose(gens[s - 1], g)
            assert model.product(model.lexmin_word(g) + (s,)) == compose(g, gens[s - 1])


def greedy_lexmin(model, g):
    """The smallest left descent, stripped until the identity, with no
    memo: the definition lexmin_word keeps."""
    word = []
    while g != model.identity:
        s = next(s for s in range(1, model.rank + 1)
                 if model.lengths[model.compose(model.generators[s - 1], g)] < model.lengths[g])
        word.append(s)
        g = model.compose(model.generators[s - 1], g)
    return tuple(word)


@pytest.mark.parametrize("name", FAMILIES)
def test_lexmin_word_is_the_same_cold_and_warm(name):
    reference = FAMILIES[name]()
    elements = reference.elements()
    want = {g: greedy_lexmin(reference, g) for g in elements}
    shuffled = list(elements)
    random.Random(5).shuffle(shuffled)
    for order in (shuffled, elements[::-1]):
        model = FAMILIES[name]()
        assert {g: model.lexmin_word(g) for g in order} == want  # memo filling
        assert {g: model.lexmin_word(g) for g in order} == want  # memo full
    for g in shuffled[:10]:
        assert FAMILIES[name]().lexmin_word(g) == want[g]      # each from cold


def test_letters_outside_the_rank_raise():
    model = permutation_model(3)
    g = model.product((1, 2))
    for bad, call in ((0, lambda: canonical_word_bruteforce(model, (0, 1))),
                      (-1, lambda: model.product((2, -1, 3))),
                      (4, lambda: model.product([1, 4])),
                      (4, lambda: model.length_of_word((4,))),
                      (0, lambda: model.left_mult(0, g)),
                      (4, lambda: model.left_mult(4, g)),
                      (-2, lambda: bruhat_leq_bruteforce(model, (1,), (-2,))),
                      (5, lambda: contains_reduced_word_bruteforce(model, (1, 5), (1,))),
                      (0, lambda: sorting_subword_bruteforce(model, (1, 2), (0,)))):
        with pytest.raises(ValueError, match=rf"letter {bad} is not a generator.* rank 3"):
            call()
    assert model.product(()) == model.identity


def test_braid_rewriting_reads_matrix_entries_as_integers():
    oracle = BraidRewriting(np.array([[1, 3], [3, 1]]))
    assert oracle.matrix == ((1, 3), (3, 1))
    assert all(type(x) is int for row in oracle.matrix for x in row)
    for entry in (3.7, "3"):
        with pytest.raises(ValueError, match=f"Coxeter matrix entry {entry!r} is not an integer"):
            BraidRewriting([[1, entry], [entry, 1]])
    # a diagonal of True used to read as 1
    with pytest.raises(ValueError, match="Coxeter matrix entry must be an integer, got True"):
        BraidRewriting([[True, 3], [3, True]])
    assert BraidRewriting([[np.int8(1), np.int64(3)], [3, 1]]).matrix == ((1, 3), (3, 1))


@pytest.mark.parametrize("system", [CoxeterSystem.type_a(3), CoxeterSystem.type_b(3),
                                    CoxeterSystem.type_h3()], ids=["A3", "B3", "H3"])
def test_mobius_of_bruhat_order_is_the_sign_of_the_length_difference(system):
    # Verma: mu(u, w) = (-1)^(l(w) - l(u)) for u <= w; and Hall's theorem,
    # mu(u, w) = sum over k of (-1)^(k - 1) times the chains of k elements
    # of (u, w), from the chain counts of its order complex, in int signs
    elements = system.elements()
    leq = bruhat_interval(system.identity, system.longest_element()).leq
    mu = mobius(leq)
    for u in elements:
        for w in elements:
            d = w.length - u.length
            assert mu[u.index][w.index] == (leq[u.index, w.index] and (-1) ** d)
    for u, w in ((u, w) for w in elements for u in elements[:w.index] if leq[u.index, w.index]):
        closed = bruhat_interval(u, w)
        counts = _OrderComplex(closed.ground[1:-1], closed.leq[1:-1, 1:-1])._chain_counts(2 ** 64)
        hall = sum(c if k % 2 else -c for k, c in enumerate(counts))
        assert type(hall) is int and hall == mu[u.index][w.index], (u, w)


def test_mobius_takes_any_linear_extension():
    # a pentagon 0 < a < b < 1, 0 < c < 1, its ground in no linear order
    ground = ["b", "1", "c", "0", "a"]
    below = {("0", x) for x in ground} | {("a", "b"), ("a", "1"), ("b", "1"), ("c", "1")}
    leq = [[x == y or (x, y) in below for y in ground] for x in ground]
    mu = dict(zip(ground, mobius(leq)[ground.index("0")]))
    assert mu == {"0": 1, "a": -1, "b": 0, "c": -1, "1": 1}
