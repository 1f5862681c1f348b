"""The Cayley-graph models must be valid stand-ins for the word machinery:
they share no code with it, so any agreement is meaningful evidence."""

import itertools

import pytest

from coxsort import CoxeterSystem
from coxsort.hecke import bruhat_leq
from coxsort.oracles import (bruhat_leq_bruteforce, canonical_word_bruteforce,
                             contains_reduced_word_bruteforce, dihedral_model,
                             even_signed_permutation_model, permutation_model,
                             signed_permutation_model, sorting_subword_bruteforce)


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
