import itertools

import numpy as np
import pytest

from coxsort import CoxeterSystem
from coxsort.hecke import (bruhat_leq, bruhat_row, demazure, reduced_words, sorting_positions,
                           sorting_subword, weak_leq)
from coxsort.oracles import (bruhat_leq_bruteforce, bruhat_leq_walk,
                             contains_reduced_word_bruteforce, permutation_model,
                             signed_permutation_model)


def test_demazure_examples():
    a3 = CoxeterSystem.type_a(3)
    assert demazure(a3, ()) == a3.identity
    assert demazure(a3, (1, 2, 1, 2)) == a3.element((1, 2, 1))
    b2 = CoxeterSystem.type_b(2)
    assert demazure(b2, (1, 2, 1, 2, 1)) == b2.longest_element()


def test_demazure_monotone_under_appending():
    b2 = CoxeterSystem.type_b(2)
    for n in range(5):
        for word in itertools.product((1, 2), repeat=n):
            base = demazure(b2, word).length
            for s in (1, 2):
                assert demazure(b2, word + (s,)).length >= base


def test_demazure_equals_canonical_on_reduced():
    a3 = CoxeterSystem.type_a(3)
    for w in a3.elements():
        for word in reduced_words(w):
            assert demazure(a3, word) == w


def test_reduced_words():
    b2 = CoxeterSystem.type_b(2)
    assert reduced_words(b2.identity) == frozenset({()})
    assert reduced_words(b2.longest_element()) == frozenset({(1, 2, 1, 2), (2, 1, 2, 1)})
    a3 = CoxeterSystem.type_a(3)
    w0 = a3.longest_element()
    words = reduced_words(w0)
    assert len(words) == 16
    # independent recount: filter every length-6 letter sequence
    model = permutation_model(3)
    target = model.product((1, 2, 3, 1, 2, 1))
    brute = {w for w in itertools.product((1, 2, 3), repeat=6)
             if model.product(w) == target}
    assert words == brute  # a length-6 word for w0 is automatically reduced


def test_bruhat_examples():
    b2 = CoxeterSystem.type_b(2)
    v = b2.element((2, 1, 2))
    for u in b2.elements():
        assert bruhat_leq(b2.identity, u)
    assert bruhat_leq(b2.element((1,)), v)
    assert not bruhat_leq(b2.element((1, 2, 1)), v)
    assert bruhat_leq(v, b2.longest_element())


def test_bruhat_antisymmetry_and_length():
    a3 = CoxeterSystem.type_a(3)
    for u in a3.elements():
        for v in a3.elements():
            if bruhat_leq(u, v) and u != v:
                assert u.length < v.length
                assert not bruhat_leq(v, u)


@pytest.mark.parametrize("system", [
    CoxeterSystem.type_h3(),
    *(CoxeterSystem.dihedral(m) for m in range(5, 9)),
    CoxeterSystem.type_d(4),
    CoxeterSystem.type_b(3),
], ids=["H3", *(f"I2({m})" for m in range(5, 9)), "D4", "B3"])
def test_bruhat_row_agrees_with_walk(system):
    elements = system.elements()
    for v in elements:
        row = bruhat_row(v)
        assert row.shape == (len(elements),) and not row.flags.writeable
        assert [bool(row[u.index]) for u in elements] == [
            bruhat_leq_walk(u, v) for u in elements]


@pytest.mark.parametrize("system,model", [
    (CoxeterSystem.type_a(3), permutation_model(3)),
    (CoxeterSystem.type_b(3), signed_permutation_model(3)),
], ids=["A3", "B3"])
def test_bruhat_row_agrees_with_subword_scan(system, model):
    elements = system.elements()
    for v in elements:
        row = bruhat_row(v)
        for u in elements:
            assert bool(row[u.index]) == bruhat_leq_bruteforce(model, u.word, v.word)


def test_bruhat_row_memoises_one_descent_chain():
    bonds = {(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)}
    e6 = CoxeterSystem([[1 if i == j else 3 if (min(i, j), max(i, j)) in bonds else 2
                         for j in range(1, 7)] for i in range(1, 7)], size_cap=51_840)
    w0 = e6.longest_element()
    assert bruhat_leq(e6.generator(2), w0)
    rows = e6._op_cache["bruhat_row"]
    assert len(rows) <= w0.length + 1
    assert rows[w0.index].all()
    assert np.flatnonzero(bruhat_row(e6.generator(2))).tolist() == [
        0, e6.generator(2).index]


def test_weak_examples():
    b2 = CoxeterSystem.type_b(2)
    v = b2.element((2, 1, 2))
    assert weak_leq(b2.identity, v)
    assert weak_leq(b2.element((2,)), v)
    assert not weak_leq(b2.element((1,)), b2.element((2, 1)))
    # weak order refines Bruhat order
    for u in b2.elements():
        for w in b2.elements():
            if weak_leq(u, w):
                assert bruhat_leq(u, w)


def test_subword_containment_is_bruhat_below_the_demazure_product():
    # some subword of Q is a reduced word for u iff u <= demazure(Q)
    b2 = CoxeterSystem.type_b(2)
    model = signed_permutation_model(2)
    for n in range(7):
        for Q in itertools.product((1, 2), repeat=n):
            w = demazure(b2, Q)
            for u in b2.elements():
                assert bruhat_leq(u, w) == contains_reduced_word_bruteforce(model, Q, u.word)


def test_sorting_subword_examples():
    a3 = CoxeterSystem.type_a(3)
    Q = (1, 2, 3, 1, 2, 1)
    assert sorting_subword(a3, Q, a3.identity) == ()
    assert sorting_subword(a3, Q, a3.element((1, 2, 1))) == (1, 2, 4)
    assert sorting_subword(a3, Q, a3.element(Q)) == (1, 2, 3, 4, 5, 6)
    b2 = CoxeterSystem.type_b(2)
    R = (2, 1, 2)
    expected = {(1,): (2,), (2,): (1,), (1, 2): (2, 3), (2, 1): (1, 2), (2, 1, 2): (1, 2, 3)}
    for word, positions in expected.items():
        assert sorting_subword(b2, R, b2.element(word)) == positions


def test_sorting_subword_output_contract():
    a3 = CoxeterSystem.type_a(3)
    Q = (1, 2, 3, 1, 2, 1)
    for u in a3.elements():
        pos = sorting_subword(a3, Q, u)
        assert len(pos) == u.length
        assert all(1 <= p <= len(Q) for p in pos)
        assert tuple(sorted(pos)) == pos
        assert a3.element(tuple(Q[p - 1] for p in pos)) == u


def test_sorting_subword_errors():
    b2 = CoxeterSystem.type_b(2)
    with pytest.raises(ValueError, match="reduced"):
        sorting_subword(b2, (1, 1), b2.identity)
    with pytest.raises(ValueError):
        sorting_subword(b2, (1,), b2.element((2,)))


def _lex_first_positions(system, Q, u):
    # the first set of l(u) positions of Q, in lexicographic order, whose
    # subword spells u; independent of the greedy and of the Bruhat rows
    for subset in itertools.combinations(range(len(Q)), u.length):
        if system.element([Q[j] for j in subset]) == u:
            return subset
    return None


@pytest.mark.parametrize("system, max_length", [
    (CoxeterSystem.type_h3(), 7),
    (CoxeterSystem.type_d(4), 6),
    (CoxeterSystem.type_b(3), 9),
] + [(CoxeterSystem.dihedral(m), m) for m in range(5, 9)],
    ids=["H3", "D4", "B3", "I2(5)", "I2(6)", "I2(7)", "I2(8)"])
def test_sorting_positions_agree_with_lex_scan(system, max_length):
    elements = system.elements()
    for w in elements:
        if w.length > max_length:
            continue
        words = sorted(reduced_words(w))
        below = [u for u in elements if _lex_first_positions(system, words[0], u) is not None]
        for Q in words:
            taken = sorting_positions(system, Q, below)
            assert taken.shape == (len(below), len(Q)) and not taken.flags.writeable
            assert ([tuple(np.flatnonzero(row)) for row in taken]
                    == [_lex_first_positions(system, Q, u) for u in below])


def test_sorting_positions_errors():
    b2 = CoxeterSystem.type_b(2)
    with pytest.raises(ValueError, match="outside generator range"):
        sorting_positions(b2, (1, 3), [b2.identity])
    with pytest.raises(ValueError, match="reduced ambient word; 1,2,2 is not"):
        sorting_positions(b2, (1, 2, 2), [b2.identity])
    with pytest.raises(ValueError, match="different Coxeter system"):
        sorting_positions(b2, (1, 2), [b2.identity, CoxeterSystem.type_a(2).identity])
    with pytest.raises(ValueError, match=r"2,1 is not below the product of 1,2"):
        sorting_positions(b2, (1, 2), [b2.element((1,)), b2.element((2, 1))])
