import numpy as np
import pytest

from coxsort import CoxeterSystem
from coxsort.hecke import sorting_subword, weak_leq
from coxsort.oracles import bruhat_leq_walk, element_poset, inclusion_poset_bruteforce
from coxsort.posets import (Poset, _weak_matrix, bruhat_interval,
                            relation_intersection, relation_union, sorting_order,
                            weak_interval)


def chain(n):
    return Poset(range(n), [[i <= j for j in range(n)] for i in range(n)], "chain")


def antichain(n):
    return Poset(range(n), np.eye(n, dtype=bool), "antichain")


def test_validation_errors():
    with pytest.raises(ValueError, match="duplicates"):
        Poset([1, 1], np.eye(2, dtype=bool))
    with pytest.raises(ValueError, match="must be 2x2"):
        Poset([1, 2], np.eye(3, dtype=bool))
    with pytest.raises(ValueError, match="reflexive"):
        Poset([1, 2], [[True, False], [False, False]])
    with pytest.raises(ValueError, match="antisymmetric"):
        Poset([1, 2], [[True, True], [True, True]])
    with pytest.raises(ValueError, match="transitive"):
        Poset([1, 2, 3], [[True, True, False],
                          [False, True, True],
                          [False, False, True]])


def test_empty_poset():
    p = Poset([], np.zeros((0, 0), dtype=bool))
    assert len(p) == 0
    assert p.covers() == []
    assert p.is_chain()


def test_basic_accessors():
    p = chain(4)
    assert p.leq_items(0, 3)
    assert not p.leq_items(3, 0)
    assert p.index(2) == 2
    with pytest.raises(ValueError):
        p.index(99)
    assert p.covers() == [(0, 1), (1, 2), (2, 3)]
    assert p.minimal_elements() == [0]
    assert p.maximal_elements() == [3]
    assert p.is_chain()
    assert antichain(3).covers() == []
    assert not antichain(3).is_chain()


def test_matrix_is_read_only():
    p = chain(3)
    with pytest.raises(ValueError):
        p.leq[0, 2] = False


def test_restrict_and_dual():
    p = chain(5)
    q = p.restrict([4, 1, 3])
    assert q.ground == (1, 3, 4)  # parent order is kept
    assert q.is_chain()
    d = p.dual()
    assert d.minimal_elements() == [4]
    assert d.maximal_elements() == [0]
    assert d.covers() == [(1, 0), (2, 1), (3, 2), (4, 3)]
    with pytest.raises(ValueError):
        p.restrict([0, 99])


def test_inclusion_poset():
    sets = [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})]
    p = inclusion_poset_bruteforce(sets)
    assert p.ground[0] == frozenset()
    assert p.ground[-1] == frozenset({1, 2})
    assert len(p.covers()) == 4
    assert p.minimal_elements() == [frozenset()]


def test_bruhat_interval_b2():
    b2 = CoxeterSystem.type_b(2)
    w0 = b2.longest_element()
    full = bruhat_interval(b2.identity, w0)
    assert len(full) == 8
    assert len(full.covers()) == 12
    sub = bruhat_interval(b2.identity, b2.element((2, 1, 2)))
    assert len(sub) == 6
    with pytest.raises(ValueError, match="not below"):
        bruhat_interval(b2.element((1, 2, 1)), b2.element((2, 1, 2)))


@pytest.mark.parametrize("system", [CoxeterSystem.type_a(3), CoxeterSystem.type_b(3)],
                         ids=["A3", "B3"])
def test_intervals_agree_with_pairwise_relations(system):
    elements = system.elements()
    for w in elements:
        for u in elements:
            if bruhat_leq_walk(u, w):
                ground = [z for z in elements
                          if bruhat_leq_walk(u, z) and bruhat_leq_walk(z, w)]
                assert bruhat_interval(u, w) == element_poset(ground, bruhat_leq_walk)
        lower = bruhat_interval(system.identity, w).ground
        assert np.array_equal(_weak_matrix(lower), element_poset(lower, weak_leq).leq)
        ground = [z for z in elements if weak_leq(z, w)]
        assert weak_interval(w) == element_poset(ground, weak_leq)


def test_weak_interval_is_chain_for_b2_212():
    b2 = CoxeterSystem.type_b(2)
    p = weak_interval(b2.element((2, 1, 2)))
    assert len(p) == 4
    assert p.is_chain()
    lengths = [u.length for u in p.ground]
    assert lengths == sorted(lengths)


def test_sorting_order_b2():
    b2 = CoxeterSystem.type_b(2)
    p = sorting_order(b2, (2, 1, 2))
    assert len(p) == 6
    e = b2.identity
    s1, s2 = b2.element((1,)), b2.element((2,))
    s12, s21 = b2.element((1, 2)), b2.element((2, 1))
    top = b2.element((2, 1, 2))
    assert set(p.covers()) == {(e, s1), (e, s2), (s1, s12), (s1, s21),
                               (s2, s21), (s12, top), (s21, top)}
    # s1 <= s2 s1 in the sorting order but not in the right weak order
    weak = element_poset(p.ground, weak_leq)
    assert p.leq_items(s1, s21) and not weak.leq_items(s1, s21)
    # s2 <= s1 s2 in Bruhat order but not in the sorting order
    bruhat = bruhat_interval(e, top)
    assert bruhat.leq_items(s2, s12) and not p.leq_items(s2, s12)


def test_sorting_order_rejects_non_reduced():
    b2 = CoxeterSystem.type_b(2)
    with pytest.raises(ValueError, match="reduced"):
        sorting_order(b2, (1, 1))


def test_relation_intersection():
    p = chain(3)
    assert relation_intersection([p, p]) == p
    q = antichain(3)
    assert relation_intersection([p, q]) == q
    with pytest.raises(ValueError, match="identical ground"):
        relation_intersection([p, chain(4)])
    with pytest.raises(ValueError, match="at least one"):
        relation_intersection([])


def test_relation_union_transitivity_flag():
    ground = ("a", "b", "c")
    eye = np.eye(3, dtype=bool)
    ab = eye.copy(); ab[0, 1] = True
    bc = eye.copy(); bc[1, 2] = True
    p1 = Poset(ground, ab)
    p2 = Poset(ground, bc)
    union = relation_union([p1, p2])
    assert not union.is_transitive
    assert union.matrix[0, 1] and union.matrix[1, 2] and not union.matrix[0, 2]
    with pytest.raises(ValueError, match="transitive"):
        union.as_poset()
    ok = relation_union([p1, p1])
    assert ok.is_transitive
    assert ok.as_poset() == p1


def test_covers_of_a_chain_past_256():
    # (0, 257) has 256 elements strictly between; a count of witnesses in
    # uint8 wraps to 0 there and reports a false cover
    p = Poset(range(258), np.triu(np.ones((258, 258), dtype=bool)))
    assert p.covers() == [(i, i + 1) for i in range(257)]


def test_256_witnesses_do_not_hide_intransitivity():
    # 0 < k < 257 for 256 middle elements k, but 0 and 257 are unrelated
    n = 258
    low = np.eye(n, dtype=bool)
    low[0, 1:n - 1] = True
    high = np.eye(n, dtype=bool)
    high[1:n - 1, n - 1] = True
    with pytest.raises(ValueError, match="transitive"):
        Poset(range(n), low | high)
    union = relation_union([Poset(range(n), low), Poset(range(n), high)])
    assert not union.is_transitive


def test_sorting_order_past_63_letters():
    # a 70-letter Q: position sets as machine-word masks would overflow
    i2 = CoxeterSystem.dihedral(70)
    Q = (1, 2) * 35
    p = sorting_order(i2, Q)
    assert len(p) == 140
    keys = [set(sorting_subword(i2, Q, u)) for u in p.ground]
    assert p.leq.tolist() == [[a <= b for b in keys] for a in keys]
