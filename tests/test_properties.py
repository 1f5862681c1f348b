"""Property-based checks over random words, complementing the
deterministic oracle sweeps."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from coxsort import CoxeterSystem
from coxsort.fibermap import subset_image
from coxsort.hecke import bruhat_leq, demazure, reduced_words, weak_leq
from coxsort.totalpos import chevalley, is_totally_nonnegative, verify_additive_identity

A3 = CoxeterSystem.type_a(3)
B3 = CoxeterSystem.type_b(3)

words_a3 = st.lists(st.integers(1, 3), max_size=8).map(tuple)
words_b3 = st.lists(st.integers(1, 3), max_size=7).map(tuple)


@settings(max_examples=60, deadline=None)
@given(words_a3, st.sampled_from([A3, B3]))
def test_reduced_iff_length_matches(word, system):
    w = system.element(word)
    assert (word in reduced_words(w)) == (w.length == len(word))


@settings(max_examples=60, deadline=None)
@given(words_b3)
def test_demazure_dominates_product(word):
    prod = B3.element(word)
    dem = demazure(B3, word)
    assert dem.length >= prod.length
    assert bruhat_leq(prod, dem)


@settings(max_examples=60, deadline=None)
@given(words_a3, words_a3)
def test_demazure_is_monotone_under_concatenation(left, right):
    assert bruhat_leq(demazure(A3, left), demazure(A3, left + right))


@settings(max_examples=60, deadline=None)
@given(words_a3, words_a3)
def test_weak_refines_bruhat(a, b):
    u, v = A3.element(a), A3.element(b)
    if weak_leq(u, v):
        assert bruhat_leq(u, v)
        assert u.length <= v.length


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(1, 6), max_size=6), st.sets(st.integers(1, 6), max_size=6))
def test_subset_image_monotone(small, grow):
    Q = (1, 2, 3, 1, 2, 1)
    assert bruhat_leq(subset_image(A3, Q, small),
                      subset_image(A3, Q, set(small) | set(grow)))


@settings(max_examples=40, deadline=None)
@given(st.integers(-20, 20), st.integers(1, 12), st.integers(-20, 20), st.integers(1, 12))
def test_additive_identity_everywhere(p1, q1, p2, q2):
    assert verify_additive_identity(4, 2, Fraction(p1, q1), Fraction(p2, q2))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 5)), max_size=5))
def test_nonnegative_products_are_tn(steps):
    M = chevalley(4, 1, Fraction(0))
    for i, t in steps:
        M = M @ chevalley(4, i, Fraction(t, 2))
    assert is_totally_nonnegative(M)
