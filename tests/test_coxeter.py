import re

import numpy as np
import pytest

from coxsort import BudgetExceededError, CoxeterSystem, parse_word, word_str
from coxsort.hecke import bruhat_leq, demazure, reduced_words, sorting_subword, weak_leq
from coxsort.oracles import BraidRewriting, _nil_sweep
from coxsort.posets import bruhat_interval


def test_matrix_validation():
    with pytest.raises(ValueError):
        CoxeterSystem([[1, 2], [3, 1]])  # asymmetric
    with pytest.raises(ValueError):
        CoxeterSystem([[2, 3], [3, 1]])  # diagonal must be 1
    with pytest.raises(ValueError):
        CoxeterSystem([[1, 1], [1, 1]])  # off-diagonal >= 2
    with pytest.raises(ValueError):
        CoxeterSystem([[1, 3, 3], [3, 1, 3]])  # not square
    with pytest.raises(ValueError):
        CoxeterSystem([])


def test_named_matrices():
    assert CoxeterSystem.type_a(2).matrix == ((1, 3), (3, 1))
    assert CoxeterSystem.type_b(2).matrix == ((1, 4), (4, 1))
    assert CoxeterSystem.dihedral(7).m(1, 2) == 7
    d4 = CoxeterSystem.type_d(4)
    assert d4.m(1, 2) == 2 and d4.m(1, 3) == 3 and d4.m(2, 3) == 3 and d4.m(3, 4) == 3
    assert d4.m(1, 4) == 2 and d4.m(2, 4) == 2
    h3 = CoxeterSystem.type_h3()
    assert h3.m(1, 2) == 5 and h3.m(2, 3) == 3 and h3.m(1, 3) == 2
    b4 = CoxeterSystem.type_b(4)
    assert b4.m(3, 4) == 4 and b4.m(1, 2) == 3 and b4.m(2, 3) == 3


def test_word_helpers():
    assert word_str(()) == "e"
    assert word_str((1, 2, 1)) == "1,2,1"
    assert parse_word("1,2,1") == (1, 2, 1)
    assert parse_word("e") == () == parse_word("")
    assert parse_word(" 2 , 1 ") == (2, 1)
    assert _nil_sweep((1, 1, 2)) == (2,)
    assert _nil_sweep((1, 2, 2, 1)) == ()


def test_canonicalize_examples():
    a2 = CoxeterSystem.type_a(2)
    assert a2.canonical_word((1, 1)) == ()
    assert a2.canonical_word((2, 1, 2)) == (1, 2, 1)
    b2 = CoxeterSystem.type_b(2)
    assert b2.canonical_word((2, 1, 2, 1)) == (1, 2, 1, 2)
    # needs a braid move before the nil pair appears
    assert b2.canonical_word((2, 1, 2, 1, 2)) == (1, 2, 1)


def test_element_basics():
    b2 = CoxeterSystem.type_b(2)
    e = b2.identity
    assert e.length == 0 and e.is_identity
    w0 = b2.element((1, 2, 1, 2))
    assert w0.length == 4
    assert w0.mult_right(2).word == (1, 2, 1)
    a2 = CoxeterSystem.type_a(2)
    assert a2.element((1, 2)).mult_right(1).word == (1, 2, 1)
    assert a2.element((1, 2)).mult_right(1).length == 3
    assert not a2.element((1, 2)).is_right_descent(1)
    assert a2.element((1, 2)).is_right_descent(2)
    assert (a2.element((1, 2)) * a2.element((1,))).word == (1, 2, 1)
    with pytest.raises(ValueError):
        a2.element((1,)) * b2.element((1,))
    with pytest.raises(ValueError):
        a2.element((3,))


def test_descents_of_longest_element():
    b2 = CoxeterSystem.type_b(2)
    w0 = b2.longest_element()
    # every generator ends some reduced word of w0
    assert w0.right_descents() == (1, 2)
    assert w0.left_descents() == (1, 2)
    assert b2.identity.right_descents() == ()


def test_length_parity_and_involution():
    a3 = CoxeterSystem.type_a(3)
    for e in a3.elements():
        for s in (1, 2, 3):
            es = e.mult_right(s)
            assert abs(es.length - e.length) == 1
            assert es.mult_right(s) == e


def test_descent_duality_via_inverse():
    b2 = CoxeterSystem.type_b(2)
    for e in b2.elements():
        inv = e.inverse()
        assert (inv.inverse()) == e
        for s in (1, 2):
            assert e.is_right_descent(s) == inv.is_left_descent(s)


def _matrix(n, bonds):
    return [[1 if i == j else bonds.get((min(i, j), max(i, j)), 2)
             for j in range(1, n + 1)] for i in range(1, n + 1)]


F4 = _matrix(4, {(1, 2): 3, (2, 3): 4, (3, 4): 3})
H4 = _matrix(4, {(1, 2): 5, (2, 3): 3, (3, 4): 3})
E6 = _matrix(6, {(1, 3): 3, (3, 4): 3, (4, 5): 3, (5, 6): 3, (2, 4): 3})


@pytest.mark.parametrize("system,order", [
    (CoxeterSystem.type_a(1), 2),
    (CoxeterSystem.type_a(2), 6),
    (CoxeterSystem.type_a(3), 24),
    (CoxeterSystem.type_a(4), 120),
    (CoxeterSystem.type_b(2), 8),
    (CoxeterSystem.type_b(3), 48),
    (CoxeterSystem.type_d(4), 192),
    (CoxeterSystem.dihedral(3), 6),
    (CoxeterSystem.dihedral(10), 20),
    (CoxeterSystem.type_h3(), 120),
    (CoxeterSystem.type_d(5), 1920),
    (CoxeterSystem(F4), 1152),
    (CoxeterSystem.type_b(5), 3840),
    (CoxeterSystem.type_a(6), 5040),
    (CoxeterSystem(H4), 14400),
    (CoxeterSystem(E6, size_cap=51_840), 51_840),
])
def test_group_orders(system, order):
    elements = system.elements()
    assert len(elements) == order == len(set(elements))
    # sorted by (length, word) and starting at the identity
    assert elements[0].is_identity
    keys = [(e.length, e.word) for e in elements]
    assert keys == sorted(keys)
    # the stored descents are those a rescan of each table row finds, and
    # the left descents of x are the right descents of x^-1
    right, left = system._right, system._left
    for e in elements:
        x = e.index
        assert e.right_descents() == tuple(s for s, xs in enumerate(right[x], 1) if xs < x)
        assert e.left_descents() == tuple(s for s, sx in enumerate(left[x], 1) if sx < x)
        assert e.left_descents() == e.inverse().right_descents()


def test_longest_elements():
    assert CoxeterSystem.type_b(2).longest_element().word == (1, 2, 1, 2)
    assert CoxeterSystem.type_a(1).longest_element().word == (1,)
    w0 = CoxeterSystem.type_a(3).longest_element()
    assert w0.length == 6
    # the standard staircase word is one of its reduced expressions
    a3 = CoxeterSystem.type_a(3)
    assert a3.element((1, 2, 3, 1, 2, 1)) == w0


def test_size_cap():
    small = CoxeterSystem.type_a(3, size_cap=10)
    with pytest.raises(BudgetExceededError, match="size cap of 10"):
        small.elements()
    # the cap bounds the table's rows exactly, and raises on every call
    assert len(CoxeterSystem.type_a(3, size_cap=24).elements()) == 24
    tight = CoxeterSystem.type_a(3, size_cap=23)
    for _ in range(2):
        with pytest.raises(BudgetExceededError, match="size cap of 23") as exc:
            tight.element((1,))
        assert (exc.value.budget, exc.value.limit, exc.value.spent) == ("size_cap", 23, 24)
    with pytest.raises(ValueError, match="size_cap"):
        CoxeterSystem.type_a(2, size_cap=0)


def test_a_capped_table_names_its_system():
    tight = CoxeterSystem.type_a(3, size_cap=23)
    for _ in range(2):  # nothing is kept, so every call raises the same error
        with pytest.raises(BudgetExceededError, match="^group enumeration exceeded") as exc:
            tight.elements()
        err = exc.value
        assert (err.budget, err.limit, err.spent) == ("size_cap", 23, 24)
        assert err.subject == repr(tight)
        assert str(err).endswith(f"size cap of 23 ({tight!r})")


@pytest.mark.parametrize("system", [
    *(CoxeterSystem.type_a(n) for n in (1, 2, 3, 4)),
    CoxeterSystem.type_b(2),
    CoxeterSystem.type_b(3),
    CoxeterSystem.type_d(4),
    CoxeterSystem.type_h3(),
    *(CoxeterSystem.dihedral(m) for m in range(3, 9)),
], ids=["A1", "A2", "A3", "A4", "B2", "B3", "D4", "H3", *(f"I2({m})" for m in range(3, 9))])
def test_table_agrees_with_braid_rewriting(system):
    oracle = BraidRewriting(system.matrix)
    gens = range(1, system.rank + 1)
    for e in system.elements():
        w = e.word
        assert oracle.canonical_word(w) == w
        assert system.canonical_word(w[::-1] + (1, 1)) == oracle.canonical_word(w[::-1])
        for s in gens:
            assert e.mult_right(s).word == oracle.canonical_word(w + (s,))
            assert e.mult_left(s).word == oracle.canonical_word((s,) + w)
        assert e.inverse().word == oracle.canonical_word(w[::-1])
        assert reduced_words(e) == oracle.reduced_words(w)


def test_a_cleared_descent_bit_loses_reduced_words():
    # reduced words read the stored masks alone: clearing any one set bit
    # of any row of B3 makes the words of w0 differ from the braid closure
    b3 = CoxeterSystem.type_b(3)
    w0 = b3.longest_element()
    closure = BraidRewriting(b3.matrix).reduced_words(w0.word)
    assert reduced_words(w0) == closure and len(closure) == 42
    stored = b3._desc
    faults = 0
    for x, mask in enumerate(stored):
        for s in range(b3.rank):
            if mask >> s & 1:
                b3._desc = stored[:x] + [mask & ~(1 << s)] + stored[x + 1:]
                assert reduced_words(w0) != closure, (x, s + 1)
                faults += 1
    b3._desc = stored
    assert reduced_words(w0) == closure
    assert faults == sum(len(e.right_descents()) for e in b3.elements()) == 3 * 48 // 2


def test_infinite_group_raises():
    # construction builds no table, so only the first element hits the cap
    affine = CoxeterSystem([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
    with pytest.raises(BudgetExceededError, match="size cap of 50000"):
        affine.element((1, 2))


def test_system_equality():
    a, b = CoxeterSystem.type_b(2), CoxeterSystem.type_b(2, size_cap=8)
    assert a == a and a == b and a is not b and hash(a) == hash(b)
    u, v = a.element((1, 2)), b.element((2, 1, 2))
    assert u == b.element((1, 2))
    assert u * v == a.element((1, 2, 2, 1, 2))
    assert bruhat_leq(u, v) and not bruhat_leq(v, u)
    assert sorting_subword(a, (2, 1, 2), b.element((1,))) == (2,)
    assert len(bruhat_interval(a.identity, v)) == 6
    other = CoxeterSystem.type_a(2)
    assert a != other and a != "B2"
    x = other.element((1, 2))
    for mixed in (lambda: u * x, lambda: bruhat_leq(x, v), lambda: weak_leq(x, v),
                  lambda: sorting_subword(a, (1, 2), x),
                  lambda: bruhat_interval(x, v)):
        with pytest.raises(ValueError, match="different"):
            mixed()


def test_element_ordering_and_repr():
    a2 = CoxeterSystem.type_a(2)
    xs = sorted([a2.element((1, 2)), a2.identity, a2.element((2,))])
    assert [x.word for x in xs] == [(), (2,), (1, 2)]
    assert repr(a2.element((1, 2))) == "<1,2>"
    assert str(a2.identity) == "e"


def test_letters_entries_and_caps_must_be_integers():
    a3 = CoxeterSystem.type_a(3)
    # floats were truncated and strings parsed: 1.9,2 read as 1,2 and "3" as 3
    for ask, value in ((lambda: a3.element((1.9, 2)), "1.9"),
                       (lambda: demazure(a3, (2.5, 2.2)), "2.5"),
                       (lambda: a3.element(("3",)), "'3'")):
        with pytest.raises(ValueError, match=f"letter {value} is not an integer"):
            ask()
    # [[1, 3.7], [3.7, 1]] built A2, and a cap of 7.9 became 7
    with pytest.raises(ValueError, match="entry 3.7 is not an integer"):
        CoxeterSystem([[1, 3.7], [3.7, 1]])
    with pytest.raises(ValueError, match="size_cap 7.9 is not an integer"):
        CoxeterSystem.type_a(2, size_cap=7.9)
    # a bool is an int to Python: (True, 2) read as s1 s2, a diagonal of
    # True as 1 and a cap of True as 1; numpy's bool has no integer index
    b2 = CoxeterSystem.type_b(2)
    for ask, value in ((lambda: b2.element((True, 2)), "letter must be an integer, got True"),
                       (lambda: b2.check_word([1, False]), "letter must be an integer, got False"),
                       (lambda: demazure(b2, (2, True)), "letter must be an integer, got True"),
                       (lambda: b2.element((np.True_,)), "letter np.True_ is not an integer"),
                       (lambda: CoxeterSystem([[True, 4], [4, True]]),
                        "Coxeter matrix entry must be an integer, got True"),
                       (lambda: CoxeterSystem.type_a(2, size_cap=True),
                        "size_cap must be an integer, got True")):
        with pytest.raises(ValueError, match=re.escape(value)):
            ask()
    # numpy integers are integers
    assert a3.element(np.array([1, 2])) == a3.element((1, 2))
    a2 = CoxeterSystem(np.array([[1, 3], [3, 1]]), size_cap=np.int64(6))
    assert a2.matrix == ((1, 3), (3, 1)) and len(a2.elements()) == 6
    assert type(a2.size_cap) is int
    assert [type(s) for s in a3.check_word(np.array([1, 2]))] == [int, int]
