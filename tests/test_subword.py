import gc
import itertools

import pytest

from coxsort import CoxeterSystem, VoidComplexError, subword, subword_complex
from coxsort.fibermap import certify_fiber_contractible
from coxsort.homology import SimplicialComplex
from coxsort.hecke import _suffix_demazure, bruhat_leq, demazure
from coxsort.oracles import subword_facets_bruteforce
from coxsort.subword import (SubwordComplex, _facets_by_backtrack, _positions,
                             certify_subword_complex)


def fs(*items):
    return frozenset(items)


def test_b2_ball_example():
    b2 = CoxeterSystem.type_b(2)
    c = subword_complex(b2, (1, 2, 1, 2), b2.element((1, 2, 1)))
    assert c.facets == {fs(4)}
    assert c.faces() == {fs(), fs(4)}
    assert c.dim == 0
    assert c.classify() == "ball"
    assert c.interior_faces() == {fs(4)}
    assert c.boundary_faces() == {fs()}


def test_b2_empty_complex_is_a_sphere():
    b2 = CoxeterSystem.type_b(2)
    c = subword_complex(b2, (1, 2, 1, 2), b2.longest_element())
    assert c.facets == {fs()}
    assert c.faces() == {fs()}
    assert c.dim == -1
    assert c.classify() == "sphere"


def test_b2_zero_sphere():
    b2 = CoxeterSystem.type_b(2)
    c = subword_complex(b2, (1, 2, 1, 2, 1), b2.longest_element())
    assert c.facets == {fs(1), fs(5)}
    assert c.faces() == {fs(), fs(1), fs(5)}
    assert c.classify() == "sphere"
    # spheres have no boundary
    assert c.interior_faces() == c.faces()
    assert c.boundary_faces() == frozenset()


def test_a3_interior_membership():
    a3 = CoxeterSystem.type_a(3)
    Q = (1, 2, 3, 1, 2, 1)
    u = a3.element((1, 2, 1))
    c = subword_complex(a3, Q, u)
    # complement of {3, 6} spells (1, 2, 1, 2), whose Demazure product is still u
    assert demazure(a3, (1, 2, 1, 2)) == u
    assert fs(3, 6) in c.interior_faces()
    # the empty face is on the boundary: Demazure of all of Q overshoots u
    assert demazure(a3, Q) != u
    assert fs() in c.boundary_faces()
    # top cells of a ball are interior
    assert c.facets <= c.interior_faces()


def test_void_complex():
    b2 = CoxeterSystem.type_b(2)
    with pytest.raises(VoidComplexError):
        subword_complex(b2, (1, 2, 1), b2.longest_element())
    with pytest.raises(VoidComplexError):
        subword_complex(b2, (1, 1, 1), b2.element((2,)))


def test_rejects_bad_input():
    b2 = CoxeterSystem.type_b(2)
    a2 = CoxeterSystem.type_a(2)
    with pytest.raises(ValueError):
        subword_complex(b2, (1, 3, 1), b2.identity)
    with pytest.raises(ValueError):
        subword_complex(b2, (1, 2, 1), a2.element((1,)))


def test_facet_size_identity():
    a3 = CoxeterSystem.type_a(3)
    Q = (1, 2, 3, 1, 2, 1)
    for u in a3.elements():
        c = subword_complex(a3, Q, u)
        for facet in c.facets:
            assert len(facet) == len(Q) - u.length


def test_scan_and_backtrack_agree():
    # the constructor derives the facets from (Q, u) alone
    b2 = CoxeterSystem.type_b(2)
    for n in range(0, 7):
        for Q in itertools.product((1, 2), repeat=n):
            w = demazure(b2, Q)
            for u in b2.elements():
                scan = subword_facets_bruteforce(b2, Q, u)
                back = _facets_by_backtrack(b2, Q, u, _suffix_demazure(b2, Q))
                assert set(scan) == {_positions(m) for m in back}, (Q, u)
                if scan:
                    got = SubwordComplex(b2, Q, u)
                    assert got.facets == frozenset(scan)
                    assert got.classify() == ("sphere" if u == w else "ball")
                else:
                    with pytest.raises(VoidComplexError):
                        SubwordComplex(b2, Q, u)


def test_classification_matches_demazure_rule():
    a2 = CoxeterSystem.type_a(2)
    for n in range(1, 7):
        for Q in itertools.product((1, 2), repeat=n):
            top = demazure(a2, Q)
            for u in a2.elements():
                try:
                    c = subword_complex(a2, Q, u)
                except VoidComplexError:
                    assert not bruhat_leq(u, top)
                    continue
                assert c.classify() == ("sphere" if u == top else "ball")


def test_simplicial_carrier_has_all_positions_as_ground():
    a3 = CoxeterSystem.type_a(3)
    c = subword_complex(a3, (1, 2, 3, 1, 2, 1), a3.element((1, 2, 1)))
    assert c.vertices == tuple(range(1, 7))


def test_certify_subword_complex():
    b2 = CoxeterSystem.type_b(2)
    ball = certify_subword_complex(subword_complex(b2, (1, 2, 1, 2), b2.element((1, 2, 1))))
    assert (ball.kind, ball.top, ball.matches) == ("ball", 0, (True, True))
    assert [p.coefficient_field for p in ball.profiles] == [2, 0]
    assert all(p.is_trivial() for p in ball.profiles)
    sphere = certify_subword_complex(
        subword_complex(b2, (1, 2, 1, 2, 1), b2.element((1, 2, 1, 2))))
    assert (sphere.kind, sphere.top, sphere.matches) == ("sphere", 0, (True, True))
    assert all(p.counts == ((0, 1),) for p in sphere.profiles)
    empty = certify_subword_complex(subword_complex(b2, (1, 2, 1, 2), b2.longest_element()))
    assert (empty.kind, empty.top, empty.matches) == ("sphere", -1, (True, True))


def test_one_fold_per_complex(monkeypatch):
    folds = []
    real = subword._suffix_demazure

    def counted(system, Q):
        folds.append(Q)
        return real(system, Q)

    monkeypatch.setattr(subword, "_suffix_demazure", counted)
    b2 = CoxeterSystem.type_b(2)
    Q = (1, 2, 1, 2, 1)
    for u, kind in (((1, 2, 1, 2), "sphere"), ((2,), "ball")):
        folds.clear()
        c = subword_complex(b2, Q, b2.element(u))
        assert c.classify() == kind and c.classify() == kind
        assert folds == [Q]
    folds.clear()
    with pytest.raises(VoidComplexError):
        subword_complex(b2, (1, 2, 1), b2.longest_element())
    assert folds == [(1, 2, 1)]


def test_complexes_leave_no_cyclic_garbage():
    b2, a3 = CoxeterSystem.type_b(2), CoxeterSystem.type_a(3)
    gc.collect()
    gc.disable()
    try:
        for n in range(7):
            for Q in itertools.product((1, 2), repeat=n):
                w = demazure(b2, Q)
                for u in b2.elements():
                    if bruhat_leq(u, w):
                        c = subword_complex(b2, Q, u)
                        certify_subword_complex(c)
                        c.boundary_faces()
        for u in a3.elements():
            certify_fiber_contractible(a3, (1, 2, 3, 1, 2, 1), u)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_subword_complex_is_its_own_simplicial_complex():
    b2 = CoxeterSystem.type_b(2)
    c = subword_complex(b2, (1, 2, 1, 2, 1), b2.element((1, 2)))
    assert isinstance(c, SimplicialComplex)
    assert c.vertices == (1, 2, 3, 4, 5)


def test_void_constructor_names_the_word():
    b2 = CoxeterSystem.type_b(2)
    with pytest.raises(VoidComplexError, match="^the word 1,2,1 carries no reduced subword"):
        SubwordComplex(b2, (1, 2, 1), b2.longest_element())


def test_interior_faces_match_the_definition():
    # spheres and non-reduced words included, which no verification check reaches
    b2 = CoxeterSystem.type_b(2)
    kinds = set()
    for n in range(7):
        for Q in itertools.product((1, 2), repeat=n):
            w = demazure(b2, Q)
            for u in b2.elements():
                if not bruhat_leq(u, w):
                    continue
                c = subword_complex(b2, Q, u)
                want = {F for F in c.faces()
                        if demazure(b2, [s for j, s in enumerate(Q, 1) if j not in F]) == u}
                assert c.interior_faces() == want
                assert c.boundary_faces() == c.faces() - want
                kinds.add(c.classify())
    assert kinds == {"ball", "sphere"}
