import itertools

import pytest

import coxsort.homology
from coxsort import (BudgetExceededError, CoxeterSystem, certify_subword_complex,
                     subword_complex)
from coxsort.hecke import bruhat_leq, demazure
from coxsort.homology import (BettiProfile, SimplicialComplex,
                              _boundary_rows_signed, _rank_gf2, _rank_sparse,
                              contractibility_evidence, order_complex, reduced_betti)
from coxsort.oracles import inclusion_poset_bruteforce
from coxsort.posets import Poset, bruhat_interval

EMPTY = SimplicialComplex((), [frozenset()])
POINT = SimplicialComplex("a", [{"a"}])
TWO_POINTS = SimplicialComplex("ab", [{"a"}, {"b"}])
CIRCLE = SimplicialComplex((1, 2, 3), [(1, 2), (1, 3), (2, 3)])
SOLID = SimplicialComplex((1, 2, 3), [(1, 2, 3)])
OCTAHEDRON = SimplicialComplex(
    range(1, 7),
    [(a, b, c) for a in (1, 2) for b in (3, 4) for c in (5, 6)])
# antipodal quotient of the icosahedron: 6 vertices, 15 edges, 10 triangles
PROJECTIVE_PLANE = SimplicialComplex(
    range(1, 7),
    [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
     (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4)])
PATH = SimplicialComplex(range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5)])


def test_constructor_validation():
    with pytest.raises(ValueError, match="duplicates"):
        SimplicialComplex("aa", [{"a"}])
    with pytest.raises(ValueError, match="at least"):
        SimplicialComplex("ab", [])
    with pytest.raises(ValueError, match="not in the vertex order"):
        SimplicialComplex("ab", [{"c"}])


def test_dominated_facets_are_dropped():
    k = SimplicialComplex((1, 2, 3), [(1, 2, 3), (1, 2), (3,)])
    assert k.facets == {frozenset({1, 2, 3})}
    assert k.is_pure()


def test_facets_below_the_top_size_are_still_pruned():
    k = SimplicialComplex(range(1, 7), [(1, 2, 3), (4, 5), (4,), (6,), (2, 3)])
    assert k.facets == {frozenset({1, 2, 3}), frozenset({4, 5}), frozenset({6})}
    assert not k.is_pure()


def test_basic_face_counts():
    assert EMPTY.dim == -1
    assert EMPTY.num_faces() == 1
    assert POINT.num_faces() == 2
    assert SOLID.num_faces() == 8
    assert OCTAHEDRON.num_faces() == 1 + 6 + 12 + 8
    assert CIRCLE.reduced_euler_characteristic() == -1  # -1 + 3 - 3
    assert OCTAHEDRON.reduced_euler_characteristic() == 1  # -1 + 6 - 12 + 8
    assert EMPTY.reduced_euler_characteristic() == -1
    assert isinstance(EMPTY.reduced_euler_characteristic(), int)


def test_cone_vertex():
    assert SOLID.cone_vertex() == 1
    assert CIRCLE.cone_vertex() is None
    assert EMPTY.cone_vertex() is None
    assert POINT.cone_vertex() == "a"
    star = SimplicialComplex("zabc", [("z", "a"), ("z", "b"), ("z", "c")])
    assert star.cone_vertex() == "z"


def test_betti_standard_spaces():
    assert reduced_betti(EMPTY).numbers == {-1: 1}
    assert reduced_betti(POINT).numbers == {}
    assert reduced_betti(TWO_POINTS).numbers == {0: 1}
    assert reduced_betti(CIRCLE).numbers == {1: 1}
    assert reduced_betti(SOLID).numbers == {}
    assert reduced_betti(OCTAHEDRON).numbers == {2: 1}
    assert reduced_betti(OCTAHEDRON, 0).numbers == {2: 1}
    assert reduced_betti(CIRCLE, 0).numbers == {1: 1}


def test_betti_depends_on_field_for_projective_plane():
    assert reduced_betti(PROJECTIVE_PLANE, 2).numbers == {1: 1, 2: 1}
    assert reduced_betti(PROJECTIVE_PLANE, 0).numbers == {}
    assert PROJECTIVE_PLANE.reduced_euler_characteristic() == 0


def test_profile_helpers():
    p = reduced_betti(OCTAHEDRON)
    assert p.matches_sphere(2)
    assert not p.matches_sphere(1)
    assert not p.is_trivial()
    assert p.get(2) == 1 and p.get(0) == 0
    assert str(p) == "[GF(2): b~2=1]"
    assert str(reduced_betti(SOLID, 0)) == "[Q: all zero]"
    assert reduced_betti(EMPTY).matches_sphere(-1)
    assert BettiProfile(2, ()).is_trivial()


def test_field_validation():
    for field in (3, 4, 5, -1):
        with pytest.raises(ValueError, match="must be 2 or 0"):
            reduced_betti(POINT, field)


def test_face_budget():
    big = SimplicialComplex(range(18), [tuple(range(18))])
    with pytest.raises(BudgetExceededError, match="budget"):
        big.num_faces()
    assert big.num_faces(budget=2 ** 18) == 2 ** 18


def test_rank_backends_agree_on_boundary_matrices():
    for k in (CIRCLE, OCTAHEDRON, PROJECTIVE_PLANE, SOLID):
        by_dim = k._faces_by_dim()
        for d in range(1, max(by_dim) + 1):
            index = {f: i for i, f in enumerate(by_dim[d - 1])}
            rows = _boundary_rows_signed(by_dim[d], index)
            masks = []
            for row in rows:
                m = 0
                for col in row:
                    m |= 1 << col
                masks.append(m)
            r2 = _rank_gf2(masks)
            rq = _rank_sparse(rows)
            assert r2 <= rq  # mod-2 rank is a lower bound for integer matrices


def test_rank_helpers_small_cases():
    assert _rank_gf2([0b11, 0b01, 0b10]) == 2
    assert _rank_gf2([]) == 0
    assert _rank_sparse([{0: 2, 1: 4}, {0: 1, 1: 2}]) == 1
    # 2*(1,2) and 3*(1,2): the gcd of each row is divided out
    assert _rank_sparse([{0: 2, 1: 4}, {0: 3, 1: 6}]) == 1
    # (2,4) and (3,5): rank 2 over Q, but mod 2 they are (0,0) and (1,1)
    assert _rank_sparse([{0: 2, 1: 4}, {0: 3, 1: 5}]) == 2
    assert _rank_gf2([0b00, 0b11]) == 1
    assert _rank_sparse([{0: 0, 1: 3}, {1: -6}]) == 1
    assert _rank_sparse([]) == 0


def _eliminated_rational(K):
    """Reduced rational Betti numbers from integer elimination on every
    boundary matrix, never from the GF(2) profile."""
    by_dim = K._faces_by_dim()
    top = max(by_dim)
    ranks = {0: 1 if by_dim.get(0) else 0}
    for d in range(1, top + 1):
        index = {f: i for i, f in enumerate(by_dim[d - 1])}
        ranks[d] = _rank_sparse(_boundary_rows_signed(by_dim[d], index))
    betti = ((d, len(by_dim.get(d, ())) - ranks.get(d, 0) - ranks.get(d + 1, 0))
             for d in range(-1, top + 1))
    return tuple((d, b) for d, b in betti if b)


def test_parity_rule_agrees_with_elimination_on_subword_complexes():
    checked = 0
    for system in (CoxeterSystem.type_a(2), CoxeterSystem.type_b(2)):
        for length in range(6):
            for Q in itertools.product((1, 2), repeat=length):
                w = demazure(system, Q)
                for u in system.elements():
                    if bruhat_leq(u, w):
                        K = subword_complex(system, Q, u).as_simplicial_complex()
                        assert reduced_betti(K, 0).counts == _eliminated_rational(K), (Q, u)
                        checked += 1
    assert checked > 500


def test_parity_rule_agrees_with_elimination_on_b3_intervals():
    b3 = CoxeterSystem.type_b(3)
    e = b3.identity
    intervals = [w for w in b3.elements() if w.length == 6]
    for w in intervals:
        closed = bruhat_interval(e, w)
        K = order_complex(closed.restrict([x for x in closed.ground if x not in (e, w)]))
        assert reduced_betti(K, 0).counts == _eliminated_rational(K) == ((4, 1),)
    assert len(intervals) == 7


def test_rational_profile_of_one_parity_skips_elimination(monkeypatch):
    def refuse(rows):
        raise AssertionError("integer elimination ran")

    monkeypatch.setattr(coxsort.homology, "_rank_sparse", refuse)
    for k in (EMPTY, POINT, TWO_POINTS, CIRCLE, SOLID, OCTAHEDRON, PATH):
        assert reduced_betti(k, 0).counts == reduced_betti(k, 2).counts
    with pytest.raises(AssertionError, match="elimination ran"):
        reduced_betti(PROJECTIVE_PLANE, 0)


def test_order_complex_of_chain_is_simplex():
    import numpy as np
    p = Poset(range(3), [[i <= j for j in range(3)] for i in range(3)])
    k = order_complex(p)
    assert k.facets == {frozenset({0, 1, 2})}
    empty = Poset([], np.zeros((0, 0), dtype=bool))
    assert order_complex(empty).facets == {frozenset()}


def test_order_complex_antichain():
    import numpy as np
    p = Poset("ab", np.eye(2, dtype=bool))
    k = order_complex(p)
    assert k.facets == {frozenset("a"), frozenset("b")}
    assert reduced_betti(k).numbers == {0: 1}


def face_poset(K):
    """The nonempty faces of ``K`` under inclusion."""
    return inclusion_poset_bruteforce(f for f in K.faces() if f)


def test_face_poset_roundtrip():
    fp = face_poset(CIRCLE)
    assert len(fp) == 6  # the empty face is excluded
    assert len(CIRCLE.faces()) == 7
    # barycentric subdivision preserves homology
    subdivided = order_complex(fp)
    assert reduced_betti(subdivided).numbers == reduced_betti(CIRCLE).numbers


def test_barycentric_invariance_for_subword_complexes():
    b2 = CoxeterSystem.type_b(2)
    for Q, word in (((1, 2, 1, 2), (1, 2, 1)), ((1, 2, 1, 2, 1), (1, 2, 1, 2))):
        k = subword_complex(b2, Q, b2.element(word)).as_simplicial_complex()
        subdivided = order_complex(face_poset(k))
        for field in (2, 0):
            assert (reduced_betti(k, field).numbers
                    == reduced_betti(subdivided, field).numbers)


def test_contractibility_evidence():
    cone = contractibility_evidence(SOLID)
    assert cone.contractible and cone.method == "cone"
    assert cone.betti == ()
    path = contractibility_evidence(PATH)
    assert path.contractible and path.method == "homology"
    fields = [p.coefficient_field for p in path.betti]
    assert fields == [2, 0]
    assert all(p.is_trivial() for p in path.betti)
    hole = contractibility_evidence(CIRCLE)
    assert not hole.contractible and hole.method is None
    assert contractibility_evidence(PATH).contractible
    assert not contractibility_evidence(OCTAHEDRON).contractible


def test_both_fields_share_one_gf2_pass(monkeypatch):
    # one GF(2) elimination per boundary matrix when both profiles are asked for
    real = coxsort.homology._rank_gf2
    calls = []

    def counted(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(coxsort.homology, "_rank_gf2", counted)
    evidence = contractibility_evidence(OCTAHEDRON)
    assert [p.numbers for p in evidence.betti] == [{2: 1}, {2: 1}]
    assert len(calls) == 2  # the boundary matrices of dimensions 1 and 2
    calls.clear()
    b2 = CoxeterSystem.type_b(2)
    complex_ = subword_complex(b2, (1, 2, 1, 2, 1), b2.element((1, 2)))
    report = certify_subword_complex(complex_)
    assert report.kind == "ball" and all(report.matches)
    assert len(calls) == complex_.dim == 2


def test_euler_characteristic_matches_betti_alternation():
    for k in (EMPTY, POINT, TWO_POINTS, CIRCLE, SOLID, OCTAHEDRON, PATH):
        profile = reduced_betti(k, 0)
        total = sum((1 if d % 2 == 0 else -1) * b for d, b in profile.counts)
        assert total == k.reduced_euler_characteristic()
