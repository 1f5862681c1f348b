import itertools
import math
import random

import numpy as np
import pytest

import coxsort.fibermap
import coxsort.homology
from coxsort import (BudgetExceededError, CoxeterSystem, certify_subword_complex,
                     subword_complex)
from coxsort.fibermap import certify_interval_sphere, certify_interval_spheres
from coxsort.hecke import bruhat_leq, demazure
from coxsort.homology import (DEFAULT_FACE_BUDGET, BettiProfile, SimplicialComplex,
                              _betti_counts, _boundary_rows, _OrderComplex, _pivots_gf2,
                              _pivots_q, _profiles, order_complex, reduced_betti)
from coxsort.oracles import (cone_vertex, contractibility_evidence, faces_bruteforce,
                             inclusion_poset_bruteforce)
from coxsort.posets import Poset, bruhat_interval
from coxsort.verify import RunConfig, run_check

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
# a triangle, an edge and an isolated point, over vertices listed out of order
NON_PURE = SimplicialComplex((6, 3, 1, 5, 2, 4), [(1, 2, 3), (4, 5), (6,)])


def _reduced_euler(K):
    """The reduced Euler characteristic of ``K``, the alternating count of
    the faces of the oracle, the empty face in dimension -1."""
    return sum(len(f) if d % 2 == 0 else -len(f) for d, f in faces_bruteforce(K).items())


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


def test_facets_below_the_top_size_are_still_pruned():
    k = SimplicialComplex(range(1, 7), [(1, 2, 3), (4, 5), (4,), (6,), (2, 3)])
    assert k.facets == {frozenset({1, 2, 3}), frozenset({4, 5}), frozenset({6})}


def test_basic_face_counts():
    assert EMPTY.dim == -1
    assert EMPTY.num_faces() == 1
    assert POINT.num_faces() == 2
    assert SOLID.num_faces() == 8
    assert OCTAHEDRON.num_faces() == 1 + 6 + 12 + 8
    assert _reduced_euler(CIRCLE) == -1  # -1 + 3 - 3
    assert _reduced_euler(OCTAHEDRON) == 1  # -1 + 6 - 12 + 8
    assert _reduced_euler(EMPTY) == -1


def test_cone_vertex():
    assert cone_vertex(SOLID) == 1
    assert cone_vertex(CIRCLE) is None
    assert cone_vertex(EMPTY) is None
    assert cone_vertex(POINT) == "a"
    star = SimplicialComplex("zabc", [("z", "a"), ("z", "b"), ("z", "c")])
    assert cone_vertex(star) == "z"


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
    assert _reduced_euler(PROJECTIVE_PLANE) == 0


def test_profile_helpers():
    p = reduced_betti(OCTAHEDRON)
    assert p.matches_sphere(2)
    assert not p.matches_sphere(1)
    assert not p.is_trivial()
    assert p.numbers == {2: 1}
    assert str(p) == "[GF(2): b~2=1]"
    assert str(reduced_betti(SOLID, 0)) == "[Q: all zero]"
    assert reduced_betti(EMPTY).matches_sphere(-1)
    assert BettiProfile(2, ()).is_trivial()


def test_field_validation():
    for field in (3, 4, 5, -1):
        with pytest.raises(ValueError, match="must be 2 or 0"):
            reduced_betti(POINT, field)
    # 2.0 and 0.0 are no field, False is no rationals; numpy integers pass
    b2 = CoxeterSystem.type_b(2)
    pair = (b2.identity, b2.longest_element())
    for field in (2.0, 0.0, np.float64(0), False, True, np.bool_(False), "2", None):
        with pytest.raises(ValueError, match="coefficient field"):
            reduced_betti(POINT, field)
        with pytest.raises(ValueError, match="coefficient field"):
            certify_interval_spheres([pair], field)
        with pytest.raises(ValueError, match="coefficient field"):
            certify_interval_sphere(*pair, field)
    for field, name in ((np.int64(2), "GF(2)"), (np.int8(0), "Q")):
        assert str(reduced_betti(CIRCLE, field)) == f"[{name}: b~1=1]"
        assert certify_interval_spheres([pair], field)[0].matches


def test_face_budget():
    big = SimplicialComplex(range(18), [tuple(range(18))])
    with pytest.raises(BudgetExceededError, match="budget"):
        big.num_faces()
    assert big.num_faces(budget=2 ** 18) == 2 ** 18


def test_face_budget_error_names_the_budget_whatever_the_cache_state(monkeypatch):
    big = SimplicialComplex(range(18), [tuple(range(18))])
    with pytest.raises(BudgetExceededError, match="budget of 100 faces") as exc:
        big.num_faces(budget=100)
    assert (exc.value.budget, exc.value.limit) == ("face_budget", 100)
    # level 16 alone holds 153 faces, but the budget is checked face by face
    # while a level is built, so the walk stops within one boundary of it
    assert 100 < exc.value.spent <= 100 + 17
    assert big.num_faces(budget=2 ** 18) == 2 ** 18  # now cached
    with pytest.raises(BudgetExceededError) as exc:
        big.num_faces(2 ** 18 - 1)
    assert (exc.value.limit, exc.value.spent) == (2 ** 18 - 1, 2 ** 18)
    monkeypatch.setattr(coxsort.homology, "DEFAULT_FACE_BUDGET", 2 ** 18 - 1)
    for ask in (big.num_faces, big.faces, lambda: reduced_betti(big, 2)):
        with pytest.raises(BudgetExceededError) as exc:
            ask()
        assert (exc.value.limit, exc.value.spent) == (2 ** 18 - 1, 2 ** 18)
    monkeypatch.setattr(coxsort.homology, "DEFAULT_FACE_BUDGET", 1000)
    with pytest.raises(BudgetExceededError):
        reduced_betti(big, 2)


def test_rank_backends_agree_on_boundary_matrices():
    for k in (CIRCLE, OCTAHEDRON, PROJECTIVE_PLANE, SOLID):
        levels = k._face_levels()
        for size in range(2, len(levels)):
            rows = _boundary_rows(levels, size, 0, ())
            masks = _boundary_rows(levels, size, 2, ())
            assert masks == [sum(1 << col for col in row) for row in rows]
            r2 = len(_pivots_gf2(masks))
            rq = len(_pivots_q(rows))
            assert r2 <= rq  # mod-2 rank is a lower bound for integer matrices


def test_rank_helpers_small_cases():
    # the pivot column of a GF(2) row is its top bit, of a Q row its least column
    assert _pivots_gf2([0b11, 0b01, 0b10]) == {0, 1}
    assert _pivots_gf2([]) == set()
    assert _pivots_q([{0: 2, 1: 4}, {0: 1, 1: 2}]) == {0}
    # 2*(1,2) and 3*(1,2): the gcd of each row is divided out
    assert _pivots_q([{0: 2, 1: 4}, {0: 3, 1: 6}]) == {0}
    # (2,4) and (3,5): rank 2 over Q, but mod 2 they are (0,0) and (1,1)
    assert _pivots_q([{0: 2, 1: 4}, {0: 3, 1: 5}]) == {0, 1}
    assert _pivots_gf2([0b00, 0b11]) == {1}
    assert _pivots_q([{0: 0, 1: 3}, {1: -6}]) == {1}
    assert _pivots_q([]) == set()


def _bruteforce_betti(K, p):
    """Reduced Betti numbers over GF(2) (p = 2) or Q (p = 0) from the tuple
    faces of the oracle, with the sign of a deleted vertex read off its
    position in the tuple; over Q integer elimination always runs, never
    the GF(2) profile."""
    by_dim = faces_bruteforce(K)
    top = max(by_dim)
    ranks = {0: 1 if by_dim.get(0) else 0}
    for d in range(1, top + 1):
        index = {f: i for i, f in enumerate(by_dim[d - 1])}
        rows = [{index[f[:i] + f[i + 1:]]: (-1) ** i for i in range(len(f))}
                for f in by_dim[d]]
        ranks[d] = len(_pivots_gf2([sum(1 << col for col in row) for row in rows]) if p == 2
                       else _pivots_q(rows))
    betti = ((d, len(by_dim.get(d, ())) - ranks.get(d, 0) - ranks.get(d + 1, 0))
             for d in range(-1, top + 1))
    return tuple((d, b) for d, b in betti if b)


def _assert_matches_bruteforce(K):
    """Faces, per-dimension counts, face total and both Betti profiles of
    ``K`` equal those of the tuple-combination oracle, and the Betti numbers
    alternate to its reduced Euler characteristic."""
    by_dim = faces_bruteforce(K)
    levels = K._face_levels()
    as_tuples = {k - 1: [tuple(i for i in range(m.bit_length()) if m >> i & 1) for m in level]
                 for k, level in enumerate(levels)}
    assert {d: sorted(f) for d, f in as_tuples.items()} == by_dim
    assert all(level == sorted(level) for level in levels)
    assert K.faces() == {frozenset(K.vertices[i] for i in f)
                         for faces in by_dim.values() for f in faces}
    assert K.num_faces() == sum(map(len, by_dim.values()))
    assert reduced_betti(K, 2).counts == _bruteforce_betti(K, 2)
    assert reduced_betti(K, 0).counts == _bruteforce_betti(K, 0)
    assert sum(b if d % 2 == 0 else -b for d, b in reduced_betti(K, 0).counts) == sum(
        len(f) if d % 2 == 0 else -len(f) for d, f in by_dim.items())


def test_faces_match_the_bruteforce_enumeration():
    for k in (EMPTY, POINT, TWO_POINTS, CIRCLE, SOLID, OCTAHEDRON, PROJECTIVE_PLANE, PATH,
              NON_PURE):
        _assert_matches_bruteforce(k)
    assert reduced_betti(NON_PURE).numbers == {0: 2}
    assert NON_PURE.num_faces() == 1 + 6 + 4 + 1


def test_parity_rule_agrees_with_elimination_on_subword_complexes():
    # the A2/B2 complexes of check 06 (words of length <= 6), and A3 words
    # of length <= 5; the rational profile is checked against elimination
    checked = 0
    for system, length_cap in ((CoxeterSystem.type_a(2), 6), (CoxeterSystem.type_b(2), 6),
                               (CoxeterSystem.type_a(3), 5)):
        gens = range(1, system.rank + 1)
        for length in range(length_cap + 1):
            for Q in itertools.product(gens, repeat=length):
                w = demazure(system, Q)
                for u in system.elements():
                    if bruhat_leq(u, w):
                        _assert_matches_bruteforce(subword_complex(system, Q, u))
                        checked += 1
    assert checked == 649 + 737 + 2883


def _open_intervals(system):
    """(u, w, open interval) for every u < w of ``system`` with
    2 <= l(w) - l(u) <= 6."""
    for w in system.elements():
        for u in system.elements():
            if 2 <= w.length - u.length <= 6 and bruhat_leq(u, w):
                closed = bruhat_interval(u, w)
                yield u, w, closed.restrict([x for x in closed.ground if x not in (u, w)])


def _b3_open_intervals():
    return _open_intervals(CoxeterSystem.type_b(3))


def test_parity_rule_agrees_with_elimination_on_b3_intervals():
    checked = 0
    for u, w, inner in _b3_open_intervals():
        K = order_complex(inner)
        _assert_matches_bruteforce(K)
        checked += 1
        if u == u.system.identity and w.length == 6:
            assert reduced_betti(K, 0).counts == ((4, 1),)
    assert checked == 635


def _assert_chain_walk_matches_facets(P):
    """The chain levels of ``order_complex(P)`` are the face levels of the
    complex on its facets, and the facets are the chains that no element
    of ``P`` extends."""
    K = order_complex(P)
    levels = K._face_levels()
    assert levels == SimplicialComplex(P.ground, K.facets)._face_levels()
    n = len(P)
    comparable = [sum(1 << j for j in np.flatnonzero(row).tolist()) for row in P.leq | P.leq.T]
    maximal = [m for level in levels for m in level
               if all(m & ~comparable[x] for x in range(n) if not m >> x & 1)]
    assert K.facets == {frozenset(P.ground[i] for i in range(n) if m >> i & 1)
                        for m in maximal}


def test_chain_walk_matches_the_facets():
    checked = 0
    for _, _, inner in _b3_open_intervals():
        _assert_chain_walk_matches_facets(inner)
        checked += 1
    assert checked == 635
    for K in (CIRCLE, OCTAHEDRON, PROJECTIVE_PLANE, NON_PURE):
        _assert_chain_walk_matches_facets(face_poset(K))
    _assert_chain_walk_matches_facets(Poset([], np.zeros((0, 0), dtype=bool)))


def _maximal_chain_count(P):
    """Maximal chains of ``P`` as paths in its cover graph from a minimal
    to a maximal element."""
    covers = P.covers()
    up = {}
    for a, b in covers:
        up.setdefault(a, []).append(b)
    paths = {}
    for x in reversed(P.ground):  # the ground is a linear extension
        paths[x] = sum(paths[y] for y in up[x]) if x in up else 1
    has_lower = {b for _, b in covers}
    # the empty poset has one maximal chain, the empty one
    return sum(paths[x] for x in P.ground if x not in has_lower) or 1


@pytest.mark.parametrize("system", [CoxeterSystem.type_a(3), CoxeterSystem.type_b(3)],
                         ids=["A3", "B3"])
def test_order_complex_facets_are_the_maximal_chains(system):
    # every maximal chain of a Bruhat interval has l(w) - l(u) + 1 elements
    for w in system.elements():
        for u in system.elements():
            if not bruhat_leq(u, w):
                continue
            closed = bruhat_interval(u, w)
            d = w.length - u.length
            intervals = [(closed, d + 1)]
            if d:
                intervals.append((closed.restrict(closed.ground[1:-1]), d - 1))
            for P, size in intervals:
                try:
                    facets = order_complex(P).facets
                except BudgetExceededError:
                    # only [e, w0] of B3: it has 4 times the chains of (e, w0)
                    assert P is closed and (u, w) == (system.identity,
                                                      system.longest_element())
                    continue
                assert {len(f) for f in facets} == {size}
                assert len(facets) == _maximal_chain_count(P)


def test_order_complex_facets_and_dim_raise_over_the_face_budget():
    # [e, w0] in H3 has 19,405,824 maximal chains, which reading the facets
    # used to build one by one with no budget
    h3 = CoxeterSystem.type_h3()
    interval = bruhat_interval(h3.identity, h3.longest_element())
    for attribute in ("facets", "dim"):
        with pytest.raises(BudgetExceededError) as exc:
            getattr(order_complex(interval), attribute)
        assert exc.value.budget == "face_budget"
        assert exc.value.limit == DEFAULT_FACE_BUDGET < exc.value.spent


def _open_interval_complex(system, w):
    """The order complex of the open Bruhat interval (e, w)."""
    closed = bruhat_interval(system.identity, w)
    return order_complex(closed.restrict(closed.ground[1:-1]))


def test_clearing_eliminates_only_rows_that_can_lead(monkeypatch):
    # top down, the rows eliminated out of the k-vertex faces number
    # f_k - rank(boundary out of the (k+1)-vertex faces): the cleared faces
    # are exactly the pivots of the matrix above; f_k counts the faces the
    # elimination sees, all of them or, in an order complex, those outside
    # the stars of one maximal chain
    b3 = CoxeterSystem.type_b(3)
    interval = _open_interval_complex(b3, next(w for w in b3.elements() if w.length == 6))
    for K, field, name in ((OCTAHEDRON, 2, "_pivots_gf2"), (interval, 2, "_pivots_gf2"),
                           (PROJECTIVE_PLANE, 0, "_pivots_q")):
        levels = K._relative_levels()
        real = getattr(coxsort.homology, name)
        full = {k: len(real(_boundary_rows(levels, k, field, ()))) for k in range(2, len(levels))}
        full[len(levels)] = 0
        eliminated = []
        monkeypatch.setattr(coxsort.homology, name,
                            lambda rows: eliminated.append(len(rows)) or real(rows))
        reduced_betti(K, field)
        top = len(levels) - 1
        assert eliminated == [len(levels[k]) - full[k + 1] for k in range(top, 1, -1)]
        assert sum(eliminated) < sum(map(len, levels[2:]))
        monkeypatch.undo()


def _full_counts(K):
    """Both Betti profiles of ``K`` by elimination on every face, the
    empty face included."""
    levels = K._face_levels()
    return _betti_counts(levels, 2), _betti_counts(levels, 0)


def _outside_stars(P, sigma):
    """The chain levels of ``order_complex(P)`` outside the stars of the
    elements at the positions ``sigma``: the chains that hold, for each v in
    ``sigma``, an element incomparable with v, read off the relation."""
    comparable = P.leq | P.leq.T
    n = len(P)
    return [[m for m in level
             if all(any(m >> x & 1 and not comparable[v, x] for x in range(n)) for v in sigma)]
            for level in order_complex(P)._face_levels()]


def _greedy_chain(P):
    """The elements by decreasing number of comparable elements, ties by
    index, each kept when comparable with every element kept before."""
    comparable = P.leq | P.leq.T
    chain = []
    for i in sorted(range(len(P)), key=lambda i: (-int(comparable[i].sum()), i)):
        if all(comparable[i, j] for j in chain):
            chain.append(i)
    return chain


def _random_orders(seed, count):
    """Seeded partial orders on up to 9 elements: the transitive closure of
    random relations i < j at one of four densities."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, 9)
        density = rng.choice((0.1, 0.25, 0.4, 0.6))
        leq = np.eye(n, dtype=bool)
        for i, j in itertools.combinations(range(n), 2):
            leq[i, j] = rng.random() < density
        for k in range(n):
            leq |= leq[:, [k]] & leq[[k], :]
        yield Poset(range(n), leq)


@pytest.mark.parametrize("system, count", [(CoxeterSystem.type_b(2), 13),
                                           (CoxeterSystem.type_a(3), 131),
                                           (CoxeterSystem.type_b(3), 635)],
                         ids=["B2", "A3", "B3"])
def test_relative_route_equals_full_elimination_on_open_intervals(system, count):
    checked = 0
    for _, _, inner in _open_intervals(system):
        K = order_complex(inner)
        assert tuple(p.counts for p in _profiles(K)) == _full_counts(K)
        checked += 1
    assert checked == count


def test_relative_route_equals_full_elimination_on_random_orders():
    seen = set()
    for P in _random_orders(0, 400):
        K = order_complex(P)
        profiles = tuple(p.counts for p in _profiles(K))
        assert profiles == _full_counts(K), P.leq
        seen.add(profiles[0])
    # wedges of spheres, the empty complex, and a mixed profile are among them
    assert {(), ((-1, 1),), ((0, 7),), ((1, 3),), ((0, 1), (1, 2))} <= seen


# a circle and an octahedron sharing the vertex 1
CIRCLE_WEDGE_SPHERE = SimplicialComplex(
    range(1, 9),
    [(1, 2), (2, 3), (1, 3)] + [(a, b, c) for a in (1, 4) for b in (5, 6) for c in (7, 8)])


@pytest.mark.parametrize("base, rational", [(PROJECTIVE_PLANE, {}),
                                            (CIRCLE_WEDGE_SPHERE, {1: 1, 2: 1})],
                         ids=["RP2", "S1vS2"])
def test_relative_route_runs_integer_elimination_on_subdivisions(monkeypatch, base, rational):
    # the order complex of the face poset is the barycentric subdivision;
    # GF(2) {1: 1, 2: 1} has mixed parity, so integer elimination runs, on
    # the chains outside the stars.  With every boundary sign +1 these two
    # subdivisions still give the same ranks, but the wedge itself, whose
    # faces are all eliminated, does not: its circle would be no cycle.
    K = order_complex(face_poset(base))
    assert [p.numbers for p in _profiles(base)] == [{1: 1, 2: 1}, rational]
    real = coxsort.homology._pivots_q
    rows = []
    monkeypatch.setattr(coxsort.homology, "_pivots_q",
                        lambda r: rows.append(len(r)) or real(r))
    assert [p.numbers for p in _profiles(K)] == [{1: 1, 2: 1}, rational]
    relative = K._relative_levels()
    assert 0 < sum(rows) <= sum(map(len, relative[2:])) < sum(map(len, K._face_levels()[2:]))
    monkeypatch.undo()
    assert tuple(p.counts for p in _profiles(K)) == _full_counts(K)


def test_relative_levels_are_the_chains_outside_the_stars_of_a_maximal_chain():
    face_posets = [face_poset(K) for K in (CIRCLE, OCTAHEDRON, PROJECTIVE_PLANE, NON_PURE)]
    for P in itertools.chain((inner for _, _, inner in _b3_open_intervals()),
                             _random_orders(1, 100), face_posets):
        K = order_complex(P)
        sigma = _greedy_chain(P)
        comparable = P.leq | P.leq.T
        assert comparable[np.ix_(sigma, sigma)].all()  # a chain, and a maximal one
        assert all(not comparable[x, sigma].all() for x in range(len(P)) if x not in sigma)
        relative = K._relative_levels()
        assert relative == _outside_stars(P, sigma)
        # the empty face lies in every star, so only the empty order keeps it
        assert (relative[0] == [0]) == (len(P) == 0)


def test_any_chain_gives_the_homology_and_two_incomparable_elements_do_not(monkeypatch):
    # L is contractible for the stars of any chain, a single element
    # included; for two incomparable elements the stars can meet in a
    # non-contractible set, and the planted relative route is wrong
    changed = checked = 0
    pairs = []
    for u, w, P in _b3_open_intervals():
        K = order_complex(P)
        full = _full_counts(K)[0]
        for v in range(0, len(P), 7):  # every seventh element keeps the test short
            assert _betti_counts(_outside_stars(P, [v]), 2) == full
        comparable = P.leq | P.leq.T
        pair = next(p for p in itertools.combinations(range(len(P)), 2) if not comparable[p])
        wrong = _betti_counts(_outside_stars(P, pair), 2)
        changed += wrong != full
        checked += 1
        if wrong != full and w.length - u.length == 4:
            pairs.append((u, w, P, pair))
    assert (changed, checked) == (262, 635)
    # planted in the hook, the fault turns the sphere certificates red
    u, w, P, pair = pairs[0]
    monkeypatch.setattr(coxsort.homology._OrderComplex, "_relative_levels",
                        lambda self: _outside_stars(P, pair))
    report = certify_interval_sphere(u, w)
    assert report.expected_dim == 2 and not report.matches


def _chains_bruteforce(P):
    """Every chain of ``P`` as a vertex mask, with no walk: each element,
    in index order, joins every chain found so far that it is comparable
    with throughout."""
    comparable = [sum(1 << j for j in np.flatnonzero(row).tolist()) for row in P.leq | P.leq.T]
    chains = [0]
    for x in range(len(P)):
        chains += [c | 1 << x for c in chains if not c & ~comparable[x]]
    return chains, comparable


def _by_size(masks, size):
    levels = [[] for _ in range(size)]
    for m in masks:
        levels[m.bit_count()].append(m)
    return [sorted(level) for level in levels]


def _assert_walk_matches_bruteforce(P, every_vertex=False):
    """The walk of ``order_complex(P)`` keeps exactly the brute-force chains
    outside the stars of the greedy maximal chain (and, with
    ``every_vertex``, of each single element), and with sigma empty all of
    them; the counts are the sizes of the brute-force levels."""
    K = order_complex(P)
    chains, comparable = _chains_bruteforce(P)
    full = _by_size(chains, max(c.bit_count() for c in chains) + 1)

    def outside(sigma):
        return _by_size([c for c in chains if all(c & ~comparable[v] for v in sigma)], len(full))

    assert K._relative_levels() == outside(_greedy_chain(P)), P.leq
    for v in range(len(P)) if every_vertex else ():
        assert K._walk(1 << v) == outside([v]), (P.leq, v)
    assert K._levels is None
    assert K._chain_counts() == [len(level) for level in full]
    assert K._face_levels() == full


@pytest.mark.parametrize("system, count", [(CoxeterSystem.type_b(2), 13),
                                           (CoxeterSystem.type_a(3), 131),
                                           (CoxeterSystem.type_b(3), 635)],
                         ids=["B2", "A3", "B3"])
def test_walk_equals_the_bruteforce_filter_on_open_intervals(system, count):
    checked = 0
    for _, _, inner in _open_intervals(system):
        _assert_walk_matches_bruteforce(inner)
        checked += 1
    assert checked == count


def test_walk_equals_the_bruteforce_filter_on_random_orders():
    kinds = {"empty": 0, "antichain": 0, "cone": 0, "other": 0}
    for P in _random_orders(2, 400):
        _assert_walk_matches_bruteforce(P, every_vertex=True)
        comparable = P.leq | P.leq.T
        kinds["empty" if not len(P) else
              "antichain" if len(P) > 1 and comparable.sum() == len(P) else
              "cone" if comparable.all(axis=1).any() else "other"] += 1
    # cones include the one-element orders
    assert kinds == {"empty": 48, "antichain": 54, "cone": 115, "other": 183}


def test_chain_counts_equal_an_independent_count_in_python_ints():
    # the counts come before any chain is built, so a cold complex raises at
    # the first level whose running total crosses the budget
    for P in itertools.chain((inner for _, _, inner in _open_intervals(CoxeterSystem.type_a(3))),
                             _random_orders(3, 100)):
        chains, _ = _chains_bruteforce(P)
        sizes = [0] * (1 + max(c.bit_count() for c in chains))
        for c in chains:
            sizes[c.bit_count()] += 1
        assert order_complex(P)._chain_counts() == sizes
        running = list(itertools.accumulate(sizes))
        for budget in {0, 1, running[-1] // 2, running[-1] - 1} - {running[-1]}:
            crossing = next((r for k, r in enumerate(running) if k and r > budget), running[-1])
            cold = order_complex(P)
            with pytest.raises(BudgetExceededError) as exc:
                cold.num_faces(budget)
            assert (exc.value.limit, exc.value.spent) == (budget, crossing)
            assert cold._counts is None and cold._levels is None
    # a chain of 70 elements has C(70, k) chains of k elements, past int64
    n = 70
    K = order_complex(Poset(range(n), np.triu(np.ones((n, n), dtype=bool))))
    counts = K._chain_counts(2 ** 70)
    assert counts == [math.comb(n, k) for k in range(n + 1)]
    assert all(type(c) is int for c in counts) and max(counts) > 2 ** 63
    assert K.num_faces(2 ** 70) == 2 ** 70 and K._levels is None
    with pytest.raises(BudgetExceededError) as exc:
        K.num_faces(2 ** 70 - 1)
    assert (exc.value.limit, exc.value.spent) == (2 ** 70 - 1, 2 ** 70)


class _ReadCounter(list):
    """A list that counts its item reads: the walk reads ``ups[t]`` once
    for each group of chains, by top and hit, that it extends."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_profiles_of_an_order_complex_build_no_full_levels(monkeypatch):
    # the intervals of the homology benchmark, (e, w) in B3 with l(w) = 6
    # or 7: 41,194 chains are counted, and only the 4,204 outside the stars
    # are built, from 561 groups (6,496 with the prune taken out of the
    # walk, which leaves its output as it is)
    b3 = CoxeterSystem.type_b(3)
    counted = built = groups = 0
    for w in b3.elements():
        if w.length in (6, 7):
            K = _open_interval_complex(b3, w)
            _profiles(K)
            assert K._levels is None
            counted += K.num_faces()
            K.__dict__["_ups"] = spy = _ReadCounter(K._ups)
            built += sum(map(len, K._relative_levels()))
            groups += spy.reads
    assert (counted, built, groups) == (41_194, 4_204, 561)
    # check 08 walks no chain: its EL pass proves every pair; with no pair
    # proven, its homology route walks each distinct open interval once,
    # never with sigma empty
    real = _OrderComplex._walk
    sigmas = []
    monkeypatch.setattr(_OrderComplex, "_walk",
                        lambda self, sigma: sigmas.append(sigma) or real(self, sigma))
    result = run_check("open_interval_spheres", RunConfig())
    assert result.passed and result.instances == 652 and sigmas == []
    monkeypatch.setattr(coxsort.fibermap, "certify_interval_el",
                        lambda system: np.zeros((system.order(),) * 2, dtype=bool))
    result = run_check("open_interval_spheres", RunConfig())
    assert result.passed and result.instances == 652
    assert len(sigmas) == 76 and all(sigmas)


def test_order_complex_face_budget_whatever_the_cache_state(monkeypatch):
    b3 = CoxeterSystem.type_b(3)
    warm = _open_interval_complex(b3, next(w for w in b3.elements() if w.length == 6))
    n = warm.num_faces()
    with monkeypatch.context() as patch:
        patch.setattr(coxsort.homology, "DEFAULT_FACE_BUDGET", n - 1)
        for field in (2, 0):
            with pytest.raises(BudgetExceededError) as exc:
                reduced_betti(warm, field)
            assert (exc.value.limit, exc.value.spent) == (n - 1, n)
    # (e, w0) in H3: the count raises on the first level over the budget,
    # before any chain is built, and a complex that raised keeps no counts
    # and no faces, so it raises again with the same amount spent
    h3 = CoxeterSystem.type_h3()
    cold = _open_interval_complex(h3, h3.longest_element())
    for field in (2, 0, 2):
        with pytest.raises(BudgetExceededError) as exc:
            reduced_betti(cold, field)
        assert exc.value.limit == DEFAULT_FACE_BUDGET < exc.value.spent
        assert (exc.value.limit, exc.value.spent) == (200_000, 1_491_005)
        assert cold._levels is None and cold._counts is None


def test_rational_profile_of_one_parity_skips_elimination(monkeypatch):
    def refuse(rows):
        raise AssertionError("integer elimination ran")

    monkeypatch.setattr(coxsort.homology, "_pivots_q", refuse)
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
        k = subword_complex(b2, Q, b2.element(word))
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


def test_contractibility_evidence_reads_the_cone_under_its_budget(monkeypatch):
    # [e, w0] in B3 has 552,884 chains: over the default budget, so reading
    # its facets raises, but a cone by its bottom element within 10**7
    b3 = CoxeterSystem.type_b(3)
    interval = bruhat_interval(b3.identity, b3.longest_element())
    K = order_complex(interval)
    with monkeypatch.context() as patch:
        patch.setattr(coxsort.homology, "DEFAULT_FACE_BUDGET", 10**7)
        evidence = contractibility_evidence(K)
    assert evidence.contractible and evidence.method == "cone"
    # the default budget still raises, on a cold complex and on K, whose
    # chains are now enumerated
    for complex_ in (order_complex(interval), K):
        with pytest.raises(BudgetExceededError) as exc:
            contractibility_evidence(complex_)
        assert exc.value.budget == "face_budget"
        assert exc.value.limit == DEFAULT_FACE_BUDGET < exc.value.spent


def test_both_fields_share_one_gf2_pass(monkeypatch):
    # one GF(2) elimination per boundary matrix when both profiles are asked for
    real = coxsort.homology._pivots_gf2
    calls = []

    def counted(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(coxsort.homology, "_pivots_gf2", counted)
    evidence = contractibility_evidence(OCTAHEDRON)
    assert [p.numbers for p in evidence.betti] == [{2: 1}, {2: 1}]
    assert len(calls) == 2  # the boundary matrices of dimensions 1 and 2
    calls.clear()
    # a ball of check 06 with no cone vertex: its homology is one GF(2)
    # pass, and its certificate, read off its homotopy type, none
    b2 = CoxeterSystem.type_b(2)
    complex_ = subword_complex(b2, (1, 2, 1, 1, 2), b2.element((1, 2)))
    assert cone_vertex(complex_) is None
    assert [p.numbers for p in _profiles(complex_)] == [{}, {}]
    assert len(calls) == complex_.dim == 2
    calls.clear()
    report = certify_subword_complex(complex_)
    assert report.kind == "ball" and all(report.matches)
    assert calls == []
    # a cone is proved trivial with no elimination at all
    cone = subword_complex(b2, (1, 2, 1, 2, 1), b2.element((1, 2)))
    assert cone_vertex(cone) is not None
    assert all(p.is_trivial() for p in _profiles(cone))
    report = certify_subword_complex(cone)
    assert report.kind == "ball" and all(report.matches)
    assert calls == []


def test_euler_characteristic_matches_betti_alternation():
    for k in (EMPTY, POINT, TWO_POINTS, CIRCLE, SOLID, OCTAHEDRON, PATH):
        profile = reduced_betti(k, 0)
        total = sum((1 if d % 2 == 0 else -1) * b for d, b in profile.counts)
        assert total == _reduced_euler(k)


def _ball_sphere_complexes():
    """Every subword complex of check 06: the words of length at most 6
    over A2 and B2, and every u below their Demazure product."""
    for system in (CoxeterSystem.type_a(2), CoxeterSystem.type_b(2)):
        for n in range(7):
            for Q in itertools.product((1, 2), repeat=n):
                w = demazure(system, Q)
                for u in system.elements():
                    if bruhat_leq(u, w):
                        yield subword_complex(system, Q, u)


def _left(K):
    """The faces that the one elimination route keeps of ``K``."""
    return K._relative_levels()


def test_cone_flag_is_a_vertex_in_every_facet():
    # the relative levels keep no face exactly when a vertex lies in every
    # facet, and every face otherwise
    cones = 0
    for K in _ball_sphere_complexes():
        cone = not any(_left(K))
        assert cone == (cone_vertex(K) is not None), K
        assert _left(K) == ([[]] if cone else K._face_levels()), K
        cones += cone
    assert cones == 1056  # of 1,386 complexes


def test_elimination_agrees_with_the_cone_proof():
    # full elimination finds nothing on each cone, whose relative levels
    # [[]] hold no face, not even the empty one
    assert _betti_counts([[]], 2) == _betti_counts([[]], 0) == ()
    faces = 0
    for K in _ball_sphere_complexes():
        if not any(_left(K)):
            levels = K._face_levels()
            assert _betti_counts(levels, 2) == _betti_counts(levels, 0) == (), K
            assert all(p.is_trivial() for p in _profiles(K))
            faces += sum(map(len, levels))
    assert faces == 34_776


def test_closed_intervals_are_order_complex_cones():
    b3 = CoxeterSystem.type_b(3)
    elements = b3.elements()
    for w in elements[::5]:
        for u in elements:
            if bruhat_leq(u, w):
                P = bruhat_interval(u, w)
                closed = order_complex(P)
                assert not any(_left(closed))  # u and w are comparable to everything
                assert cone_vertex(closed) is not None
                if w.length - u.length >= 2:
                    open_ = order_complex(P.restrict(P.ground[1:-1]))
                    assert any(_left(open_))
                    assert cone_vertex(open_) is None
    # a cone over a single element, and the empty poset, which is no cone
    assert not any(_left(order_complex(Poset("a", [[True]]))))
    empty = order_complex(Poset((), np.zeros((0, 0), dtype=bool)))
    assert _left(empty) == [[0]]
    assert reduced_betti(empty).numbers == {-1: 1}


def test_the_order_complex_cone_rule_is_the_oracle_s():
    # an element comparable with every element lies in every maximal chain,
    # and an element of every maximal chain is comparable with all: on every
    # closed interval [u, w] of B2 and A3, and on the open interval, the
    # inner block of its order (the empty order when l(w) - l(u) <= 1)
    intervals = cones = 0
    for system in (CoxeterSystem.type_b(2), CoxeterSystem.type_a(3)):
        elements = system.elements()
        for u, w in itertools.product(elements, repeat=2):
            if bruhat_leq(u, w):
                P = bruhat_interval(u, w)
                for K in (order_complex(P), _OrderComplex(P.ground[1:-1], P.leq[1:-1, 1:-1])):
                    assert K._cone == (cone_vertex(K) is not None), (u, w)
                    cones += K._cone
                intervals += 1
    # every closed interval is a cone, and no open one: each is a sphere or empty
    assert (intervals, cones) == (246, 246)
    assert not _OrderComplex((), np.zeros((0, 0), dtype=bool))._cone


def test_a_cone_still_counts_its_faces_against_the_budget(monkeypatch):
    # the 17-simplex is a cone; the budget is checked before the cone is
    big = SimplicialComplex(range(17), [tuple(range(17))])
    monkeypatch.setattr(coxsort.homology, "DEFAULT_FACE_BUDGET", 1000)
    for ask in (lambda: reduced_betti(big, 2), lambda: reduced_betti(big, 0),
                lambda: _profiles(big)):
        with pytest.raises(BudgetExceededError) as exc:
            ask()
        assert (exc.value.limit, exc.value.spent) == (1000, 1002)
    monkeypatch.setattr(coxsort.homology, "DEFAULT_FACE_BUDGET", 2 ** 17)
    assert _left(big) == [[]]
    assert reduced_betti(big, 2).is_trivial()
    monkeypatch.setattr(coxsort.homology, "DEFAULT_FACE_BUDGET", 2 ** 17 - 1)
    for ask in (lambda: reduced_betti(big, 2), lambda: _profiles(big)):
        with pytest.raises(BudgetExceededError) as exc:  # warm cache, same verdict
            ask()
        assert (exc.value.limit, exc.value.spent) == (2 ** 17 - 1, 2 ** 17)
