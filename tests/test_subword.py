import gc
import itertools
from functools import reduce
from operator import and_

import pytest

import coxsort.homology
from coxsort import (BudgetExceededError, CoxeterSystem, RunConfig, VoidComplexError, run_check,
                     subword, subword_complex)
from coxsort.fibermap import certify_fiber_contractible
from coxsort.homology import SimplicialComplex, _profiles
from coxsort.hecke import _below, bruhat_leq, demazure
from coxsort.oracles import cone_vertex, subword_facets_bruteforce
from coxsort.verify import _FIBER_CASES, named_system
from test_homology import (CIRCLE, EMPTY, NON_PURE, OCTAHEDRON, PATH, POINT, PROJECTIVE_PLANE,
                           SOLID, TWO_POINTS)
from coxsort.subword import (SubwordComplex, _fold, _positions, _spellings,
                             certify_subword_complex, certify_subword_complexes)


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
                back = _spellings(b2, Q, u.index, _fold(b2, Q).bounds, False)
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
    # every subset of Q has one Demazure product, so the interior faces of
    # the Delta(Q, u) with u below the product of Q are disjoint and number
    # 2^|Q| in all, and the walk lists none twice
    b2 = CoxeterSystem.type_b(2)
    kinds = set()
    for n in range(7):
        for Q in itertools.product((1, 2), repeat=n):
            w = demazure(b2, Q)
            bounds = _fold(b2, Q).bounds
            interiors = set()
            total = 0
            for u in b2.elements():
                if not bruhat_leq(u, w):
                    continue
                c = subword_complex(b2, Q, u)
                want = {F for F in c.faces()
                        if demazure(b2, [s for j, s in enumerate(Q, 1) if j not in F]) == u}
                assert c.interior_faces() == want
                assert c.boundary_faces() == c.faces() - want
                listed = _spellings(b2, Q, u.index, bounds, True)
                assert len(listed) == len(set(listed)) == len(want), (Q, u)
                interiors |= want
                total += len(want)
                kinds.add(c.classify())
            assert len(interiors) == total == 2 ** n, Q
    assert kinds == {"ball", "sphere"}


# check 06's inputs: every word of length at most 6 over the A2 and B2 generators
CHECK_06_WORDS = [Q for n in range(7) for Q in itertools.product((1, 2), repeat=n)]


def _check_06_systems():
    return CoxeterSystem.type_a(2), CoxeterSystem.type_b(2)


def test_batch_equals_one_instance_calls_on_check_06_inputs():
    for system in _check_06_systems():
        want = [(Q, u, certify_subword_complex(subword_complex(system, Q, u)))
                for Q in CHECK_06_WORDS for u in _below(demazure(system, Q))]
        got = list(certify_subword_complexes(system, CHECK_06_WORDS))
        assert got == want


def _spy(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_batch_folds_each_word_once_and_computes_each_distinct_complex_once(monkeypatch):
    # the sharing belongs to one call: equal keys within a call share one
    # _profiles, and a second call starts again from nothing; every cone (a
    # vertex in every facet) has the key (), so all of them share one
    systems = _check_06_systems()
    complexes = [[subword_complex(system, Q, u)
                  for Q in CHECK_06_WORDS for u in _below(demazure(system, Q))]
                 for system in systems]
    keys = [{K._key() for K in c} for c in complexes]
    assert [len(k) for k in keys] == [81, 87]
    assert [len({K._key() for K in c if not reduce(and_, K._facet_masks)})
             for c in complexes] == [80, 86]
    folds = _spy(monkeypatch, subword, "_suffix_demazure")
    cold = _spy(monkeypatch, coxsort.homology, "_profiles")
    for system, distinct in zip(systems, keys):
        for _ in range(2):
            folds.clear()
            cold.clear()
            reports = list(certify_subword_complexes(system, CHECK_06_WORDS))
            assert [Q for _, Q in folds] == CHECK_06_WORDS
            assert len(cold) == len(distinct) < len(reports)
            assert {K._key() for (K,) in cold} == distinct
    # check 06 itself: one call per group, one fold per word
    folds.clear()
    cold.clear()
    assert run_check("ball_sphere_classification", RunConfig()).instances == 1386
    assert len(folds) == 2 * len(CHECK_06_WORDS) == 254
    assert len(cold) == 81 + 87


def _pass_cases():
    """Check 06's words, check 07's and the A3 words of length at most 7."""
    for system in _check_06_systems():
        yield from ((system, Q) for Q in CHECK_06_WORDS)
    yield from ((named_system(gname), Q) for gname, Q in _FIBER_CASES)
    a3 = CoxeterSystem.type_a(3)
    yield from ((a3, Q) for n in range(8) for Q in itertools.product((1, 2, 3), repeat=n))


def test_one_pass_finds_every_cone_and_counts_every_face():
    # used[u] is every position off the intersection of the facets, and
    # faces[u] the number of faces that enumeration from the facets builds;
    # off the targets both are 0
    targets = cones = 0
    for system, Q in _pass_cases():
        fold = _fold(system, Q)
        full = (1 << len(Q)) - 1
        for u in system.elements():
            x = u.index
            if not fold.bounds[0][x]:
                assert fold.used[x] == fold.faces[x] == 0, (Q, u)
                continue
            K = SubwordComplex._folded(system, Q, u, fold)
            common = reduce(and_, K._facet_masks)
            assert fold.used[x] == full ^ common, (Q, u)
            assert fold.faces[x] == sum(map(len, K._face_levels())) == K.num_faces(), (Q, u)
            assert K._cone == bool(common)
            targets += 1
            cones += K._cone
    # check 06's share is 1,386 complexes and 1,056 cones
    assert (targets, cones) == (40861, 36318)


def test_one_facet_exactly_when_the_count_is_a_power_of_two_and_one_cone_rule():
    # Delta(Q, u) is pure of dimension len(Q) - l(u) - 1, so it has one
    # facet exactly when it has 2^(len(Q) - l(u)) faces, which is how the
    # fiber certificate reads it; the cone rule of SimplicialComplex, a
    # vertex in every facet, is the oracle's, on the standard spaces and on
    # every subword complex, whose fold's cone test agrees with it
    for K in (EMPTY, POINT, TWO_POINTS, CIRCLE, SOLID, OCTAHEDRON, PROJECTIVE_PLANE, PATH,
              NON_PURE):
        assert K._cone == (cone_vertex(K) is not None), K
    targets = single = 0
    for system, Q in _pass_cases():
        fold = _fold(system, Q)
        for u in system.elements():
            if not fold.bounds[0][u.index]:
                continue
            K = SubwordComplex._folded(system, Q, u, fold)
            one = fold.faces[u.index] == 2 ** (len(Q) - u.length)
            assert one == (len(K._facet_masks) == 1), (Q, u)
            assert SimplicialComplex._cone.func(K) == K._cone == (cone_vertex(K) is not None)
            targets += 1
            single += one
    assert (targets, single) == (40861, 10201)


def test_a_64_letter_word_counts_its_2_to_the_64_faces_and_builds_none():
    a3 = CoxeterSystem.type_a(3)
    Q = (1, 2, 3) * 21 + (1,)
    K = subword_complex(a3, Q, a3.identity)
    assert len(Q) == 64 and K.num_faces(budget=2 ** 64) == 2 ** 64
    with pytest.raises(BudgetExceededError) as exc:
        K.num_faces()
    assert (exc.value.budget, exc.value.limit, exc.value.spent) == (
        "face_budget", 200_000, 2 ** 64)
    assert K._levels is None and "_facet_masks" not in vars(K)


def test_a_complex_over_the_budget_raises_on_its_count_before_building_a_face(monkeypatch):
    # the 5-simplex Delta((1,) * 6, e) has 64 faces; enumeration used to
    # raise part way through a level, with 64 spent at this budget but 41
    # at a budget of 40
    b2 = CoxeterSystem.type_b(2)
    searches = _spy(monkeypatch, subword, "_spellings")
    for budget in (40, 63):
        monkeypatch.setattr(coxsort.homology, "DEFAULT_FACE_BUDGET", budget)
        K = subword_complex(b2, (1,) * 6, b2.identity)
        for ask in (K.num_faces, K.faces, K.interior_faces,
                    lambda: certify_subword_complex(K)):
            with pytest.raises(BudgetExceededError) as exc:
                ask()
            assert (exc.value.limit, exc.value.spent) == (budget, 64)
        assert K._levels is None and searches == []
    monkeypatch.setattr(coxsort.homology, "DEFAULT_FACE_BUDGET", 64)
    assert K.num_faces() == len(K.faces()) == 64 and len(searches) == 1


def test_the_batch_proves_its_cones_with_no_facet_search_and_no_face(monkeypatch):
    # the profiles are those of the homology of every complex, cones included
    for system in _check_06_systems():
        for Q, u, report in certify_subword_complexes(system, CHECK_06_WORDS):
            assert report.profiles == _profiles(subword_complex(system, Q, u)), (Q, u)
    searches = _spy(monkeypatch, subword, "_spellings")
    built = _spy(monkeypatch, SimplicialComplex, "_enumerate")
    counts = []
    for system in _check_06_systems():
        searches.clear()
        built.clear()
        reports = list(certify_subword_complexes(system, CHECK_06_WORDS))
        counts.append((len(reports), len(searches), len(built)))
    # 1,386 complexes, 1,056 of them cones: 330 facet listings, and the
    # 166 distinct complexes among them enumerated once each
    assert counts == [(649, 159, 80), (737, 171, 86)]


def test_batch_takes_any_iterable_and_checks_each_word():
    b2 = CoxeterSystem.type_b(2)
    got = list(certify_subword_complexes(b2, iter([[1, 2], (2, 1, 2, 1)])))
    assert [(Q, u) for Q, u, _ in got] == (
        [((1, 2), u) for u in _below(b2.element((1, 2)))]
        + [((2, 1, 2, 1), u) for u in b2.elements()])
    assert list(certify_subword_complexes(b2, [])) == []
    with pytest.raises(ValueError):
        list(certify_subword_complexes(b2, [(1, 3)]))


def _first_over_budget(system, words):
    """The first (Q, u) of a batch whose one-instance certificate raises,
    with that error, or None."""
    for Q in words:
        for u in _below(demazure(system, Q)):
            try:
                certify_subword_complex(subword_complex(system, Q, u))
            except BudgetExceededError as exc:
                return Q, u, exc
    return None


def _same_error(got, want):
    assert str(got) == str(want)
    assert (got.budget, got.limit, got.spent, got.subject) == (
        want.budget, want.limit, want.spent, want.subject)


@pytest.mark.parametrize("budget", [20, 40, 63])
def test_batch_raises_at_the_first_instance_over_the_budget(monkeypatch, budget):
    monkeypatch.setattr(coxsort.homology, "DEFAULT_FACE_BUDGET", budget)
    cold = _spy(monkeypatch, coxsort.homology, "_profiles")
    for system in _check_06_systems():
        Q, u, want = _first_over_budget(system, CHECK_06_WORDS)
        assert want.subject.endswith(f"target={u!r} in {system!r}")
        cold.clear()
        seen = []
        with pytest.raises(BudgetExceededError) as exc:
            for Q_, u_, _ in certify_subword_complexes(system, CHECK_06_WORDS):
                seen.append((Q_, u_))
        _same_error(exc.value, want)
        # every instance before the failing one was certified, most of them
        # by shared hits
        order = [(P, x) for P in CHECK_06_WORDS for x in _below(demazure(system, P))]
        assert seen == order[:order.index((Q, u))]
        assert len(cold) - 1 < len(seen)


def test_a_shared_hit_over_a_lowered_budget_raises_as_a_cold_call(monkeypatch):
    # both reduced words of w0 in B2 give the full simplex on four
    # positions (16 faces) for u = e: the second is a hit, and the budget
    # lowered between the two words turns it into the cold call's error
    b2 = CoxeterSystem.type_b(2)
    words = [(1, 2, 1, 2), (2, 1, 2, 1)]
    batch = certify_subword_complexes(b2, words)
    for _ in b2.elements():
        next(batch)
    monkeypatch.setattr(coxsort.homology, "DEFAULT_FACE_BUDGET", 10)
    with pytest.raises(BudgetExceededError) as want:
        certify_subword_complex(subword_complex(b2, words[1], b2.identity))
    with pytest.raises(BudgetExceededError) as got:
        next(batch)
    _same_error(got.value, want.value)
    assert got.value.subject == f"Q=2,1,2,1, target=<e> in {b2!r}"
