import __future__
import gc
import inspect
import itertools
import random
import textwrap
from collections import Counter

import pytest

import coxsort.homology
from coxsort import (BudgetExceededError, CoxeterSystem, RunConfig, VoidComplexError, fibermap,
                     parse_word, run_check, subword, subword_complex)
from coxsort.fibermap import certify_fiber_contractible
from coxsort.homology import SimplicialComplex, _profiles
from coxsort.hecke import _below, bruhat_leq, demazure, reduced_words
from coxsort.oracles import cone_vertex, subword_facets_bruteforce
from coxsort.verify import _FIBER_CASES, named_system
from test_homology import (CIRCLE, EMPTY, NON_PURE, OCTAHEDRON, PATH, POINT, PROJECTIVE_PLANE,
                           SOLID, TWO_POINTS)
from coxsort.subword import (CONTRACTIBLE, VOID, SubwordComplex, _fold, _positions, _spellings,
                             certify_subword_complex, certify_subword_complexes, homotopy_types)


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


def _spy_complexes(monkeypatch):
    """Spies on every step of the old certificate route: a complex set up,
    a facet or interior-face listing, a face enumeration and an
    elimination, in that order."""
    return (_spy(monkeypatch, SubwordComplex, "_setup"), _spy(monkeypatch, subword, "_spellings"),
            _spy(monkeypatch, SimplicialComplex, "_enumerate"),
            _spy(monkeypatch, coxsort.homology, "_profiles"))


def test_batch_folds_each_word_once_and_computes_each_distinct_complex_once(monkeypatch):
    # the sharing belongs to one call: instances with the same verdict, top
    # dimension and homotopy type share one report object, and a second
    # call starts again from nothing; no complex is set up, no facet listed,
    # no face built and nothing eliminated
    systems = _check_06_systems()
    want = [[certify_subword_complex(subword_complex(system, Q, u))
             for Q in CHECK_06_WORDS for u in _below(demazure(system, Q))]
            for system in systems]
    distinct = [{(r.kind, r.top, r.profiles) for r in reports} for reports in want]
    assert [len(d) for d in distinct] == [12, 12]
    folds = _spy(monkeypatch, subword, "_suffix_demazure")
    route = _spy_complexes(monkeypatch)
    for system, reports, keys in zip(systems, want, distinct):
        calls = []
        for _ in range(2):
            folds.clear()
            calls.append([r for _, _, r in certify_subword_complexes(system, CHECK_06_WORDS)])
            assert [Q for _, Q in folds] == CHECK_06_WORDS
            assert calls[-1] == reports
            assert len({id(r) for r in calls[-1]}) == len(keys) < len(reports)
        assert not {id(r) for r in calls[0]} & {id(r) for r in calls[1]}
    assert route == ([], [], [], [])
    # check 06 itself: one call per group, one fold per word
    folds.clear()
    assert run_check("ball_sphere_classification", RunConfig()).instances == 1386
    assert len(folds) == 2 * len(CHECK_06_WORDS) == 254
    assert route == ([], [], [], [])


def _pass_cases():
    """Check 06's words, check 07's and the A3 words of length at most 7."""
    for system in _check_06_systems():
        yield from ((system, Q) for Q in CHECK_06_WORDS)
    yield from ((named_system(gname), Q) for gname, Q in _FIBER_CASES)
    a3 = CoxeterSystem.type_a(3)
    yield from ((a3, Q) for n in range(8) for Q in itertools.product((1, 2, 3), repeat=n))


def test_one_pass_counts_every_face():
    # faces[u] is the number of faces that enumeration from the facets
    # builds; off the targets it is 0
    targets = 0
    for system, Q in _pass_cases():
        fold = _fold(system, Q)
        for u in system.elements():
            x = u.index
            if not fold.bounds[0][x]:
                assert fold.faces[x] == 0, (Q, u)
                continue
            K = SubwordComplex._folded(system, Q, u, fold)
            assert fold.faces[x] == sum(map(len, K._face_levels())) == K.num_faces(), (Q, u)
            targets += 1
    assert targets == 40861


def test_a_fold_reads_its_targets_off_the_face_counts_and_bruhat_rows_only_for_walks(
        monkeypatch):
    # x is below the product of Q exactly when Delta(Q, x) has a face, so
    # the certificates read no Bruhat row; a walk reads one per distinct
    # suffix product, once per fold
    for system, Q in _pass_cases():
        fold = _fold(system, Q)
        assert "bounds" not in vars(fold)
        assert [bool(f) for f in fold.faces] == [bool(b) for b in fold.bounds[0]], Q
    rows = _spy(monkeypatch, subword, "bruhat_row")
    assert run_check("ball_sphere_classification", RunConfig()).passed
    assert run_check("contractible_fibers", RunConfig()).passed
    assert rows == []
    b2 = CoxeterSystem.type_b(2)
    Q = (1, 2, 1, 2, 1)
    K = subword_complex(b2, Q, b2.element((1,)))
    assert rows == []
    assert K.facets == {fs(2, 3, 4, 5), fs(1, 2, 4, 5), fs(1, 2, 3, 4)}
    assert K.interior_faces() and len(rows) == len(set(K._fold.suffix))


def test_one_facet_exactly_when_the_count_is_a_power_of_two_and_one_cone_rule():
    # Delta(Q, u) is pure of dimension len(Q) - l(u) - 1, so it has one
    # facet exactly when it has 2^(len(Q) - l(u)) faces, which is how the
    # fiber certificate reads it; the cone rule of SimplicialComplex, a
    # vertex in every facet, is the oracle's, on the standard spaces and on
    # every subword complex (check 06's share is 1,386 complexes and 1,056
    # cones)
    for K in (EMPTY, POINT, TWO_POINTS, CIRCLE, SOLID, OCTAHEDRON, PROJECTIVE_PLANE, PATH,
              NON_PURE):
        assert K._cone == (cone_vertex(K) is not None), K
    targets = single = cones = 0
    for system, Q in _pass_cases():
        fold = _fold(system, Q)
        for u in system.elements():
            if not fold.bounds[0][u.index]:
                continue
            K = SubwordComplex._folded(system, Q, u, fold)
            one = fold.faces[u.index] == 2 ** (len(Q) - u.length)
            assert one == (len(K._facet_masks) == 1), (Q, u)
            assert K._cone == (cone_vertex(K) is not None), (Q, u)
            targets += 1
            single += one
            cones += K._cone
    assert (targets, single, cones) == (40861, 10201, 36318)


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
    # at a budget of 40; the certificate builds no face and reads no budget
    b2 = CoxeterSystem.type_b(2)
    want = certify_subword_complex(subword_complex(b2, (1,) * 6, b2.identity))
    searches = _spy(monkeypatch, subword, "_spellings")
    for budget in (40, 63):
        monkeypatch.setattr(coxsort.homology, "DEFAULT_FACE_BUDGET", budget)
        K = subword_complex(b2, (1,) * 6, b2.identity)
        for ask in (K.num_faces, K.faces, K.interior_faces):
            with pytest.raises(BudgetExceededError) as exc:
                ask()
            assert (exc.value.limit, exc.value.spent) == (budget, 64)
        assert certify_subword_complex(K) == want
        assert K._levels is None and searches == []
    monkeypatch.setattr(coxsort.homology, "DEFAULT_FACE_BUDGET", 64)
    assert K.num_faces() == len(K.faces()) == 64 and len(searches) == 1


def test_the_batch_proves_its_cones_with_no_facet_search_and_no_face(monkeypatch):
    # the profiles are those of the homology of every complex, cones included
    for system in _check_06_systems():
        for Q, u, report in certify_subword_complexes(system, CHECK_06_WORDS):
            assert report.profiles == _profiles(subword_complex(system, Q, u)), (Q, u)
    setups, searches, built, cold = _spy_complexes(monkeypatch)
    counts = []
    for system in _check_06_systems():
        reports = list(certify_subword_complexes(system, CHECK_06_WORDS))
        counts.append((len(reports), len(setups), len(searches), len(built), len(cold)))
    # 1,386 complexes, 1,056 of them cones: every profile is read off the
    # homotopy type of the fold, with no complex set up, no facet listed,
    # no face built and nothing eliminated (330 facet listings, 166 face
    # enumerations and 168 eliminations before the type pass)
    assert counts == [(649, 0, 0, 0, 0), (737, 0, 0, 0, 0)]


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
    """The index in batch order of the first (Q, u) whose face count
    raises at the current face budget, with that complex and error."""
    instances = [(Q, u) for Q in words for u in _below(demazure(system, Q))]
    for i, (Q, u) in enumerate(instances):
        K = subword_complex(system, Q, u)
        try:
            K.num_faces()
        except BudgetExceededError as exc:
            return i, K, exc
    return None


@pytest.mark.parametrize("budget", [20, 40, 63])
def test_batch_raises_at_the_first_instance_over_the_budget(monkeypatch, budget):
    # the batch used to raise at the first instance with more faces than
    # the budget; it builds no face now, so it runs past that instance with
    # the default budget's reports, while the instance's face count raises
    systems = _check_06_systems()
    want = [list(certify_subword_complexes(system, CHECK_06_WORDS)) for system in systems]
    monkeypatch.setattr(coxsort.homology, "DEFAULT_FACE_BUDGET", budget)
    route = _spy_complexes(monkeypatch)
    got = [list(certify_subword_complexes(system, CHECK_06_WORDS)) for system in systems]
    assert got == want and route == ([], [], [], [])
    for system, reports in zip(systems, want):
        i, K, exc = _first_over_budget(system, CHECK_06_WORDS)
        Q, u, report = reports[i]
        assert (K.Q, K.target) == (Q, u) and i < len(reports) - 1
        assert (exc.budget, exc.limit) == ("face_budget", budget) and exc.spent > budget
        assert certify_subword_complex(K) == report


def test_a_shared_hit_under_a_lowered_budget_is_the_cold_call_report(monkeypatch):
    # both reduced words of w0 in B2 give the full simplex on four
    # positions (16 faces) for u = e: the second is a hit, and the budget
    # lowered between the two words changes neither it nor a cold call
    b2 = CoxeterSystem.type_b(2)
    words = [(1, 2, 1, 2), (2, 1, 2, 1)]
    batch = certify_subword_complexes(b2, words)
    for _ in b2.elements():
        next(batch)
    monkeypatch.setattr(coxsort.homology, "DEFAULT_FACE_BUDGET", 10)
    K = subword_complex(b2, words[1], b2.identity)
    with pytest.raises(BudgetExceededError):
        K.num_faces()
    assert next(batch) == (words[1], b2.identity, certify_subword_complex(K))


def _fiber_sweeps():
    """Every fiber certificate of check 09's words, e included."""
    systems = [(named_system(gname), Q) for gname, Q in _FIBER_CASES]
    return [certify_fiber_contractible(system, Q, u)
            for system, Q in systems for u in _below(demazure(system, Q))]


def test_certificates_read_no_face_budget(monkeypatch):
    # at a face budget of 0 the subword and fiber certificates and checks 06
    # and 09 give what they give at the default and build no face, while
    # the readings of the same complexes' faces raise
    systems = _check_06_systems()
    batches = [list(certify_subword_complexes(system, CHECK_06_WORDS)) for system in systems]
    sweeps = _fiber_sweeps()
    checks = [run_check(name).to_obj()
              for name in ("ball_sphere_classification", "contractible_fibers")]
    monkeypatch.setattr(coxsort.homology, "DEFAULT_FACE_BUDGET", 0)
    route = _spy_complexes(monkeypatch)
    assert [list(certify_subword_complexes(system, CHECK_06_WORDS))
            for system in systems] == batches
    assert _fiber_sweeps() == sweeps
    assert [run_check(name).to_obj()
            for name in ("ball_sphere_classification", "contractible_fibers")] == checks
    assert route == ([], [], [], [])
    assert sum(map(len, batches)) == 1386
    for system, batch in zip(systems, batches):
        for Q, u, _ in batch:
            K = subword_complex(system, Q, u)
            for ask in (K.num_faces, K.faces, lambda: K.facets, K.interior_faces):
                with pytest.raises(BudgetExceededError) as exc:
                    ask()
                assert exc.value.limit == 0 and exc.value.spent >= 1, (Q, u)


def _exact_cases():
    """Every reduced word of w0 in A3 and B3, the canonical word of every
    element of H3 and D4, and the three fiber words that CI pins."""
    for system in (CoxeterSystem.type_a(3), CoxeterSystem.type_b(3)):
        yield from ((system, Q) for Q in reduced_words(system.longest_element()))
    for system in (CoxeterSystem.type_h3(), named_system("D4")):
        yield from ((system, w.word) for w in system.elements())
    for gname, word in (("A4", "1,2,3,4,1,2,3,1,2,1"),
                        ("H3", "1,2,1,2,1,3,2,1,2,1,3,2,1,2,3"),
                        ("D4", "1,2,3,1,2,3,4,3,1,2,3,4")):
        yield named_system(gname), parse_word(word)


def _exact_disagreements():
    """The (system, Q) of :func:`_exact_cases` whose fold's exact counts
    differ from the images counted over the table of f, and the number of
    cases."""
    bad, cases = [], 0
    for system, Q in _exact_cases():
        exact = _fold(system, Q).exact
        images = Counter(fibermap._mask_images(system, Q))
        if exact != [images[x] for x in range(system.order())]:
            bad.append((system, Q))
        cases += 1
    return bad, cases


def test_the_fold_counts_the_sets_sent_to_each_element():
    # 16 + 42 reduced words of w0, 120 + 192 canonical words, 3 CI words
    assert _exact_disagreements() == ([], 373)


def test_a_planted_fault_in_the_exact_counts_disagrees_with_the_table(monkeypatch):
    # the fault drops the sets that hold j where s = Q[j] is absorbed, the
    # rest's product being x already
    _planted(monkeypatch, "exact[x] += exact[x] + exact[sx]", "exact[x] += exact[sx]")
    bad, cases = _exact_disagreements()
    assert (len(bad), cases) == (325, 373)
    assert bad[0] == (CoxeterSystem.type_a(3), (3, 1, 2, 3, 1, 2))


def test_facets_and_repr_of_a_complex_over_the_budget_list_no_more_than_it(monkeypatch):
    # Delta(Q, u) on a 64-letter A3 word has 2,070,299 facets: its repr
    # reads the fold's face count, and listing the facets stops one mask
    # past the face budget
    a3 = CoxeterSystem.type_a(3)
    Q = (1, 2, 3) * 21 + (1,)
    u = a3.element((1, 2, 1, 3, 2, 1))
    K = subword_complex(a3, Q, u)
    faces = K.num_faces(budget=2 ** 64)
    assert faces > 200_000
    searches = _spy(monkeypatch, subword, "_spellings")
    assert repr(K) == f"SubwordComplex(Q={Q}, target=<1,2,1,3,2,1>, faces={faces})"
    assert searches == []
    monkeypatch.setattr(coxsort.homology, "DEFAULT_FACE_BUDGET", 1000)
    for ask in (lambda: K.facets, lambda: K.dim):
        with pytest.raises(BudgetExceededError) as exc:
            ask()
        assert (exc.value.budget, exc.value.limit, exc.value.spent) == ("face_budget", 1000, 1001)
        assert exc.value.subject == f"Q={','.join(map(str, Q))}, target={u!r} in {a3!r}"
        assert "_facet_masks" not in vars(K) and "facets" not in vars(K)
    assert len(searches) == 2
    # a listing within the budget is kept
    b2 = CoxeterSystem.type_b(2)
    monkeypatch.setattr(coxsort.homology, "DEFAULT_FACE_BUDGET", 2)
    zero_sphere = subword_complex(b2, (1, 2, 1, 2, 1), b2.longest_element())
    assert zero_sphere.facets == {fs(1), fs(5)}
    monkeypatch.setattr(coxsort.homology, "DEFAULT_FACE_BUDGET", 1)
    with pytest.raises(BudgetExceededError) as exc:
        subword_complex(b2, (1, 2, 1, 2, 1), b2.longest_element()).facets
    assert (exc.value.limit, exc.value.spent) == (1, 2)


def _types_cases():
    """Every A3 word of at most 6 letters, and seeded words of B3, H3 and
    I2(7) of at most 9 letters, reduced (a random reduced word of a random
    element) and not (random letters)."""
    a3 = CoxeterSystem.type_a(3)
    yield from ((a3, Q) for n in range(7) for Q in itertools.product((1, 2, 3), repeat=n))
    rng = random.Random(36)
    for system in (CoxeterSystem.type_b(3), CoxeterSystem.type_h3(), CoxeterSystem.dihedral(7)):
        short = [w for w in system.elements() if w.length <= 9]
        for _ in range(15):
            yield system, rng.choice(sorted(system.reduced_words_of(rng.choice(short).word)))
            yield system, tuple(rng.randint(1, system.rank) for _ in range(rng.randint(0, 9)))


def _type_disagreements(cases):
    """The (system, Q, u) whose homotopy type disagrees with the
    elimination oracle, ``_profiles`` over both fields of the complex given
    by its facets, or with the Demazure verdict: a sphere exactly when u is
    the product of Q, of dimension len(Q) - l(u) - 1, with u None for a
    word whose pass raises; and the count of complexes compared."""
    bad, compared = [], 0
    for system, Q in cases:
        try:
            types = homotopy_types(system, Q)
        except RuntimeError:  # two spheres met
            bad.append((system, Q, None))
            continue
        product = demazure(system, Q)
        for u in system.elements():
            t = types[u.index]
            if not bruhat_leq(u, product):
                if t != VOID:
                    bad.append((system, Q, u))
                continue
            K = subword_complex(system, Q, u)
            oracle = _profiles(SimplicialComplex(K.vertices, K.facets))
            counts = () if t == CONTRACTIBLE else ((t, 1),)
            sphere = K.classify() == "sphere"
            if ([p.counts for p in oracle] != [counts, counts] or (t >= -1) != sphere
                    or sphere and t != len(Q) - u.length - 1):
                bad.append((system, Q, u))
            compared += 1
    return bad, compared


def test_homotopy_types_match_the_elimination_oracle():
    cases = list(_types_cases())
    bad, compared = _type_disagreements(cases)
    assert bad == []
    assert (len(cases), compared) == (1093 + 90, 12120)
    # the certificates read the same types, the batch and one at a time
    for system, Q in cases[-90:]:
        for _, u, report in certify_subword_complexes(system, [Q]):
            K = subword_complex(system, Q, u)
            assert report.profiles == _profiles(SimplicialComplex(K.vertices, K.facets)), (Q, u)


def _planted(monkeypatch, old, new):
    """Patch ``subword._spell`` with a copy of its source in which the one
    occurrence of ``old`` reads ``new``."""
    source = textwrap.dedent(inspect.getsource(subword._spell))
    assert source.count(old) == 1, old
    namespace = dict(vars(subword))
    exec(compile(source.replace(old, new), subword.__file__, "exec",
                 __future__.annotations.compiler_flag, dont_inherit=True), namespace)
    monkeypatch.setattr(subword, "_spell", namespace["_spell"])


@pytest.mark.parametrize("old, new, first", [
    # the suspension of the link read as the link: two points read as S^-1
    ("types[x] = link + 1", "types[x] = link", ((1, 1), (1,))),
    # the cone rule dropped, a cone read as its link: the point read as S^-1
    ("types[x] = CONTRACTIBLE", "pass", ((1,), ())),
])
def test_a_planted_rule_fault_disagrees_with_the_oracle(monkeypatch, old, new, first):
    _planted(monkeypatch, old, new)
    a3 = CoxeterSystem.type_a(3)
    bad, _ = _type_disagreements((a3, Q) for n in range(4)
                                 for Q in itertools.product((1, 2, 3), repeat=n))
    assert (bad[0][1], bad[0][2].word) == first


def test_a_pass_that_meets_two_spheres_raises_naming_q_and_the_target(monkeypatch):
    # every row starts as S^-1, not only e: the first letter then finds a
    # link and a deletion that are both spheres
    _planted(monkeypatch, "types = [-1] + [VOID] * (len(left) - 1)", "types = [-1] * len(left)")
    b2 = CoxeterSystem.type_b(2)
    message = (f"the link and the deletion of position 3 are both spheres "
               f"(Q=1,2,1, target=<1> in {b2!r})")
    for ask in (lambda: homotopy_types(b2, (1, 2, 1)),
                lambda: list(certify_subword_complexes(b2, [(1, 2, 1)])),
                lambda: subword_complex(b2, (1, 2, 1), b2.identity)):
        with pytest.raises(RuntimeError) as exc:
            ask()
        assert str(exc.value) == message


def test_homotopy_types_check_the_word_and_build_no_face(monkeypatch):
    b2 = CoxeterSystem.type_b(2)
    with pytest.raises(ValueError):
        homotopy_types(b2, (1, 3))
    route = _spy_complexes(monkeypatch)
    monkeypatch.setattr(coxsort.homology, "DEFAULT_FACE_BUDGET", 1)
    # Delta((1,) * 6, e), the 5-simplex, has 64 faces and Delta((1,) * 6, 1),
    # its boundary, 63: no budget applies
    types = homotopy_types(b2, (1,) * 6)
    assert types[b2.identity.index] == CONTRACTIBLE and types[b2.element((1,)).index] == 4
    assert route == ([], [], [], [])
