import hashlib
import re
from fractions import Fraction

import numpy as np
import pytest

import coxsort.errors
import coxsort.fibermap
import coxsort.hecke
import coxsort.homology
import coxsort.posets
import coxsort.subword
import coxsort.totalpos
import coxsort.verify
from coxsort.verify import (CHECK_NAMES, Context, RunConfig, named_system,
                            report_json, run_check, run_verification)
from test_fibermap import _check_08_pairs

SMALL = RunConfig(groups=("B2",))


def test_named_system():
    assert named_system("A3").rank == 3
    assert named_system("b2").m(1, 2) == 4
    assert len(named_system("I2:7").elements()) == 14
    assert len(named_system("i2.5").elements()) == 10
    assert named_system("H3").m(1, 2) == 5
    assert named_system("D4").rank == 4
    assert named_system(" h3").m(1, 2) == 5 and named_system("I2.04").m(1, 2) == 4
    # equal matrices under two names are no repeat; the spellings are kept
    groups = ("I2:4", " b2", "matrix:b2")
    assert RunConfig(groups=groups).sweep_groups == groups
    for bad in ("X5", "I3:4", "", "A", "I2:x", "H5", "F3", "E6"):
        with pytest.raises(ValueError, match="unknown group"):
            named_system(bad)


@pytest.mark.parametrize("spec,order,bonds", [
    ("F4", 1152, {(1, 2): 3, (2, 3): 4, (3, 4): 3}),
    (" h4", 14_400, {(1, 2): 5, (2, 3): 3, (3, 4): 3}),
])
def test_named_exceptional_groups(spec, order, bonds):
    system = named_system(spec)
    assert system.matrix == tuple(tuple(1 if i == j else bonds.get((min(i, j), max(i, j)), 2)
                                        for j in range(1, 5)) for i in range(1, 5))
    assert system.order() == order <= system.size_cap
    assert system.longest_element().length == {1152: 24, 14_400: 60}[order]


def test_check_names():
    assert len(CHECK_NAMES) == 12
    assert CHECK_NAMES[0] == "boolean_map_worked_example"
    assert CHECK_NAMES[-1] == "oracle_agreement"
    assert len(set(CHECK_NAMES)) == 12


def test_run_check_single():
    r = run_check("boolean_map_worked_example", SMALL)
    assert r.passed
    assert r.instances == 1
    assert r.failures == []
    assert r.statement
    with pytest.raises(ValueError, match="unknown check"):
        run_check("does_not_exist", SMALL)


def test_run_verification_schema():
    report = run_verification(SMALL)
    assert set(report) == {"system", "theorem_results", "timing"}
    assert report["timing"] is None
    assert report["system"]["groups"] == ["B2"]
    assert report["system"]["field"] == 2
    assert report["system"]["seed"] == 0
    results = report["theorem_results"]
    assert [r["name"] for r in results] == list(CHECK_NAMES)
    for r in results:
        assert set(r) == {"name", "statement", "instances", "passed",
                          "failures", "notes"}
        assert r["passed"] is True
        assert r["failures"] == []
        assert r["instances"] > 0


def test_report_is_deterministic():
    a = report_json(run_verification(SMALL))
    b = report_json(run_verification(SMALL))
    assert a == b
    assert a.endswith("\n")


def test_default_report_is_byte_stable():
    report = report_json(run_verification(RunConfig()))
    assert hashlib.sha256(report.encode()).hexdigest() == (
        "3b7486846228cffe6336359042a108c36dbf370123bc91c0a3d24774f9d1f3c2")


def test_run_config_takes_numpy_integers_and_stores_plain_ints():
    assert RunConfig(seed=np.int64(1), size_cap=np.int64(100)) == RunConfig(
        seed=1, size_cap=100)
    config = RunConfig(seed=np.int32(0), size_cap=np.int64(50_000))
    assert config == RunConfig()
    assert {type(config.seed), type(config.size_cap)} == {int}
    report = report_json(run_verification(config))
    assert hashlib.sha256(report.encode()).hexdigest() == (
        "3b7486846228cffe6336359042a108c36dbf370123bc91c0a3d24774f9d1f3c2")


def test_the_default_sweep_validates_no_order_it_built(monkeypatch):
    # check 05's weak relation is an order by construction, and its union is
    # proved transitive by one product, which as_poset reuses; the order pass
    # validates and takes the covers of one Bruhat relation per group, builds
    # one sorting relation per commutation class (227 of them, stacked in 17
    # chunks, one product a chunk), and finds each sorting order's covers
    # without a product; check 08's EL pass takes two products per group
    counts = dict.fromkeys(("_bool_product", "__init__"), 0)
    for owner, name in ((coxsort.posets, "_bool_product"), (coxsort.posets.Poset, "__init__")):
        real = getattr(owner, name)

        def counted(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(owner, name, counted)
    run_verification(RunConfig())
    assert counts == {"_bool_product": 47, "__init__": 0}


def test_context_reuse_and_register():
    ctx = Context(SMALL)
    assert ctx.system("B2") is ctx.system("B2")
    other = named_system("A3")
    ctx.register("custom", other)
    assert ctx.system("custom") is other


def test_a_config_that_differs_from_the_context_is_refused():
    ctx = Context(SMALL)
    for config in (RunConfig(seed=5, groups=("A3",)), RunConfig(groups=("B2",), seed=1)):
        with pytest.raises(ValueError, match="config differs"):
            run_verification(config, ctx)
        with pytest.raises(ValueError, match="config differs"):
            run_check("boolean_map_worked_example", config, ctx)
    # an equal config is the same config
    assert run_check("boolean_map_worked_example", RunConfig(groups=("B2",)), ctx).passed
    report = run_verification(ctx=Context(RunConfig(groups=("B2",))))
    assert report["system"]["groups"] == ["B2"]


def _drop_last_position(taken, more_than):
    # the sorting matrix without the last taken position of each row that
    # has more than ``more_than`` of them
    taken = taken.copy()
    for row in taken:
        columns = np.flatnonzero(row)
        if len(columns) > more_than:
            row[columns[-1]] = False
    return taken


def test_fault_injection_breaks_sandwich(monkeypatch):
    real = coxsort.hecke._sorting_rows

    def truncated(system, Q, target):
        return _drop_last_position(real(system, Q, target), 0)

    monkeypatch.setattr(coxsort.hecke, "_sorting_rows", truncated)
    r = run_check("sorting_sandwich", SMALL)
    assert not r.passed
    assert r.failures
    sample = r.failures[0]
    assert {"group", "w", "Q", "u", "v", "detail"} <= set(sample)
    assert sample["group"] == "B2"


def _types_mapped(monkeypatch, change):
    """Patch the one pass over a word so that ``change`` maps each
    homotopy type it gives, for every table row."""
    real = coxsort.subword._spell

    def mapped(system, Q, suffix):
        faces, exact, types = real(system, Q, suffix)
        return faces, exact, [change(t) for t in types]

    monkeypatch.setattr(coxsort.subword, "_spell", mapped)


def test_fault_injection_breaks_contractible_fibers(monkeypatch):
    # the type pass reads every contractible complex as a 2-sphere: the
    # certificate of every subword complex that has two facets or more
    # reads the Betti numbers of S^2
    contractible = coxsort.subword.CONTRACTIBLE
    _types_mapped(monkeypatch, lambda t: 2 if t == contractible else t)
    r = run_check("contractible_fibers", SMALL)
    assert not r.passed
    assert len(r.failures) == 16  # the homology cases: 10 in A3, 3 per B2 word
    assert r.failures[0]["detail"].endswith("[GF(2): b~2=1], [Q: b~2=1]")
    assert [n["cone"] for n in r.notes] == [12, 3, 3]
    assert [n["homology"] for n in r.notes] == [0, 0, 0]


def test_a_misfolding_demazure_breaks_the_worked_example(monkeypatch):
    # the group product in place of the 0-Hecke product: 1,2,1,2 is then
    # 2,1 in A3, where the fold absorbs the last 2 into 1,2,1
    monkeypatch.setattr(coxsort.fibermap, "demazure",
                        lambda system, word: system.element(word))
    r = run_check("boolean_map_worked_example", SMALL)
    assert not r.passed
    assert r.failures == [{"group": "A3", "Q": "1,2,3,1,2,1",
                           "detail": "image of [1, 2, 4, 5] is <2,1>, expected <1,2,1>"}]


def test_a_mask_sent_to_another_row_breaks_fiber_duality(monkeypatch):
    # the empty position set sent where the full one goes, to w
    real = coxsort.fibermap._mask_images

    def misrouted(system, Q):
        images = real(system, Q)
        images[0] = images[-1]
        return images

    monkeypatch.setattr(coxsort.fibermap, "_mask_images", misrouted)
    r = run_check("fiber_duality", SMALL)
    assert not r.passed
    # e is spared: its upper fiber is every position set anyway
    assert r.failures[0] == {"group": "A3", "Q": "1,2,3,1,2,1", "u": "1",
                             "detail": "upper fiber differs from face complements"}


def test_fiber_duality_lists_the_faces_of_each_complex_once(monkeypatch):
    # the boundary faces are the listed faces less the interior ones
    real = coxsort.homology.SimplicialComplex.faces
    calls = []

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(coxsort.homology.SimplicialComplex, "faces", counted)
    r = run_check("fiber_duality", SMALL)
    assert r.passed and r.instances == 77
    assert len(calls) == len(set(map(id, calls))) == 40


def test_fault_injection_breaks_ball_sphere_classification(monkeypatch):
    # every complex called a sphere: the homology of the balls refutes it
    monkeypatch.setattr(coxsort.subword, "_kind", lambda fold, x: "sphere")
    r = run_check("ball_sphere_classification", SMALL)
    assert not r.passed
    assert r.failures[0] == {"group": "A2", "Q": "1", "u": "e", "detail":
                             "classified sphere but betti [GF(2): all zero] (expected S^0)"}
    # one failure per field for each of the 1,132 balls among the 1,386
    # complexes, 2,264 in all: 25 kept, the rest counted
    assert len(r.failures) == 26
    assert r.failures[-1] == {"detail": "2239 further failures truncated"}


def test_profiles_read_as_trivial_from_every_type_break_ball_sphere_classification(
        monkeypatch):
    # every homotopy type read as the trivial profiles of a contractible
    # complex: the spheres refute it
    trivial = (coxsort.homology.BettiProfile(2, ()), coxsort.homology.BettiProfile(0, ()))
    monkeypatch.setattr(coxsort.subword, "_type_profiles", lambda type_: trivial)
    r = run_check("ball_sphere_classification", SMALL)
    assert not r.passed and r.instances == 1386
    assert r.failures[0] == {"group": "A2", "Q": "e", "u": "e", "detail":
                             "classified sphere but betti [GF(2): all zero] (expected S^-1)"}
    # one failure per field for each of the 254 spheres, 508 in all
    assert len(r.failures) == 26
    assert r.failures[-1] == {"detail": "483 further failures truncated"}


def test_a_pass_that_marks_every_target_a_cone_breaks_ball_sphere_classification(monkeypatch):
    # the type pass marks every complex that is not void contractible, as
    # if each were a cone: the spheres refute it
    void, contractible = coxsort.subword.VOID, coxsort.subword.CONTRACTIBLE
    _types_mapped(monkeypatch, lambda t: t if t == void else contractible)
    r = run_check("ball_sphere_classification", SMALL)
    assert not r.passed and r.instances == 1386
    assert r.failures[0] == {"group": "A2", "Q": "e", "u": "e", "detail":
                             "classified sphere but betti [GF(2): all zero] (expected S^-1)"}
    # one failure per field for each of the 254 spheres, 508 in all
    assert len(r.failures) == 26
    assert r.failures[-1] == {"detail": "483 further failures truncated"}


def test_corrupted_sorting_relation_gives_a_red_report(monkeypatch):
    # equal position rows make some sorting relations non-antisymmetric;
    # the sweep records that instead of raising
    real = coxsort.hecke._sorting_rows

    def truncated(system, Q, target):
        return _drop_last_position(real(system, Q, target), 0)

    monkeypatch.setattr(coxsort.hecke, "_sorting_rows", truncated)
    report = run_verification(RunConfig())
    failed = {r["name"] for r in report["theorem_results"] if not r["passed"]}
    assert failed == {"sorting_sandwich", "sorting_intersection", "sorting_union",
                      "b2_reference_orders", "cover_containment", "oracle_agreement"}
    details = {r["name"]: r["failures"][0]["detail"] for r in report["theorem_results"]
               if r["failures"]}
    assert "not antisymmetric" in details["b2_reference_orders"]
    b2 = next(r for r in report["theorem_results"] if r["name"] == "b2_reference_orders")
    assert b2["failures"][0]["Q"] == "1,2,1,2"  # the failing sorting order names its word
    assert b2["instances"] >= len(b2["failures"]) > 0  # each failed order is an instance
    assert details["cover_containment"] == "sorting relation is not antisymmetric"


def test_fault_injection_breaks_oracle_agreement(monkeypatch):
    real = coxsort.hecke.sorting_positions

    def shifted(system, Q, elements):
        return _drop_last_position(real(system, Q, elements), 1)

    monkeypatch.setattr(coxsort.hecke, "sorting_positions", shifted)
    r = run_check("oracle_agreement", SMALL)
    assert not r.passed
    assert any("sorting subword" in f.get("detail", "") for f in r.failures)


def test_fault_injection_in_relation_layer(monkeypatch):
    # drop the Bruhat cover 1 < 1,2 of B2; what is left is still a poset
    real = coxsort.posets.bruhat_interval

    def dropped_cover(u, w):
        p = real(u, w)
        one, one_two = u.system.element((1,)), u.system.element((1, 2))
        if one not in p.ground or one_two not in p.ground:
            return p
        leq = p.leq.copy()
        leq[p.index(one), p.index(one_two)] = False
        return coxsort.posets.Poset(p.ground, leq)

    monkeypatch.setattr(coxsort.posets, "bruhat_interval", dropped_cover)
    for name in ("sorting_sandwich", "cover_containment"):
        r = run_check(name, SMALL)
        assert not r.passed
        assert any(f.get("u") == "1" and f.get("v") == "1,2" for f in r.failures), name


def test_walk_that_prunes_completable_prefixes_breaks_open_interval_spheres(monkeypatch):
    # a chain walk with no look-ahead: it extends a chain only once it holds,
    # for every v in sigma, an element incomparable with v, so a lower part
    # that a longer chain would complete is dropped with all its extensions
    def eager_walk(self, sigma):
        hits = [sigma & ~c for c in self._comparable]
        levels = [[] for _ in self._counts]
        chains = [(len(hits), 0, 0)]  # (top, mask, hit), the empty chain first
        for level in levels:
            level += sorted(m for _, m, hit in chains if hit == sigma)
            chains = [(j, m | 1 << j, hit | hits[j]) for t, m, hit in chains
                      for j in self._ups[t] if hit | hits[j] == sigma]
        return levels

    monkeypatch.setattr(coxsort.homology._OrderComplex, "_walk", eager_walk)
    # check 08 reads the EL pass, which walks no chain
    assert run_check("open_interval_spheres", SMALL).passed
    pairs = _check_08_pairs()
    wrong = [(str(u), str(w)) for u, w in pairs
             if not coxsort.fibermap.certify_interval_sphere(u, w).matches]
    # 389 of the 652 intervals
    assert len(pairs) == 652 and len(wrong) == 389 and wrong[0] == ("e", "1,2,1")


def test_fault_injection_in_ranks(monkeypatch):
    # the interval certificate on check 08's pairs: the first GF(2) rank
    # comes out one too high, a phantom pivot column -1, which no face can
    # be cleared by
    real = coxsort.homology._pivots_gf2
    calls = []

    def inflated(rows):
        calls.append(rows)
        return real(rows) | ({-1} if len(calls) == 1 else set())

    monkeypatch.setattr(coxsort.homology, "_pivots_gf2", inflated)
    reports = [coxsort.fibermap.certify_interval_sphere(u, w) for u, w in _check_08_pairs()]
    assert not all(r.matches for r in reports)
    # check 06, which eliminates nothing: the spheres of the first word
    # come out one dimension too high
    real_spell = coxsort.subword._spell
    words = []

    def raised(system, Q, suffix):
        words.append(Q)
        faces, exact, types = real_spell(system, Q, suffix)
        if len(words) == 1:
            types = [t + 1 if t >= -1 else t for t in types]
        return faces, exact, types

    monkeypatch.setattr(coxsort.subword, "_spell", raised)
    r = run_check("ball_sphere_classification", RunConfig())
    assert not r.passed
    assert any("betti" in f.get("detail", "") for f in r.failures)
    assert len(calls) > 1 and len(words) > 1


def test_fault_injection_breaks_total_positivity(monkeypatch):
    # every 2x2 minor changes sign, so each nonnegative product shows a
    # negative one; the identities compare matrices and stay green
    real = coxsort.totalpos._laplace_level
    monkeypatch.setattr(coxsort.totalpos, "_laplace_level",
                        lambda N, lower, k: {key: -minor for key, minor
                                             in real(N, lower, k).items()}
                        if k == 2 else real(N, lower, k))
    r = run_check("total_positivity", SMALL)
    assert not r.passed
    assert len(r.failures) == 26
    assert r.failures[-1] == {"detail": "25 further failures truncated"}
    details = [f["detail"] for f in r.failures[:-1]]
    assert all(re.search(r"negative minor, factors \(i, t\) = \([1-3], \d+(/\d+)?\)", d)
               for d in details)
    assert len(set(details)) == len(details)


def test_a_fold_that_drops_denominators_breaks_total_positivity(monkeypatch):
    # x_i(p/q) built as x_i(p): both identities fail on most trials, while
    # the nonnegative products, now of integer parameters >= 0, stay green.
    # (A sign flip would not do: both identities hold with every parameter
    # negated.)
    real = coxsort.totalpos._product
    monkeypatch.setattr(coxsort.totalpos, "_product", lambda n, factors: real(
        n, [(i, Fraction(t).numerator) for i, t in factors]))
    r = run_check("total_positivity", SMALL)
    assert not r.passed
    assert len(r.failures) == 26
    marker = re.fullmatch(r"([1-9]\d*) further failures truncated", r.failures[-1]["detail"])
    assert marker
    details = [f["detail"] for f in r.failures[:-1]]
    assert all(re.fullmatch(r"additive identity failed at n=[2-4], i=[1-3], a=\S+, b=\S+", d)
               for d in details)
    assert len(set(details)) == len(details)
    # the report shows the first 25; the stream it read has the rest,
    # more than the 100 additive trials can account for
    failed = [(statement, detail) for statement, holds, detail
              in coxsort.totalpos.seeded_trials(SMALL.seed) if not holds]
    assert len(failed) == 25 + int(marker[1]) > 100
    assert [detail for _, detail in failed[:25]] == details
    assert {statement for statement, _ in failed} == {"additive", "exchange"}
    assert all(re.fullmatch(r"exchange identity failed at n=[34], i=[12], t=\(\S+,\S+,\S+\)", d)
               for statement, d in failed if statement == "exchange")
    assert len({detail for _, detail in failed}) == len(failed)


def test_notes_past_the_cap_leave_a_marker_and_keep_every_summary(monkeypatch):
    monkeypatch.setattr(coxsort.verify, "_NOTE_CAP", 3)
    notes = run_check("cover_containment", RunConfig(groups=("A3", "B2"))).notes
    assert [n["group"] for n in notes if "proper" in n] == ["A3", "B2"]
    assert [n["group"] for n in notes if "w" in n] == ["A3"] * 3
    assert re.fullmatch(r"[1-9]\d* further notes truncated", notes[-1]["detail"])
    assert len(notes) == 6


def test_folded_orders_read_the_weak_interval_off_the_weak_relation(monkeypatch):
    real = coxsort.verify._compare_matrices
    calls = []

    def spy(rec, got, want, ground, gname, w, which):
        calls.append((want, ground, w, which))
        return real(rec, got, want, ground, gname, w, which)

    monkeypatch.setattr(coxsort.verify, "_compare_matrices", spy)
    assert run_check("sorting_union", RunConfig(groups=("B3",))).passed
    assert len(calls) == 2 * 48
    for want, ground, w, which in calls:
        weak = coxsort.posets.weak_interval(w)
        assert tuple(ground) == weak.ground
        if which.startswith("intersection"):
            assert np.array_equal(want, weak.leq)
        else:
            bruhat = coxsort.posets.bruhat_interval(w.system.identity, w)
            assert np.array_equal(want, bruhat.restrict(ground).leq)


ORDER_CHECKS = ("sorting_sandwich", "sorting_intersection", "sorting_union",
                "cover_containment")


def test_order_checks_sort_each_word_once(monkeypatch):
    real = coxsort.hecke._sorting_rows
    calls = []

    def counted(system, Q, target):
        calls.append(Q)
        return real(system, Q, target)

    monkeypatch.setattr(coxsort.hecke, "_sorting_rows", counted)
    ctx = Context(SMALL)
    for name in ORDER_CHECKS:
        assert run_check(name, ctx=ctx).passed
    # B2 has 8 elements and the longest one has two reduced words
    assert len(calls) == len(set(calls)) == 9


def test_order_checks_call_the_greedy_core_not_sorting_positions(monkeypatch):
    def refused(*args):
        raise AssertionError("the order pass called sorting_positions")

    monkeypatch.setattr(coxsort.hecke, "sorting_positions", refused)
    ctx = Context(RunConfig(groups=("A3", "B2")))
    for name in ORDER_CHECKS:
        assert run_check(name, ctx=ctx).passed


def test_a_group_spelt_two_ways_is_built_once():
    ctx = Context(RunConfig(groups=("b2",)))
    assert ctx.system("b2") is ctx.system("B2") is ctx.system(" B02")
    run_check("sorting_sandwich", ctx=ctx)
    run_check("b2_reference_orders", ctx=ctx)
    assert list(ctx._systems) == ["B2"]


def test_order_checks_sort_each_commutation_class_once(monkeypatch):
    real = coxsort.hecke._sorting_rows
    calls = []

    def counted(system, Q, target):
        calls.append(Q)
        return real(system, Q, target)

    monkeypatch.setattr(coxsort.hecke, "_sorting_rows", counted)
    ctx = Context(RunConfig(groups=("A3",)))
    for name in ORDER_CHECKS:
        assert run_check(name, ctx=ctx).passed
    # 42 classes of reduced words of the w != e, and the empty word of e
    a3 = ctx.system("A3")
    assert len(calls) == len({coxsort.posets._class_key(a3, Q) for Q in calls}) == 43


def test_a_corrupted_class_fails_under_each_of_its_words(monkeypatch):
    a3 = named_system("A3")
    key = coxsort.posets._class_key(a3, (1, 3, 2, 1, 3))
    w = a3.element((1, 3, 2, 1, 3))
    words = sorted(Q for Q in coxsort.hecke.reduced_words(w)
                   if coxsort.posets._class_key(a3, Q) == key)
    assert len(words) == 4 < len(coxsort.hecke.reduced_words(w))
    real = coxsort.hecke._sorting_rows

    def corrupted(system, Q, target):
        # the row of w, the last element, loses its last position
        taken = real(system, Q, target)
        if coxsort.posets._class_key(system, Q) != key:
            return taken
        taken = taken.copy()
        taken[-1, np.flatnonzero(taken[-1])[-1]] = False
        return taken

    monkeypatch.setattr(coxsort.hecke, "_sorting_rows", corrupted)
    ctx = Context(RunConfig(groups=("A3",)))
    sandwich = run_check("sorting_sandwich", ctx=ctx)
    covers = run_check("cover_containment", ctx=ctx)
    names = [",".join(map(str, Q)) for Q in words]
    for r in (sandwich, covers):
        assert not r.passed
        assert {f["w"] for f in r.failures} == {"1,2,3,2,1"}
        assert sorted({f["Q"] for f in r.failures}) == names
    assert [f["Q"] for f in covers.failures] == names
    cells = [sorted((f["u"], f["v"], f["detail"]) for f in sandwich.failures if f["Q"] == Q)
             for Q in names]
    assert len(sandwich.failures) == 3 * len(names)
    assert all(c == cells[0] for c in cells)


def _cover_product_outcomes(sort_m, ground, weak_m, bru_m, bru_covers):
    """What checks 02 and 10 record for one class, by the k x k route: the
    covers of the sorting relation from one relation product."""
    weak_only = weak_m & ~sort_m
    cells = [dict(u=str(ground[i]), v=str(ground[j]),
                  detail="weak holds but sorting fails" if weak_only[i, j]
                  else "sorting holds but Bruhat fails")
             for i, j in np.argwhere(weak_only | (sort_m & ~bru_m))]
    tied = np.triu(sort_m & sort_m.T, 1)
    sort_covers = coxsort.posets._covers(sort_m)
    bad = tied if tied.any() else sort_covers & ~bru_covers
    if bad.any():
        u, v = min(((ground[i], ground[j]) for i, j in np.argwhere(bad)),
                   key=lambda p: (p[0].word, p[1].word))
        return cells, dict(u=str(u), v=str(v),
                           detail="sorting relation is not antisymmetric" if tied.any()
                           else "sorting cover is not a Bruhat cover"), False
    return cells, None, np.array_equal(sort_covers, bru_covers)


def _refused(*args):
    raise AssertionError("a correct class took the cover product")


@pytest.mark.parametrize("name", ["H3", "A4", "D4"])
def test_class_outcomes_equal_the_cover_product_route(name, monkeypatch):
    # the reference builds each [e, w] on its own, not as a block of the
    # group's relations, and takes the cover product; the stacked route
    # decides every class of a correct sweep without it, and folds the
    # relations of each w by AND and OR
    system = named_system(name)
    elements = system.elements()
    top = system.longest_element()
    bru = coxsort.posets.bruhat_interval(system.identity, top).leq
    weak = coxsort.posets.weak_interval(top).leq
    cov = coxsort.posets._covers(bru)
    real_covers = coxsort.posets._covers
    monkeypatch.setattr(coxsort.posets, "_covers", _refused)
    intervals = list(coxsort.verify._decided_intervals(system, bru, weak, cov))
    monkeypatch.setattr(coxsort.posets, "_covers", real_covers)
    assert [interval.w for interval in intervals] == list(elements)
    classes = proper = 0
    for interval in intervals:
        w = interval.w
        reference = coxsort.posets.bruhat_interval(system.identity, w)
        ground = reference.ground
        below = np.array([u.index for u in ground])
        block = np.ix_(below, below)
        weak_m = coxsort.posets._weak_matrix(ground)
        bru_covers = real_covers(reference.leq)
        assert np.array_equal(interval.below, below)
        assert np.array_equal(bru[block], reference.leq)
        assert np.array_equal(weak[block], weak_m)
        assert np.array_equal(cov[block], bru_covers)
        assert interval.open == 0 and interval.named == {}
        keys = [coxsort.posets._class_key(system, Q) for Q in interval.words]
        assert interval.words == sorted(coxsort.hecke.reduced_words(w))
        assert interval.firsts == [Q for i, Q in enumerate(interval.words)
                                   if keys[i] not in keys[:i]]
        assert sum(interval.counts) == len(interval.words)
        meet = np.ones_like(weak_m)
        join = np.zeros_like(weak_m)
        for Q, same in zip(interval.firsts, interval.equal):
            taken = coxsort.hecke._sorting_rows(system, Q, below)
            sort_m = coxsort.posets._sorting_relation(taken)
            meet &= sort_m
            join |= sort_m
            want = _cover_product_outcomes(sort_m, ground, weak_m, reference.leq, bru_covers)
            assert want == ([], None, same), (w, Q)
            classes += 1
            proper += not same
        assert np.array_equal(interval.meet, meet) and np.array_equal(interval.join, join), w
    assert classes > proper > 0


@pytest.mark.parametrize("budget", [1, 3 * 24 ** 2])
def test_the_chunk_budget_leaves_the_order_records_unchanged(budget, monkeypatch):
    # a budget of 1 makes every class a chunk alone; 3 * 24**2 cells hold
    # three classes of the 24-element [e, w0] of A3, whose 8 classes then
    # straddle several chunks; the records, failures included, stay the same
    config = RunConfig(groups=("A3", "B2"))
    planted = _b2_top_without_position_2(coxsort.hecke._sorting_rows)
    want = [run_check(name, config).to_obj() for name in ORDER_CHECKS]
    monkeypatch.setattr(coxsort.hecke, "_sorting_rows", planted)
    want_planted = [run_check(name, config).to_obj() for name in ORDER_CHECKS]
    monkeypatch.undo()
    seen = []
    real = coxsort.verify._decide

    def spied(chunk):
        seen.append([(interval.w, c) for interval, c, _ in chunk])
        return real(chunk)

    monkeypatch.setattr(coxsort.verify, "_decide", spied)
    monkeypatch.setattr(coxsort.posets, "_BLOCK_BYTES", budget)
    ctx = Context(config)
    assert [run_check(name, ctx=ctx).to_obj() for name in ORDER_CHECKS] == want
    a3 = ctx.system("A3")
    spans = {}
    for number, chunk in enumerate(seen):
        for w, _ in chunk:
            spans.setdefault(w, set()).add(number)
    straddled = len(spans[a3.longest_element()])
    assert straddled == 8 if budget == 1 else 1 < straddled < 8
    assert all(len(chunk) == 1 for chunk in seen) == (budget == 1)
    monkeypatch.setattr(coxsort.hecke, "_sorting_rows", planted)
    assert [run_check(name, config).to_obj() for name in ORDER_CHECKS] == want_planted
    assert want_planted != want


def test_no_chunk_of_the_order_pass_exceeds_the_cell_budget(monkeypatch):
    # the (classes, side, side) of every stacked relation product
    real = coxsort.posets._bool_product
    shapes = []

    def spied(a, b):
        if a.ndim == 3:
            shapes.append((len(a), a.shape[1], b.shape[2]))
        return real(a, b)

    monkeypatch.setattr(coxsort.posets, "_bool_product", spied)
    assert run_check("sorting_sandwich", RunConfig()).passed
    budget = coxsort.posets._BLOCK_BYTES
    # one stacked product per chunk, 227 classes in all; a chunk past the
    # budget holds one class
    assert sum(n for n, _, _ in shapes) == 227
    assert all(n * side * side <= budget or n == 1 for n, side, _ in shapes)
    assert all(side == other for _, side, other in shapes)
    assert max(n for n, _, _ in shapes) > 1
    shapes.clear()
    assert run_check("sorting_sandwich", RunConfig(groups=("D4",))).passed
    assert shapes and all(n * side * side <= budget or n == 1 for n, side, _ in shapes)


def _b2_top_without_position_2(real):
    """``_sorting_rows`` with one planted fault: on (1, 2, 1, 2) in B2, the
    row of the product w0 loses position 2, so it sits above 1 and e only.
    The sorting covers then hold (1, w0), two sizes apart, and every pair
    one size apart is a Bruhat cover."""
    def planted(system, Q, target):
        taken = real(system, Q, target)
        if system.m(1, 2) != 4 or Q != (1, 2, 1, 2) or len(target) != 8:
            return taken
        taken = taken.copy()
        taken[-1, 1] = False
        return taken

    return planted


def test_a_sorting_cover_two_sizes_apart_breaks_cover_containment(monkeypatch):
    real = coxsort.hecke._sorting_rows
    planted = _b2_top_without_position_2(real)
    b2 = named_system("B2")
    w0 = b2.longest_element()
    interval = coxsort.posets.bruhat_interval(b2.identity, w0)
    below = np.array([u.index for u in interval.ground])
    taken = planted(b2, (1, 2, 1, 2), below)
    sort_m = coxsort.posets._sorting_relation(taken)
    bru_covers = coxsort.posets._covers(interval.leq)
    # the planted relation is an order whose one-size steps are all Bruhat
    # covers; only its cover (1, w0) is not one
    size = taken.sum(axis=1)
    steps = sort_m & (size[:, None] + 1 == size)
    assert not (sort_m & sort_m.T & ~np.eye(8, dtype=bool)).any()
    assert not (steps & ~bru_covers).any()
    bad = coxsort.posets._covers(sort_m) & ~bru_covers
    assert [(str(interval.ground[i]), str(interval.ground[j]), int(size[j] - size[i]))
            for i, j in np.argwhere(bad)] == [("1", "1,2,1,2", 2)]
    _, want, _ = _cover_product_outcomes(sort_m, interval.ground,
                                         coxsort.posets._weak_matrix(interval.ground),
                                         interval.leq, bru_covers)
    monkeypatch.setattr(coxsort.hecke, "_sorting_rows", planted)
    r = run_check("cover_containment", SMALL)
    assert not r.passed
    assert r.failures == [dict(group="B2", w="1,2,1,2", Q="1,2,1,2", **want)]
    assert want == {"u": "1", "v": "1,2,1,2", "detail": "sorting cover is not a Bruhat cover"}


def test_order_checks_do_not_depend_on_their_order():
    config = RunConfig(groups=("A3", "B2"))
    ctx = Context(config)
    shared = {name: run_check(name, ctx=ctx).to_obj() for name in reversed(ORDER_CHECKS)}
    for name in ORDER_CHECKS:
        assert shared[name] == run_check(name, config).to_obj(), name


def test_a_failed_order_pass_is_run_again():
    ctx = Context(RunConfig(groups=("A3",), size_cap=10))
    for name in ("sorting_sandwich", "cover_containment"):
        with pytest.raises(coxsort.errors.BudgetExceededError):
            run_check(name, ctx=ctx)
    assert ctx._order_records is None


@pytest.mark.parametrize("kwargs", [dict(groups=()), dict(groups=("B2", "B2")),
                                    dict(field=0), dict(field=2),
                                    dict(groups=("b2", "B2")), dict(groups=("I2:4", "i2.4")),
                                    dict(groups=(" A3", "A3")), dict(field=3),
                                    dict(field=2.0), dict(field=False),
                                    dict(groups="B2"), dict(groups="I2:5"),
                                    dict(groups=["B2"])])
def test_run_config_rejects_vacuous_repeated_or_unknown_settings(kwargs):
    # no check reads a coefficient field, so RunConfig takes none
    with pytest.raises((ValueError, TypeError),
                       match="groups must|unexpected keyword argument 'field'"):
        RunConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [dict(seed="0"), dict(seed=True), dict(seed=0.0),
                                    dict(size_cap=2.5), dict(size_cap=True),
                                    dict(size_cap="50000"), dict(size_cap=0),
                                    dict(size_cap=-1)])
def test_run_config_rejects_a_seed_or_size_cap_it_would_not_use_as_given(kwargs):
    # seed "0" drew other trials than seed 0 under the name "0", and a cap
    # of 2.5 was reported as 2.5 while groups were built under 2
    with pytest.raises(ValueError, match="size_cap must be ints|size_cap must be positive"):
        RunConfig(**kwargs)
