import hashlib
import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest

import coxsort.hecke
import coxsort.homology
import coxsort.posets
import coxsort.subword
from coxsort import (BudgetExceededError, CoxeterSystem, RunConfig, fibermap, named_system,
                     parse_word, run_check, subword_complex, word_str)
from coxsort.cli import main
from coxsort.fibermap import (FiberReport, certify_fiber_contractible, certify_interval_el,
                              certify_interval_sphere, check_order_preserving, fiber_open,
                              fiber_up, subset_image)
from coxsort.hecke import _below, bruhat_leq, bruhat_row, demazure, sorting_positions
from coxsort.homology import DEFAULT_FACE_BUDGET, SimplicialComplex, order_complex
from coxsort.oracles import cone_vertex, contractibility_evidence, inclusion_poset_bruteforce
from coxsort.subword import certify_subword_complex


def fs(*items):
    return frozenset(items)


def test_subset_image_examples():
    a3 = CoxeterSystem.type_a(3)
    Q = (1, 2, 3, 1, 2, 1)
    assert subset_image(a3, Q, ()) == a3.identity
    assert subset_image(a3, Q, (1, 2, 3, 4, 5, 6)) == a3.longest_element()
    # positions {1, 4}: letters (1, 1) fold to s1
    assert subset_image(a3, Q, (1, 4)) == a3.element((1,))
    assert subset_image(a3, Q, (4, 1)) == a3.element((1,))  # order is irrelevant
    assert subset_image(a3, Q, (2, 3, 5)) == a3.element((2, 3, 2))


def test_subset_image_errors():
    a3 = CoxeterSystem.type_a(3)
    with pytest.raises(ValueError, match="positions"):
        subset_image(a3, (1, 2), (3,))
    with pytest.raises(ValueError, match="positions"):
        subset_image(a3, (1, 2), (0,))
    with pytest.raises(ValueError, match="reduced"):
        subset_image(a3, (1, 1), ())
    # a float position is named by a ValueError before the range check;
    # numpy integers pass
    Q = (1, 2, 3, 1, 2, 1)
    for positions, bad in (([1.0, 2], "1.0"), ([1.5], "1.5"), ([9.5], "9.5"), (["1"], "'1'")):
        with pytest.raises(ValueError, match=f"position {bad} is not an integer"):
            subset_image(a3, Q, positions)
    # a bool position is no position: [True] used to read position 1
    b2 = CoxeterSystem.type_b(2)
    for positions, bad in (([True], "True"), ([1, False], "False")):
        with pytest.raises(ValueError, match=f"position must be an integer, got {bad}"):
            subset_image(b2, (1, 2), positions)
    assert subset_image(a3, Q, np.array([1, 4])) == a3.element((1,))
    assert subset_image(a3, Q, [np.int64(2), np.int8(3), 5]) == a3.element((2, 3, 2))


def images(system, Q):
    """f on every position set, one subset at a time."""
    positions = range(1, len(Q) + 1)
    return {fs(*S): subset_image(system, Q, S)
            for r in range(len(Q) + 1) for S in itertools.combinations(positions, r)}


def test_mask_images_match_pointwise():
    b2 = CoxeterSystem.type_b(2)
    Q = (2, 1, 2, 1)
    elements = b2.elements()
    imgs = {fibermap._positions(mask): elements[x]
            for mask, x in enumerate(fibermap._mask_images(b2, Q))}
    assert len(imgs) == 16
    assert imgs == images(b2, Q)


@pytest.mark.parametrize("call", [
    lambda system, Q: fiber_up(system, Q, system.identity),
    check_order_preserving,
], ids=["fiber_up", "check_order_preserving"])
def test_mask_cap_budget(call):
    with pytest.raises(BudgetExceededError, match="cap"):
        call(CoxeterSystem.type_a(17), tuple(range(1, 18)))
    # a group small enough to build still stops at the mask cap
    with pytest.raises(BudgetExceededError, match="17 positions exceeds the cap of 16") as exc:
        call(CoxeterSystem.dihedral(17), (1, 2) * 8 + (1,))
    assert (exc.value.budget, exc.value.limit, exc.value.spent) == ("mask_cap", 16, 17)


A5_PREFIX = (1, 2, 1, 3, 2, 1, 4, 3, 2, 1, 5, 4)  # 12 letters, 4,096 masks


def test_order_preserving():
    a3 = CoxeterSystem.type_a(3)
    assert check_order_preserving(a3, (1, 2, 3, 1, 2, 1))
    b2 = CoxeterSystem.type_b(2)
    assert check_order_preserving(b2, (1, 2, 1, 2))
    a5 = CoxeterSystem.type_a(5)
    assert a5.element(A5_PREFIX).length == 12
    assert check_order_preserving(a5, A5_PREFIX)
    b4 = CoxeterSystem.type_b(4)
    w0 = b4.longest_element()
    assert w0.length == 16  # the mask cap
    assert check_order_preserving(b4, w0.word)


@pytest.mark.parametrize("system, Q", [
    (CoxeterSystem.type_a(3), (1, 2, 3, 1, 2, 1)),
    (CoxeterSystem.type_a(5), A5_PREFIX),
], ids=["A3_6_letters", "A5_12_letters"])
def test_order_preserving_detects_a_wrong_image(monkeypatch, system, Q):
    real = fibermap._mask_images

    def empty_set_to_w0(system, Q):
        imgs = real(system, Q)
        imgs[0] = system.longest_element().index
        return imgs

    monkeypatch.setattr(fibermap, "_mask_images", empty_set_to_w0)
    assert not check_order_preserving(system, Q)


def test_order_preserving_detects_one_wrong_image_among_4096(monkeypatch):
    a5 = CoxeterSystem.type_a(5)
    real = fibermap._mask_images

    def one_mask_to_e(system, Q):
        imgs = real(system, Q)
        imgs[0b101010101010] = system.identity.index
        return imgs

    monkeypatch.setattr(fibermap, "_mask_images", one_mask_to_e)
    assert not check_order_preserving(a5, A5_PREFIX)


@pytest.mark.parametrize("j", range(4))
def test_order_preserving_reads_the_cover_at_every_position(monkeypatch, j):
    # f({i, j}) := s_Q[j] with Q[i] != Q[j]: only the cover {i} < {i, j} breaks
    b2 = CoxeterSystem.type_b(2)
    Q = (1, 2, 1, 2)
    i = (j + 1) % 4
    real = fibermap._mask_images

    def pair_to_one_letter(system, Q):
        imgs = real(system, Q)
        imgs[1 << i | 1 << j] = imgs[1 << j]
        return imgs

    monkeypatch.setattr(fibermap, "_mask_images", pair_to_one_letter)
    assert not check_order_preserving(b2, Q)


def test_fiber_up_partitions_by_image():
    a3 = CoxeterSystem.type_a(3)
    Q = (1, 2, 3, 1, 2, 1)
    imgs = images(a3, Q)
    w = demazure(a3, Q)
    for u in (a3.identity, a3.element((1, 2, 1)), w):
        up = fiber_up(a3, Q, u)
        assert up == {S for S, g in imgs.items() if bruhat_leq(u, g)}
    assert fiber_up(a3, Q, a3.identity) == set(imgs)
    assert fiber_up(a3, Q, w) == {fs(1, 2, 3, 4, 5, 6)}


def test_fiber_open():
    b2 = CoxeterSystem.type_b(2)
    Q = (1, 2, 1, 2)
    w = demazure(b2, Q)
    u = b2.element((1, 2, 1))
    open_fiber = fiber_open(b2, Q, u)
    up = fiber_up(b2, Q, u)
    imgs = images(b2, Q)
    assert open_fiber == {S for S in up if imgs[S] not in (u, w)}
    with pytest.raises(ValueError, match="strictly below"):
        fiber_open(b2, Q, w)


def test_fiber_duality_with_subword_complex():
    from coxsort import subword_complex
    a3 = CoxeterSystem.type_a(3)
    Q = (1, 2, 3, 1, 2, 1)
    full = fs(*range(1, len(Q) + 1))
    for u in (a3.element((1,)), a3.element((1, 2, 1)), a3.element((1, 2, 3))):
        c = subword_complex(a3, Q, u)
        assert fiber_up(a3, Q, u) == {full - F for F in c.faces()}
        assert fiber_open(a3, Q, u) == {full - F for F in c.boundary_faces() if F}


def test_sorting_section():
    # the sorting positions of u are a section of f: f sends them back to u
    a3 = CoxeterSystem.type_a(3)
    Q = (1, 2, 3, 1, 2, 1)
    ground = a3.elements()
    assert len(ground) == 24
    section = {u: fs(*(j + 1 for j in row.nonzero()[0].tolist()))
               for u, row in zip(ground, sorting_positions(a3, Q, ground))}
    assert section[a3.identity] == fs()
    assert section[a3.element((1, 2, 1))] == fs(1, 2, 4)
    for u, S in section.items():
        assert subset_image(a3, Q, S) == u
        assert len(S) == u.length  # the section picks a reduced subword


def test_certify_fiber_contractible():
    b2 = CoxeterSystem.type_b(2)
    Q = (1, 2, 1, 2)
    r = certify_fiber_contractible(b2, Q, b2.element((1, 2, 1)))
    assert r.contractible
    assert r.complex_type == "ball"
    top = certify_fiber_contractible(b2, Q, demazure(b2, Q))
    assert top.contractible and top.method == "singleton"
    assert top.poset_size == 1
    with pytest.raises(ValueError, match="below"):
        certify_fiber_contractible(b2, (1, 2), b2.element((1, 2, 1)))


def test_certify_fiber_contractible_all_strict_a3():
    a3 = CoxeterSystem.type_a(3)
    Q = (1, 2, 3, 1, 2, 1)
    w = demazure(a3, Q)
    for u in a3.elements():
        if u == w:
            continue
        assert certify_fiber_contractible(a3, Q, u).contractible


def _certificate_by_order_complex(system, Q, u):
    """The fiber certificate the long way round: the order complex of the
    strict upper fiber, ordered by a pairwise inclusion scan, and the open
    fiber from the table of f."""
    up = fiber_up(system, Q, u)
    kind = subword_complex(system, Q, u).classify()
    if u == demazure(system, Q):
        return FiberReport(u.word, kind, len(up), None, True, "singleton")
    open_size = len(fiber_open(system, Q, u))
    proper = inclusion_poset_bruteforce(up - {fs(*range(1, len(Q) + 1))})
    ev = contractibility_evidence(order_complex(proper))
    return FiberReport(u.word, kind, len(up), open_size, ev.contractible, ev.method, ev.betti)


def test_certificate_agrees_with_the_order_complex_of_the_fiber():
    # Q runs over the canonical word of every element of length <= 6
    cases = methods = 0
    seen = set()
    for system in (CoxeterSystem.type_a(3), CoxeterSystem.type_b(2),
                   CoxeterSystem.dihedral(5), CoxeterSystem.type_b(3)):
        for w in system.elements():
            if w.length > 6:
                continue
            for u in system.elements():
                if bruhat_leq(u, w):
                    report = certify_fiber_contractible(system, w.word, u)
                    assert report == _certificate_by_order_complex(system, w.word, u)
                    seen.add(report.method)
                    cases += 1
    assert cases == 798
    assert seen == {"singleton", "cone", "homology"}


@pytest.mark.parametrize("u", [(1,), (2,)])
def test_cone_vertex_with_two_facets_is_certified_by_homology(u):
    b2 = CoxeterSystem.type_b(2)
    Q = (1, 2, 1, 2)
    K = subword_complex(b2, Q, b2.element(u))
    assert cone_vertex(K) is not None and len(K.facets) == 2
    report = certify_fiber_contractible(b2, Q, b2.element(u))
    assert report.contractible and report.method == "homology"
    assert [p.is_trivial() for p in report.betti] == [True, True]
    assert report.poset_size == len(fiber_up(b2, Q, b2.element(u))) == 12


def _old_route(monkeypatch):
    """Count the steps of the route that fiber certificates took before
    they read their complex's homotopy type off the fold: a complex set
    up, a facet listing, a face enumeration and an elimination."""
    return _count_calls(monkeypatch, (coxsort.subword.SubwordComplex, "_setup"),
                        (coxsort.subword, "_spellings"), (SimplicialComplex, "_enumerate"),
                        (coxsort.homology, "_profiles"))


def test_one_complex_per_certificate(monkeypatch):
    # a fiber certificate builds no complex: a cone with two facets or more
    # keeps the label "homology", and the singleton's complex, the empty
    # complex {frozenset()}, is S^-1; the facets of the last two used to be
    # listed
    route = _old_route(monkeypatch)
    a3, b2 = CoxeterSystem.type_a(3), CoxeterSystem.type_b(2)
    Q = (1, 2, 3, 1, 2, 1)
    for system, Q, word, method in ((a3, Q, (), "cone"), (a3, Q, (2,), "homology"),
                                    (a3, Q, Q, "singleton"), (b2, (1, 2, 1, 2), (1, 2), "homology")):
        report = certify_fiber_contractible(system, Q, system.element(word))
        assert report.method == method
        assert set(route.values()) == {0}


H3_W0 = (1, 2, 1, 2, 1, 3, 2, 1, 2, 1, 3, 2, 1, 2, 3)


def test_the_fiber_sweep_proves_its_cones_from_the_fold(monkeypatch, capsys):
    # the longest word of H3: of its 120 complexes the 15 that are no cone
    # and Delta(Q, w) = {frozenset()} used to list facets and build faces
    # (88,279 faces); now none does, nor checks 06 and 09, nor the command
    h3 = CoxeterSystem.type_h3()
    route = _old_route(monkeypatch)
    reports = fibermap._fiber_reports(h3, H3_W0, h3.elements())
    methods = [r.method for r in reports]
    assert (len(reports), methods.count("cone"), methods.count("homology"),
            methods.count("singleton")) == (120, 13, 106, 1)
    assert all(r.contractible for r in reports)
    assert main(["fibers", "--type", "H3", "--Q", word_str(H3_W0)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 121
    for name in ("ball_sphere_classification", "contractible_fibers"):
        assert run_check(name).passed
    assert set(route.values()) == {0}


def test_each_fiber_function_checks_its_word_once(monkeypatch):
    a3, b2 = CoxeterSystem.type_a(3), CoxeterSystem.type_b(2)
    Q, u = (1, 2, 3, 1, 2, 1), a3.element((1,))
    calls = []
    real = CoxeterSystem.check_word

    def counted(self, word):
        calls.append(word)
        return real(self, word)

    monkeypatch.setattr(CoxeterSystem, "check_word", counted)
    for call in (lambda: fiber_open(a3, Q, u), lambda: fiber_up(a3, Q, u),
                 lambda: check_order_preserving(a3, Q),
                 lambda: certify_fiber_contractible(a3, Q, u)):
        calls.clear()
        call()
        assert calls == [Q]
    # the errors are those of the calls that checked twice
    for call in (fiber_open, fiber_up, certify_fiber_contractible):
        with pytest.raises(ValueError, match="not reduced"):
            call(a3, (1, 1), u)
        with pytest.raises(ValueError, match="different Coxeter systems"):
            call(a3, Q, b2.element((1,)))
    with pytest.raises(ValueError, match="not reduced"):
        check_order_preserving(a3, (1, 1))


def _count_calls(monkeypatch, *sites):
    """Wrap each (owner, name) of ``sites`` so that its calls are counted,
    in a dict by name."""
    counts = dict.fromkeys((name for _, name in sites), 0)
    for owner, name in sites:
        real = getattr(owner, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


def test_a_fiber_sweep_checks_and_folds_its_word_once(monkeypatch, capsys):
    # one certificate per u used to check Q, fold it and ask Bruhat order
    # once each: 121 / 120 / 120 for the 120 targets of H3's longest word,
    # 40 / 37 / 37 for check 09; check 07 folded Q once per u, 40 times
    counts = _count_calls(monkeypatch, (CoxeterSystem, "check_word"),
                          (coxsort.subword, "_suffix_demazure"), (fibermap, "bruhat_leq"))

    def spent():
        got = tuple(counts.values())
        counts.update(dict.fromkeys(counts, 0))
        return got

    assert main(["fibers", "--type", "H3", "--Q", word_str(H3_W0)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 121
    # the command's own check of Q, then the sweep's one check and one fold
    assert all(a <= b for a, b in zip(spent(), (2, 1, 0)))
    assert run_check("contractible_fibers").passed
    # per word: system.element(Q) and the sweep's check, and one fold
    assert all(a <= b for a, b in zip(spent(), (6, 3, 0)))
    # check 07 builds every Delta(Q, u) of a word from one fold; its
    # reference side (fiber_up, fiber_open, interior_faces) is another count
    folds = _count_calls(monkeypatch, (coxsort.subword, "_fold"))
    assert run_check("fiber_duality").passed
    assert folds == {"_fold": 3}


def test_check_07_lists_interior_faces_with_no_refold(monkeypatch):
    # interior_faces folded the complement of every face one at a time:
    # 539 folds per run, where the 3 words of the check are folded once each
    counts = _count_calls(monkeypatch, (coxsort.subword, "_suffix_demazure"))
    assert run_check("fiber_duality").passed
    assert counts == {"_suffix_demazure": 3}


def test_check_07_builds_one_table_of_f_per_word(monkeypatch):
    # its reference side went through fiber_up and fiber_open, which built
    # the 2^|Q| table of f and checked Q once per call: 77 tables and 80
    # word checks for its 3 words
    counts = _count_calls(monkeypatch, (fibermap, "_mask_images"),
                          (CoxeterSystem, "check_word"))
    assert run_check("fiber_duality").passed
    assert counts == {"_mask_images": 3, "check_word": 3}


def test_the_fiber_sweep_is_the_one_target_certificate_per_u():
    b3 = CoxeterSystem.type_b(3)
    Q = b3.longest_element().word
    below = _below(b3.longest_element())
    assert fibermap._fiber_reports(b3, Q, below) == [
        certify_fiber_contractible(b3, Q, u) for u in below]
    # errors in the one-target order: the word, the system, then Bruhat order
    # (b3's <3> is also outside [e, 1,2,1] in A3's table)
    a3 = CoxeterSystem.type_a(3)
    for Q, targets, message in (
            ((1, 1), [b3.element((3,))], "not reduced"),
            ((1, 2, 1), [a3.element((1,)), b3.element((3,))], "different Coxeter systems"),
            ((1, 2, 1), [a3.element((2, 1)), a3.element((1, 2, 3))], "below the product of Q")):
        for call in (lambda: fibermap._fiber_reports(a3, Q, targets),
                     lambda: certify_fiber_contractible(a3, Q, targets[-1])):
            with pytest.raises(ValueError, match=message):
                call()


def test_a_capped_mask_table_names_its_word_and_group(capsys):
    a6 = CoxeterSystem.type_a(6)
    Q = a6.longest_element().word[:17]
    subject = f"Q={word_str(Q)} in {a6!r}"
    with pytest.raises(BudgetExceededError, match="17 positions exceeds the cap of 16") as exc:
        check_order_preserving(a6, Q)
    assert (exc.value.budget, exc.value.limit, exc.value.spent) == ("mask_cap", 16, 17)
    assert exc.value.subject == subject
    # the fiber survey reads its sizes off the fold and builds no table of f,
    # so the cap is not its own
    assert main(["fibers", "--type", "A6", "--Q", word_str(Q)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + len(_below(a6.element(Q)))


def test_certify_interval_sphere():
    a3 = CoxeterSystem.type_a(3)
    e, w0 = a3.identity, a3.longest_element()
    r = certify_interval_sphere(e, w0)
    assert r.matches and r.expected_dim == 4
    assert r.size == 22
    assert json.loads(r.to_json())["matches"] is True

    # codimension-2 intervals are 0-spheres: exactly two middle elements
    for u in a3.elements():
        for w in a3.elements():
            if w.length - u.length == 2 and bruhat_leq(u, w):
                rep = certify_interval_sphere(u, w)
                assert rep.size == 2 and rep.matches


def test_certify_interval_sphere_b2_octahedron():
    b2 = CoxeterSystem.type_b(2)
    r = certify_interval_sphere(b2.identity, b2.longest_element(), coefficient_field=0)
    assert r.matches and r.expected_dim == 2
    assert r.size == 6
    assert r.profile.coefficient_field == 0


def test_certify_interval_sphere_errors():
    a3 = CoxeterSystem.type_a(3)
    b2 = CoxeterSystem.type_b(2)
    with pytest.raises(ValueError, match="different systems"):
        certify_interval_sphere(a3.identity, b2.longest_element())
    with pytest.raises(ValueError, match="below"):
        certify_interval_sphere(a3.element((1, 2, 1)), a3.element((2, 3)))
    with pytest.raises(ValueError, match="length difference"):
        certify_interval_sphere(a3.identity, a3.element((1,)))


def test_certify_interval_sphere_raises_on_the_face_budget():
    # (e, w0) in H3: 118 middle elements and far more chains than the face
    # budget; the walk stops on the first level over it, before building it.
    # The second field runs with the Bruhat rows already cached.
    h3 = CoxeterSystem.type_h3()
    for field in (2, 0):
        with pytest.raises(BudgetExceededError, match="face enumeration") as exc:
            certify_interval_sphere(h3.identity, h3.longest_element(), field)
        assert (exc.value.budget, exc.value.limit) == ("face_budget", DEFAULT_FACE_BUDGET)
        assert exc.value.spent > DEFAULT_FACE_BUDGET


def test_face_budget_errors_name_what_was_certified(monkeypatch):
    h3 = CoxeterSystem.type_h3()
    e, w0 = h3.identity, h3.longest_element()
    with pytest.raises(BudgetExceededError) as exc:
        certify_interval_sphere(e, w0)
    err = exc.value
    in_h3 = " in CoxeterSystem(rank=3, matrix=((1, 5, 2), (5, 1, 3), (2, 3, 1)))"
    assert err.subject == f"interval ({e!r}, {w0!r}){in_h3}"
    assert str(err).endswith(f"({err.subject})")
    assert (err.budget, err.limit) == ("face_budget", DEFAULT_FACE_BUDGET)
    assert err.spent > err.limit
    # Delta(Q, e) of a reduced word of w0 is the 14-simplex, 2**15 faces, over
    # a budget of 1,000 faces patched in; the subword and fiber certificates
    # build no face, so they read no budget and raise nothing
    Q = w0.word
    want = (certify_subword_complex(subword_complex(h3, Q, e)),
            certify_fiber_contractible(h3, Q, e))
    monkeypatch.setattr(coxsort.homology, "DEFAULT_FACE_BUDGET", 1000)
    K = subword_complex(h3, Q, e)
    with pytest.raises(BudgetExceededError) as bare:
        K.num_faces()
    assert bare.value.subject == ""
    assert (bare.value.budget, bare.value.limit, bare.value.spent) == ("face_budget", 1000, 2 ** 15)
    assert (certify_subword_complex(K), certify_fiber_contractible(h3, Q, e)) == want


def _check_08_pairs():
    """Check 08's pairs: every u < w of A3 and B2 with l(w) - l(u) >= 2, and
    of B3 up to difference 4."""
    pairs = []
    for system, cap in ((CoxeterSystem.type_a(3), None), (CoxeterSystem.type_b(2), None),
                        (CoxeterSystem.type_b(3), 4)):
        pairs += [(u, w) for w in system.elements() for u in _below(w)
                  if 2 <= w.length - u.length and (cap is None or w.length - u.length <= cap)]
    return pairs


def _no_pair_proven(monkeypatch):
    """Patch the EL pass to prove no pair."""
    monkeypatch.setattr(fibermap, "certify_interval_el",
                        lambda system: np.zeros((system.order(),) * 2, dtype=bool))


@pytest.mark.parametrize("field", [2, 0])
def test_interval_batch_equals_one_pair_calls_on_check_08_pairs(field):
    # the batch over check 08's pairs is folded into the one-pair call: the
    # one-pair calls give the reports the batch gave, by the digest of their
    # JSON lines
    pairs = _check_08_pairs()
    assert len(pairs) == 652
    lines = "\n".join(certify_interval_sphere(u, w, field).to_json() for u, w in pairs)
    assert hashlib.sha256(lines.encode()).hexdigest() == {
        2: "6bea9db1febbe3643b5e36e0ea784f5c5691cc8bc85396465a593012f3925d4e",
        0: "e388d8cafe58a644c88579f9310c3cf5bf0168915b32c65afe1db3d0ccd232a6"}[field]


def test_check_08_reads_the_el_pass_alone(monkeypatch):
    # check 08 builds no order complex and eliminates nothing, and with the
    # EL pass patched to prove nothing every one of its 652 pairs fails
    made, cold = [], []
    real_init = coxsort.homology._OrderComplex.__init__
    monkeypatch.setattr(coxsort.homology._OrderComplex, "__init__",
                        lambda self, *args: made.append(self) or real_init(self, *args))
    real = coxsort.homology._profiles
    monkeypatch.setattr(coxsort.homology, "_profiles", lambda K: cold.append(K) or real(K))
    r = run_check("open_interval_spheres", RunConfig())
    assert r.passed and r.instances == 652
    _no_pair_proven(monkeypatch)
    r = run_check("open_interval_spheres", RunConfig())
    assert not r.passed and r.instances == 652
    assert r.failures[0] == {"group": "A3", "u": "e", "v": "1,2",
                             "detail": "not proved S^0 by the EL-labelling"}
    assert r.failures[-1] == {"detail": "627 further failures truncated"}
    assert made == cold == []


def test_interval_batch_checks_its_input():
    # the batch's input checks, now the one-pair call's: the field before
    # the length difference
    b2 = CoxeterSystem.type_b(2)
    e, w0 = b2.identity, b2.longest_element()
    with pytest.raises(ValueError, match="coefficient field"):
        certify_interval_sphere(e, w0, 3)
    with pytest.raises(ValueError, match="coefficient field"):
        certify_interval_sphere(e, b2.element((1,)), 3)
    with pytest.raises(ValueError, match="length difference"):
        certify_interval_sphere(e, b2.element((1,)))


def _graded_pairs(system):
    """[u, w]: u <= w with l(w) - l(u) >= 2, over table rows."""
    elements = system.elements()
    length = np.array([w.length for w in elements])
    leq = np.stack([bruhat_row(w) for w in elements]).T
    return leq & (length[:, None] + 2 <= length)


@pytest.mark.parametrize("field", [2, 0])
def test_el_pass_agrees_with_the_interval_route_on_check_08_pairs(field):
    pairs = _check_08_pairs()
    proven = {}
    for u, w in pairs:
        if w.system not in proven:
            proven[w.system] = certify_interval_el(w.system)
    reports = [certify_interval_sphere(u, w, field) for u, w in pairs]
    assert [bool(proven[w.system][u.index, w.index]) for u, w in pairs] == [
        r.matches for r in reports] == [True] * 652


@pytest.mark.parametrize("system,count", [(CoxeterSystem.type_a(3), 131),
                                          (CoxeterSystem.type_b(3), 661),
                                          (CoxeterSystem.type_h3(), 4961)],
                         ids=["A3", "B3", "H3"])
def test_el_pass_proves_every_interval(system, count):
    proven = certify_interval_el(system)
    assert not proven.flags.writeable and proven.dtype == bool
    assert np.array_equal(proven, _graded_pairs(system)) and proven.sum() == count


def test_el_pass_is_the_same_in_chunks_of_any_size(monkeypatch):
    h3 = CoxeterSystem.type_h3()
    whole = certify_interval_el(h3)
    for budget in (1, 100, 5000):
        monkeypatch.setattr(coxsort.posets, "_BLOCK_BYTES", budget)
        assert np.array_equal(certify_interval_el(h3), whole)


def _maximal_chains(leq, length, x, y):
    """The chains of steps x < z (l(z) = l(x) + 1) from x to y, as lists of
    (x, z) pairs, by brute force."""
    if x == y:
        return [[]]
    return [[(x, z)] + rest for z in np.flatnonzero(leq[x] & (length == length[x] + 1))
            if leq[z, y] for rest in _maximal_chains(leq, length, z, y)]


def _el_bruteforce(system, order):
    """The matrix of certify_interval_el under the label order ``order``,
    from every maximal chain of every interval, listed one by one."""
    elements = system.elements()
    n = len(elements)
    length = np.array([w.length for w in elements])
    leq = np.stack([bruhat_row(w) for w in elements]).T
    rank = {t: k for k, t in enumerate(order, start=1)}
    chains = {(x, y): [[rank.get((elements[z] * elements[a].inverse()).index, 0)
                        for a, z in c] for c in _maximal_chains(leq, length, x, y)]
              for x in range(n) for y in range(n) if leq[x, y]}

    def good(labels):
        increasing = [c for c in labels if all(a < b for a, b in zip(c, c[1:]))]
        return all(c and c[0] for c in labels) and len(increasing) == 1 and (
            min(labels) == increasing[0])

    fine = {pair: pair[0] == pair[1] or good(labels) for pair, labels in chains.items()}
    proven = np.zeros((n, n), dtype=bool)
    for (u, w), labels in chains.items():
        decreasing = [c for c in labels if all(a > b for a, b in zip(c, c[1:]))]
        proven[u, w] = length[w] - length[u] >= 2 and len(decreasing) == 1 and all(
            ok for (x, y), ok in fine.items() if leq[u, x] and leq[y, w])
    return proven


@pytest.mark.parametrize("name", ["B2", "A3", "I2:5"])
def test_el_pass_equals_the_chain_by_chain_count_under_any_label_order(name, monkeypatch):
    system = named_system(name)
    real = fibermap._reflection_order(system)
    rng = random.Random(0)
    orders = [real] + [rng.sample(real, len(real)) for _ in range(4)]
    orders.append(real[:-1])  # the covers of the last reflection unlabelled
    counts = []
    for order in orders:
        monkeypatch.setattr(fibermap, "_reflection_order", lambda system, order=order: order)
        proven = certify_interval_el(system)
        assert np.array_equal(proven, _el_bruteforce(system, order)), order
        counts.append(int(proven.sum()))
    assert counts[0] == _graded_pairs(system).sum() > max(counts[1:])


def test_a_shuffled_label_order_turns_check_08_red(monkeypatch):
    real = fibermap._reflection_order
    shuffled = {}

    def reordered(system):
        order = real(system)
        return random.Random(len(order)).sample(order, len(order))

    monkeypatch.setattr(fibermap, "_reflection_order", reordered)
    for name in ("A3", "B3", "H3"):
        system = named_system(name)
        shuffled[name] = (int(certify_interval_el(system).sum()), int(_graded_pairs(system).sum()))
    assert all(got < every for got, every in shuffled.values()), shuffled
    r = run_check("open_interval_spheres", RunConfig())
    assert not r.passed and r.instances == 652
    # 363 of the 652 pairs are left unproved: 25 kept, the rest counted
    assert r.failures[-1] == {"detail": "338 further failures truncated"}


def _row_without(monkeypatch, system, v, x):
    """Patch ``hecke.bruhat_row`` so that the row of v in ``system`` loses x."""
    real = coxsort.hecke.bruhat_row

    def dropped(w):
        row = real(w)
        if w.system == system and w == v:
            row = row.copy()
            row[x.index] = False
        return row

    monkeypatch.setattr(coxsort.hecke, "bruhat_row", dropped)


def test_a_bruhat_row_that_drops_an_element_is_not_proven_and_turns_check_08_red(monkeypatch):
    # 1,2 leaves the row of 1,2,1 in B2; what is left is still an order, in
    # which (u, 1,2,1) and (u, 1,2,1,2) are no spheres for 7 pairs
    b2 = CoxeterSystem.type_b(2)
    _row_without(monkeypatch, b2, b2.element((1, 2, 1)), b2.element((1, 2)))
    proven = certify_interval_el(b2)
    wrong = [("e", "1,2,1", 1), ("1", "1,2,1", 0), ("2", "1,2,1", 0), ("e", "1,2,1,2", 2),
             ("1", "1,2,1,2", 1), ("2", "1,2,1,2", 1), ("1,2", "1,2,1,2", 0)]
    for u, w, _ in wrong:
        assert not proven[b2.element(parse_word(u)).index, b2.element(parse_word(w)).index]
    r = run_check("open_interval_spheres", RunConfig())
    assert not r.passed and r.instances == 652
    assert r.failures == [{"group": "B2", "u": u, "v": w, "detail":
                           f"not proved S^{d} by the EL-labelling"} for u, w, d in wrong]


@pytest.mark.parametrize("labels,proved", [
    ([(1, 2), (2, 1)], True),
    # two decreasing chains, a wedge of two copies of S^0
    ([(1, 2), (2, 1), (3, 1)], False),
    # the step 0 < a has no label
    ([(0, 1), (2, 1)], False),
])
def test_el_checks_need_labelled_steps_and_one_decreasing_chain(labels, proved):
    # 0 < a, b (, c) < 1, the labels of the steps 0 < a and a < 1 first:
    # 0 < a < 1 with labels (1, 2) is the one increasing chain, and it is
    # lexicographically first
    k = len(labels) + 2
    leq = np.eye(k, dtype=bool)
    leq[0], leq[:, -1] = True, True
    label = np.zeros((k, k), dtype=np.uint8)
    label[0, 1:-1], label[1:-1, -1] = zip(*labels)
    length = np.array([0] + [1] * len(labels) + [2])
    proven = fibermap._el_proven(leq, length, label, len(labels) + 1)
    assert proven.sum() == proved and proven[0, -1] == proved


def test_el_pass_stays_small_on_check_08_groups():
    # one byte a cell, a chunk of upper ends within posets._BLOCK_BYTES; the
    # homology route of check 08 peaked at 0.33 MB under tracemalloc
    systems = [named_system(name) for name in ("A3", "B2", "B3")]
    for system in systems:
        certify_interval_el(system)  # the rows and the relation, as check 08 finds them
    tracemalloc.start()
    try:
        for system in systems:
            certify_interval_el(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000, peak
