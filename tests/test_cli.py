import json

import pytest

import coxsort.fibermap
import coxsort.hecke
from coxsort import CoxeterSystem, fiber_up
from coxsort.cli import build_parser, main
from coxsort.coxeter import DEFAULT_SIZE_CAP, word_str
from coxsort.fibermap import (certify_fiber_contractible, fiber_open, fiber_up,
                              subset_image)
from coxsort.hecke import sorting_positions
from coxsort.posets import sorting_order
from coxsort.verify import RunConfig, named_system


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_group_tsv(capsys):
    code, out, _ = run(capsys, "group", "--type", "B2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "word\tlength\tleft_descents\tright_descents"
    assert len(lines) == 9  # header + 8 elements
    assert lines[1].startswith("e\t0\t-\t-")


def test_group_json(capsys):
    code, out, _ = run(capsys, "group", "--type", "A1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 2
    words = [e["word"] for e in payload["elements"]]
    assert words == ["e", "1"]


def test_group_of_a_named_exceptional_type(capsys):
    code, out, _ = run(capsys, "group", "--type", "f4", "--format", "json")
    assert code == 0 and json.loads(out)["order"] == 1152
    with pytest.raises(SystemExit):
        main(["group", "--help"])
    assert "I2:<m>, H3, H4, F4" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("command", ["group", "subword", "fibers"])
def test_only_orders_offers_dot(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--type", "B2", "--format", "dot"])
    assert exc.value.code == 2
    assert "invalid choice: 'dot'" in capsys.readouterr().err


def test_orders_dot_blocks(capsys):
    code, out, _ = run(capsys, "orders", "all", "--type", "B2", "--w", "1,2,1,2")
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 4  # weak, two sorting orders, bruhat
    assert blocks[0].startswith('digraph "weak"')
    assert blocks[-1].startswith('digraph "bruhat"')
    assert all("rankdir=BT;" in b for b in blocks)
    weak_edges = blocks[0].count("->")
    bruhat_edges = blocks[-1].count("->")
    assert weak_edges == 8   # two maximal chains of length 4
    assert bruhat_edges == 12
    # cover edges only: the full relation on [e, w0] has many more pairs
    assert '"e" -> "1,2,1,2"' not in blocks[-1]


def test_orders_sorting_tsv(capsys):
    code, out, _ = run(capsys, "orders", "sorting", "--type", "B2",
                       "--w", "2,1,2", "--Q", "2,1,2", "--format", "tsv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "# sorting 2,1,2"
    covers = {tuple(line.split("\t")) for line in lines[1:]}
    assert covers == {("e", "1"), ("e", "2"), ("1", "1,2"), ("1", "2,1"),
                      ("2", "2,1"), ("1,2", "2,1,2"), ("2,1", "2,1,2")}


def test_orders_sorting_needs_q(capsys):
    code, _, err = run(capsys, "orders", "sorting", "--type", "B2", "--w", "2,1,2")
    assert code == 2
    assert "--Q" in err


def test_orders_sorting_rejects_q_of_another_element(capsys):
    code, out, err = run(capsys, "orders", "sorting", "--type", "B2",
                         "--w", "1", "--Q", "1,2,1,2")
    assert code == 2 and out == ""
    assert err == "error: --Q 1,2,1,2 does not spell --w 1\n"


@pytest.mark.parametrize("command", [["group"], ["orders", "all"], ["subword"], ["fibers"]],
                         ids=["group", "orders", "subword", "fibers"])
def test_seed_is_not_an_option_of_exact_commands(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--type", "B2", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_orders_json_roundtrip(capsys):
    code, out, _ = run(capsys, "orders", "weak", "--type", "A2",
                       "--w", "1,2,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    (poset,) = payload["posets"]
    assert poset["label"] == "weak"
    assert len(poset["ground"]) == 6
    assert len(poset["leq"]) == 6


def test_subword_sphere(capsys):
    code, out, _ = run(capsys, "subword", "--type", "B2",
                       "--Q", "1,2,1,2,1", "--w", "1,2,1,2")
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "sphere"
    assert payload["facets"] == [[1], [5]]
    assert payload["betti"]["GF(2)"] == {"0": 1}
    assert payload["betti"]["Q"] == {"0": 1}
    assert payload["betti_matches_classification"] is True


def test_subword_ball(capsys):
    code, out, _ = run(capsys, "subword", "--type", "B2",
                       "--Q", "1,2,1,2", "--w", "1,2,1", "--format", "tsv")
    assert code == 0
    assert "classification\tball" in out


def test_subword_void(capsys):
    code, _, err = run(capsys, "subword", "--type", "B2",
                       "--Q", "1,2,1", "--w", "2,1,2,1")
    assert code == 2
    assert "error:" in err


def test_fibers_table(monkeypatch, capsys):
    tables = []
    real = coxsort.fibermap._mask_images

    def counted(system, Q):
        tables.append(Q)
        return real(system, Q)

    monkeypatch.setattr(coxsort.fibermap, "_mask_images", counted)
    code, out, _ = run(capsys, "fibers", "--type", "B2", "--Q", "1,2,1,2")
    assert code == 0
    assert tables == []  # the sizes are the fold's counts, with no table of f
    lines = out.strip().split("\n")
    assert lines[0] == "u\tcomplex\tfiber_up\topen_fiber\tcontractible"
    assert len(lines) == 9
    by_u = {line.split("\t")[0]: line.split("\t") for line in lines[1:]}
    assert by_u["e"][1:] == ["ball", "16", "14", "-"]
    assert by_u["1,2,1,2"][1:] == ["sphere", "1", "-", "True"]


F4_W0 = "1,2,1,3,2,1,3,2,3,4,3,2,1,3,2,3,4,3,2,1,3,2,3,4"


def test_fibers_of_the_longest_word_of_f4(capsys):
    # 24 letters, 2^24 position sets: past the 16-letter cap of a table of f,
    # and 16,252,928 faces for u = s1, far over the face budget, but neither
    # is read by the survey
    code, out, _ = run(capsys, "fibers", "--type", "F4", "--Q", F4_W0)
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert len(rows) == 1152
    assert rows[0] == ["e", "ball", str(2 ** 24), str(2 ** 24 - 2), "-"]
    assert rows[1][:4] == ["1", "ball", "16252928", "16252896"]
    assert rows[-1] == [F4_W0, "sphere", "1", "-", "True"]
    assert all(row[4] == "True" for row in rows[1:])


def test_fibers_of_a_long_a4_word(capsys):
    # order complexes of these fibers would pass the face budget
    code, out, _ = run(capsys, "fibers", "--type", "A4", "--Q", "1,2,3,4,1,2,3,1,2,1",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)["fibers"]
    assert len(rows) == 120
    assert rows[0]["u"] == "e" and rows[0]["contractible"] is None
    assert "method" not in rows[0]
    assert rows[0]["fiber_up_size"] == 1024
    assert all(r["contractible"] is True for r in rows[1:])


def test_fiber_sizes_match_the_library(capsys):
    b3 = CoxeterSystem.type_b(3)
    Q = b3.longest_element().word
    code, out, _ = run(capsys, "fibers", "--type", "B3", "--Q", ",".join(map(str, Q)),
                       "--format", "json")
    assert code == 0
    rows = {r["u"]: r for r in json.loads(out)["fibers"]}
    assert len(rows) == 48
    for u in b3.elements():
        row = rows[word_str(u.word)]
        assert row["fiber_up_size"] == len(fiber_up(b3, Q, u))
        assert row["open_fiber_size"] == (None if u.length == len(Q)
                                          else len(fiber_open(b3, Q, u)))


def test_fibers_rejects_non_reduced(capsys):
    code, _, err = run(capsys, "fibers", "--type", "B2", "--Q", "1,1")
    assert code == 2
    assert "not reduced" in err


def test_one_message_for_a_non_reduced_word(capsys):
    a3 = CoxeterSystem.type_a(3)
    code, _, err = run(capsys, "fibers", "--type", "A3", "--Q", "1,1")
    assert code == 2
    texts = {err.strip().removeprefix("error: ")}
    for call in (lambda: fiber_up(a3, (1, 1), a3.identity),
                 lambda: sorting_positions(a3, (1, 1), [a3.identity]),
                 lambda: sorting_order(a3, (1, 1)),
                 lambda: subset_image(a3, (1, 1), (1,)),
                 lambda: fiber_open(a3, (1, 1), a3.identity),
                 lambda: certify_fiber_contractible(a3, (1, 1), a3.identity)):
        with pytest.raises(ValueError) as info:
            call()
        texts.add(str(info.value))
    assert texts == {"expected a reduced ambient word; 1,1 is not reduced"}


def test_totalpos(capsys):
    code, out, _ = run(capsys, "totalpos", "--trials", "6", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["additive"] == {"passed": 6, "trials": 6}
    assert payload["exchange"] == {"passed": 6, "trials": 6}
    assert payload["nonnegative_products"] == {"passed": 3, "trials": 3}


def test_totalpos_rejects_a_negative_trial_count(capsys):
    code, out, err = run(capsys, "totalpos", "--trials", "-3")
    assert code == 2 and out == ""
    assert err == "error: trials must be >= 0, got -3\n"
    code, out, _ = run(capsys, "totalpos", "--trials", "0", "--format", "tsv")
    assert code == 0
    assert out == "additive\t0/0\nexchange\t0/0\nnonnegative_products\t1/1\n"


def test_matrix_file(tmp_path, capsys):
    path = tmp_path / "b2.txt"
    path.write_text("2\n1 4\n4 1\n")
    code, out, _ = run(capsys, "group", "--matrix", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["order"] == 8

    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1 4 4\n")
    code, _, err = run(capsys, "group", "--matrix", str(bad))
    assert code == 2 and "should hold" in err

    code, _, err = run(capsys, "group", "--matrix", str(tmp_path / "missing.txt"))
    assert code == 2 and "error:" in err


def test_requires_type_or_matrix(capsys):
    code, _, err = run(capsys, "group")
    assert code == 2
    assert "--type or --matrix" in err


def test_verify_cli(capsys):
    code, out, _ = run(capsys, "verify", "--type", "I2:3")
    assert code == 0
    report = json.loads(out)
    assert report["timing"] is None
    assert report["system"]["groups"] == ["I2:3"]
    assert len(report["theorem_results"]) == 12
    assert all(r["passed"] for r in report["theorem_results"])
    code2, out2, _ = run(capsys, "verify", "--type", "I2:3")
    assert code2 == 0 and out2 == out  # byte-identical reruns


def test_verify_takes_no_field_and_names_its_groups(capsys):
    # no check reads a coefficient field
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--field", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --field 0" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "I2:<m>, H3, H4, F4" in " ".join(capsys.readouterr().out.split())


def test_verify_unknown_group(capsys):
    code, _, err = run(capsys, "verify", "--type", "X9")
    assert code == 2
    assert "unknown group" in err


def test_verify_refuses_a_zero_cap_before_any_check(capsys):
    code, out, err = run(capsys, "verify", "--cap", "0")
    assert code == 2 and out == ""
    assert "size_cap must be positive" in err


def test_verify_repeated_group(capsys):
    for spelling in ("B2", "b2"):
        code, out, err = run(capsys, "verify", "--type", spelling, "--type", "B2")
        assert code == 2 and out == ""
        assert "without repeats" in err


def test_verify_reports_failure_exit_code(monkeypatch, capsys):
    real = coxsort.hecke._sorting_rows

    def swapped(system, Q, target):
        # misreport the rows of the two atoms of rank-2 groups when both are asked for
        taken = real(system, Q, target).copy()
        atoms = [i for i, x in enumerate(target) if system.elements()[x].length == 1]
        if system.rank == 2 and len(atoms) == 2:
            taken[atoms] = taken[atoms[::-1]]
        return taken

    monkeypatch.setattr(coxsort.hecke, "_sorting_rows", swapped)
    code, out, _ = run(capsys, "verify", "--type", "B2")
    assert code == 1
    report = json.loads(out)
    failed = {r["name"] for r in report["theorem_results"] if not r["passed"]}
    assert "sorting_sandwich" in failed
    sandwich = next(r for r in report["theorem_results"]
                    if r["name"] == "sorting_sandwich")
    assert sandwich["failures"]
    assert {"group", "w", "Q", "u", "v", "detail"} <= set(sandwich["failures"][0])


def test_every_default_size_cap_is_the_one_constant():
    parser = build_parser()
    caps = [parser.parse_args(argv).cap
            for argv in (["group"], ["orders", "all"], ["subword"], ["fibers"], ["verify"])]
    caps += [RunConfig().size_cap, CoxeterSystem.type_a(2).size_cap,
             named_system("B2").size_cap]
    assert caps == [DEFAULT_SIZE_CAP] * 8
    assert DEFAULT_SIZE_CAP == 50_000
