"""Command-line front end.

Subcommands, each with the ``--format`` values it prints, the first the
default: group (element listing; tsv, json), orders (weak/Bruhat/sorting
poset export; dot, json, tsv), subword (ball/sphere classification with
homology cross-check; json, tsv), fibers (subset-image fiber survey for a
reduced word; tsv, json), totalpos (exact parameter-identity trials;
json, tsv), verify (the full twelve-check suite with a JSON report;
json).  Any other format is a usage error.

Exit codes: 0 success, 1 failed verification or exceeded resource
budget, 2 bad usage or invalid input.  All output is UTF-8 with LF line
endings and deterministic ordering.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import fibermap, hecke, subword, totalpos
from .coxeter import DEFAULT_SIZE_CAP, CoxeterSystem, parse_word, word_str
from .errors import BudgetExceededError
from .posets import Poset, bruhat_interval, sorting_order, weak_interval
from .verify import Context, RunConfig, named_system, report_json, run_verification


def _read_matrix(path: str) -> list[list[int]]:
    with open(path, encoding="utf-8") as handle:
        tokens = handle.read().split()
    if not tokens:
        raise ValueError(f"matrix file {path} is empty")
    n = int(tokens[0])
    if len(tokens) != 1 + n * n:
        raise ValueError(f"matrix file {path} should hold n then n*n integers")
    values = [int(t) for t in tokens[1:]]
    return [values[i * n:(i + 1) * n] for i in range(n)]


def _resolve_system(args) -> CoxeterSystem:
    if getattr(args, "matrix", None):
        return CoxeterSystem(_read_matrix(args.matrix), size_cap=args.cap)
    if getattr(args, "type", None):
        return named_system(args.type, size_cap=args.cap)
    raise ValueError("one of --type or --matrix is required")


def _print(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _dump_json(obj) -> None:
    _print(json.dumps(obj, indent=2, sort_keys=True))


def _dot_graph(name: str, poset: Poset) -> str:
    lines = [f'digraph "{name}" {{', "  rankdir=BT;"]
    for item in poset.ground:
        lines.append(f'  "{item}";')
    for low, high in poset.covers():
        lines.append(f'  "{low}" -> "{high}";')
    lines.append("}")
    return "\n".join(lines)


def _poset_obj(name: str, poset: Poset) -> dict:
    return {
        "label": name,
        "ground": [str(x) for x in poset.ground],
        "leq": [[bool(v) for v in row] for row in poset.leq],
    }


def _emit_posets(named: list[tuple[str, Poset]], fmt: str) -> None:
    if fmt == "json":
        _dump_json({"posets": [_poset_obj(n, p) for n, p in named]})
    elif fmt == "dot":
        _print("\n\n".join(_dot_graph(n, p) for n, p in named))
    else:
        chunks = []
        for name, poset in named:
            lines = [f"# {name}"]
            lines += [f"{a}\t{b}" for a, b in poset.covers()]
            chunks.append("\n".join(lines))
        _print("\n\n".join(chunks))


def cmd_group(args) -> int:
    system = _resolve_system(args)
    rows = [{
        "word": str(e),
        "length": e.length,
        "left_descents": list(e.left_descents()),
        "right_descents": list(e.right_descents()),
    } for e in system.elements()]
    if args.format == "json":
        _dump_json({"order": len(rows), "elements": rows})
    else:
        lines = ["word\tlength\tleft_descents\tright_descents"]
        lines += ["{}\t{}\t{}\t{}".format(
            r["word"], r["length"],
            ",".join(map(str, r["left_descents"])) or "-",
            ",".join(map(str, r["right_descents"])) or "-") for r in rows]
        _print("\n".join(lines))
    return 0


def cmd_orders(args) -> int:
    system = _resolve_system(args)
    if args.w is None:
        raise ValueError("orders needs --w")
    w = system.element(parse_word(args.w))
    named: list[tuple[str, Poset]] = []
    want = args.which
    if want in ("weak", "all"):
        named.append(("weak", weak_interval(w)))
    if want == "sorting":
        if args.Q is None:
            raise ValueError("orders sorting needs --Q")
        Q = system.check_word(parse_word(args.Q))
        if system.element(Q) != w:
            raise ValueError(f"--Q {word_str(Q)} does not spell --w {w}")
        named.append((f"sorting {word_str(Q)}", sorting_order(system, Q)))
    if want == "all":
        for Q in sorted(hecke.reduced_words(w)):
            named.append((f"sorting {word_str(Q)}", sorting_order(system, Q)))
    if want in ("bruhat", "all"):
        named.append(("bruhat", bruhat_interval(system.identity, w)))
    _emit_posets(named, args.format)
    return 0


def cmd_subword(args) -> int:
    system = _resolve_system(args)
    if args.Q is None or args.w is None:
        raise ValueError("subword needs --Q and --w")
    Q = system.check_word(parse_word(args.Q))
    w = system.element(parse_word(args.w))
    complex_ = subword.subword_complex(system, Q, w)
    report = subword.certify_subword_complex(complex_)
    matches = all(report.matches)
    obj = {
        "Q": word_str(Q),
        "w": str(w),
        "classification": report.kind,
        "dim": complex_.dim,
        "facets": sorted(sorted(f) for f in complex_.facets),
        "num_faces": complex_.num_faces(),
        "betti": {name: {str(d): b for d, b in profile.counts}
                  for name, profile in zip(("GF(2)", "Q"), report.profiles)},
        "betti_matches_classification": matches,
    }
    if args.format == "json":
        _dump_json(obj)
    else:
        lines = [f"{k}\t{json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else v}"
                 for k, v in obj.items()]
        _print("\n".join(lines))
    return 0 if matches else 1


def cmd_fibers(args) -> int:
    system = _resolve_system(args)
    if args.Q is None:
        raise ValueError("fibers needs --Q (a reduced word)")
    Q, w = hecke._require_reduced(system, parse_word(args.Q))
    below = hecke._below(w)
    rows = []
    for u, report in zip(below, fibermap._fiber_reports(system, Q, below)):
        entry = {"u": str(u), "open_fiber_size": report.open_size,
                 "fiber_up_size": report.poset_size, "complex": report.complex_type}
        if u.is_identity:
            # the fiber of e is the whole boolean lattice; nothing is claimed
            entry.update(contractible=None)
        else:
            entry.update(contractible=report.contractible, method=report.method)
        rows.append(entry)
    if args.format == "json":
        _dump_json({"Q": word_str(Q), "w": str(w), "fibers": rows})
    else:
        lines = ["u\tcomplex\tfiber_up\topen_fiber\tcontractible"]
        for r in rows:
            lines.append("{}\t{}\t{}\t{}\t{}".format(
                r["u"], r["complex"], r["fiber_up_size"],
                "-" if r["open_fiber_size"] is None else r["open_fiber_size"],
                "-" if r["contractible"] is None else r["contractible"]))
        _print("\n".join(lines))
    return 0


def cmd_totalpos(args) -> int:
    passed = {"additive": 0, "exchange": 0, "nonnegative_products": 0}
    trials = dict.fromkeys(passed, 0)
    for statement, holds, _ in totalpos.seeded_trials(args.seed, args.trials):
        passed[statement] += holds
        trials[statement] += 1
    obj = {"seed": args.seed,
           **{k: {"passed": passed[k], "trials": trials[k]} for k in passed}}
    ok = passed == trials
    if args.format == "tsv":
        _print("\n".join(f"{k}\t{v['passed']}/{v['trials']}"
                         for k, v in obj.items() if isinstance(v, dict)))
    else:
        _dump_json(obj)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    groups = list(args.type or [])
    ctx_systems = {}
    for path in args.matrix or []:
        label = f"matrix:{path}"
        ctx_systems[label] = CoxeterSystem(_read_matrix(path), size_cap=args.cap)
        groups.append(label)
    config = RunConfig(groups=tuple(groups) or None, seed=args.seed, size_cap=args.cap)
    ctx = Context(config)
    for label, system in ctx_systems.items():
        ctx.register(label, system)
    report = run_verification(config, ctx)
    sys.stdout.write(report_json(report))
    return 0 if all(r["passed"] for r in report["theorem_results"]) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxsort",
        description="exact sorting orders, subword complexes, and fiber "
                    "homotopy checks for finite Coxeter groups")
    sub = parser.add_subparsers(dest="command", required=True)

    group_names = "A<n>, B<n>, D<n>, I2:<m>, H3, H4, F4"

    def add_common(p, formats: tuple[str, ...]):
        p.add_argument("--type", help=f"named group: {group_names}")
        p.add_argument("--matrix", help="Coxeter matrix file: first line n, then n rows")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--cap", type=int, default=DEFAULT_SIZE_CAP,
                       help=f"group enumeration cap (default {DEFAULT_SIZE_CAP})")

    p = sub.add_parser("group", help="list the elements of a finite group")
    add_common(p, ("tsv", "json"))
    p.set_defaults(fn=cmd_group)

    p = sub.add_parser("orders", help="export weak/Bruhat/sorting posets for --w")
    p.add_argument("which", choices=("weak", "bruhat", "sorting", "all"))
    add_common(p, ("dot", "json", "tsv"))
    p.add_argument("--w", help="target element as a comma-separated word")
    p.add_argument("--Q", help="reduced word for sorting order")
    p.set_defaults(fn=cmd_orders)

    p = sub.add_parser("subword", help="classify the subword complex of (Q, w)")
    add_common(p, ("json", "tsv"))
    p.add_argument("--w", help="target element word")
    p.add_argument("--Q", help="ambient word")
    p.set_defaults(fn=cmd_subword)

    p = sub.add_parser("fibers", help="survey subset-image fibers over a reduced word")
    add_common(p, ("tsv", "json"))
    p.add_argument("--Q", help="reduced word")
    p.set_defaults(fn=cmd_fibers)

    p = sub.add_parser("totalpos", help="run exact total-positivity trials")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(fn=cmd_totalpos)

    p = sub.add_parser("verify", help="run the twelve-check verification suite")
    p.add_argument("--type", action="append",
                   help=f"sweep group, named {group_names} (repeatable); "
                        "default: the standard list")
    p.add_argument("--matrix", action="append",
                   help="extra sweep group from a Coxeter matrix file (repeatable)")
    p.add_argument("--format", choices=("json",), default="json")
    p.add_argument("--cap", type=int, default=DEFAULT_SIZE_CAP)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
