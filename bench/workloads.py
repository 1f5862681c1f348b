"""The four benchmark workloads, their inputs, and their output checks.

Each workload is four functions over a ``plan`` (the inputs made from the
seed) and the ``outputs`` of one iteration:

* ``setup(seed)``: imports are done; construct the systems and inputs.
* ``run(plan, step)``: one timed iteration.  It builds fresh
  ``CoxeterSystem`` objects, so every cache starts cold, as it does for
  every CLI invocation and every new ``verify.Context``.  Every call into
  the package is made through ``step(name, fn, *args)``, which times it.
  Step names repeat from one iteration to the next.
* ``fingerprint(outputs)``: a digest; every iteration of one seed must
  produce the same one.
* ``expect(plan)`` and ``check(plan, expected, outputs)``: untimed
  reference values and the list of ``(operation, ok)`` checks.
* ``layers(outputs, seconds)``: per-layer figures taken from untraced
  iterations, given their outputs and the median seconds of each step.

All calls into the package go through module attributes
(``posets.bruhat_interval``, not a name imported from it), so a traced
iteration sees the tracer's wrappers.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from coxsort import coxeter, fibermap, hecke, oracles, posets, verify

# ------------------------------------------------------------------ helpers


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def _strict(leq: np.ndarray) -> np.ndarray:
    return np.asarray(leq, dtype=bool) & ~np.eye(len(leq), dtype=bool)


def independent_covers(leq: np.ndarray) -> set[tuple[int, int]]:
    """Cover pairs by index, with an int64 product that cannot wrap for
    any relation that fits in memory (unlike a uint8 one at 256)."""
    strict = _strict(leq)
    counts = strict.astype(np.int64) @ strict.astype(np.int64)
    return {(int(i), int(j)) for i, j in np.argwhere(strict & (counts == 0))}


def independent_transitive(leq: np.ndarray) -> bool:
    m = np.asarray(leq, dtype=bool)
    counts = m.astype(np.int64) @ m.astype(np.int64)
    return not ((counts > 0) & ~m).any()


def _covers_by_index(poset) -> set[tuple[int, int]]:
    return {(poset.index(a), poset.index(b)) for a, b in poset.covers()}


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    run: Callable
    fingerprint: Callable
    expect: Callable
    check: Callable
    layers: Callable = lambda outputs, seconds: verify_layers(None, seconds)


# ------------------------------------------------------- verify_default
# run_verification(RunConfig()): the twelve-check sweep over A3, B2, B3 and
# I2(3..8), as users and the acceptance gate run it.

VERIFY_INSTANCES = 274_252
# sha256 of report_json(run_verification(RunConfig(seed=0))); the report
# must stay byte-identical.
VERIFY_SEED0_SHA256 = "3b7486846228cffe6336359042a108c36dbf370123bc91c0a3d24774f9d1f3c2"


def verify_setup(seed: int) -> dict:
    config = verify.RunConfig(seed=seed)
    return {"seed": seed, "config": config,
            "systems": [verify.named_system(g, config.size_cap)
                        for g in config.sweep_groups]}


def verify_run(plan: dict, step) -> dict:
    # Each check runs on one shared Context, as in run_verification, but
    # through run_check so that each check is timed on its own.
    ctx = step("context", verify.Context, plan["config"])
    return {"results": [step(name, verify.run_check, name, ctx=ctx).to_obj()
                        for name in verify.CHECK_NAMES]}


def verify_layers(outputs: dict | None, seconds: dict) -> dict:
    """``verify.<check>.s`` and ``.instances_per_s`` of every check, from
    the untraced step times; 0 on a workload that runs no checks."""
    instances = {r["name"]: r["instances"] for r in outputs["results"]} if outputs else {}
    out = {}
    for name in verify.CHECK_NAMES:
        s = seconds.get(name, 0.0) if outputs else 0.0
        out[f"verify.{name}.s"] = s
        out[f"verify.{name}.instances_per_s"] = instances.get(name, 0) / s if s else 0.0
    return out


def verify_fingerprint(outputs: dict) -> str:
    return _digest(outputs["results"])


def verify_expect(plan: dict) -> dict:
    expected = {"work": VERIFY_INSTANCES}
    if plan["seed"] == 0:
        # the byte-stable report of the seed commit, made the way users make it
        expected["report"] = verify.report_json(verify.run_verification(plan["config"]))
    return expected


def verify_check(plan: dict, expected: dict, outputs: dict) -> list[tuple[str, bool]]:
    results = outputs["results"]
    ops = [(f"check {r['name']} passed", r["passed"]) for r in results]
    ops.append(("twelve checks", [r["name"] for r in results] == list(verify.CHECK_NAMES)))
    ops.append((f"{VERIFY_INSTANCES} instances",
                sum(r["instances"] for r in results) == VERIFY_INSTANCES))
    if "report" in expected:
        sha = hashlib.sha256(expected["report"].encode()).hexdigest()
        ops.append(("seed-0 report sha256", sha == VERIFY_SEED0_SHA256))
        ops.append(("run_check results equal the report's",
                    json.loads(expected["report"])["theorem_results"]
                    == json.loads(json.dumps(results))))
    return ops


# ------------------------------------------------------------ group_enum
# Cold elements() of D4 (192 elements), left/right descents and inverse of
# every element in seed order, then reduced_words(w0) (2,316 words).  D4 is
# the largest group whose enumeration takes well under a second; B4 takes
# about 2 s in one call, too long a step to time steadily on a shared
# machine, and A5 about 15 s.

# D4 as even signed permutations (window notation), in the generator order
# of CoxeterSystem.type_d(4), whose node 3 is the branch node.
D4_GENERATORS = ((2, 1, 3, 4), (-2, -1, 3, 4), (1, 3, 2, 4), (1, 2, 4, 3))


def group_setup(seed: int) -> dict:
    return {"seed": seed, "system": coxeter.CoxeterSystem.type_d(4)}


def _descents_and_inverses(elements, order) -> dict:
    facts = {}
    for i in order:
        w = elements[i]
        facts[w.word] = (w.left_descents(), w.right_descents(), w.inverse().word)
    return facts


def group_run(plan: dict, step) -> dict:
    system = step("system", coxeter.CoxeterSystem.type_d, 4)
    elements = step("elements", system.elements)
    order = list(range(len(elements)))
    random.Random(plan["seed"]).shuffle(order)
    facts = step("descents_inverses", _descents_and_inverses, elements, order)
    w0 = step("longest_element", system.longest_element)
    return {"elements": [w.word for w in elements], "facts": facts,
            "w0_words": step("reduced_words", hecke.reduced_words, w0)}


def group_fingerprint(outputs: dict) -> str:
    return _digest(outputs["elements"], outputs["facts"], sorted(outputs["w0_words"]))


def group_expect(plan: dict) -> dict:
    """Everything from a signed-permutation model of D4, which shares no
    code with the rewriting engine."""
    signed = oracles.signed_permutation_model(4)
    model = oracles.CayleyModel(D4_GENERATORS, signed.compose, signed.identity)
    lengths, gens, compose = model.lengths, model.generators, model.compose
    rank = model.rank
    matrix = tuple(tuple(1 if i == j else model.artin_order(i, j) for j in range(1, rank + 1))
                   for i in range(1, rank + 1))
    facts = {}
    for g in model.elements():
        left = tuple(s for s in range(1, rank + 1) if lengths[compose(gens[s - 1], g)] < lengths[g])
        right = tuple(s for s in range(1, rank + 1) if lengths[compose(g, gens[s - 1])] < lengths[g])
        word = model.lexmin_word(g)
        inverse = model.lexmin_word(model.product(word[::-1]))
        facts[word] = (left, right, inverse)
    w0 = max(lengths, key=lengths.get)
    words_of: dict = {model.identity: [()]}

    def reduced(g) -> list:
        if g not in words_of:
            words_of[g] = [u + (s,) for s in range(1, rank + 1)
                           if lengths[compose(g, gens[s - 1])] < lengths[g]
                           for u in reduced(compose(g, gens[s - 1]))]
        return words_of[g]

    w0_words = frozenset(reduced(w0))
    return {"matrix": matrix, "elements": sorted(facts, key=lambda w: (len(w), w)),
            "facts": facts, "w0_words": w0_words, "work": len(facts) + len(w0_words)}


def group_check(plan: dict, expected: dict, outputs: dict) -> list[tuple[str, bool]]:
    ops = [("the model has the Coxeter matrix of D4",
            expected["matrix"] == coxeter.CoxeterSystem.type_d(4).matrix),
           ("elements match the signed-permutation model",
            outputs["elements"] == expected["elements"])]
    got = outputs["facts"]
    ops += [(f"descents and inverse of {word}", got.get(word) == want)
            for word, want in expected["facts"].items()]
    ops.append((f"{len(expected['w0_words'])} reduced words of w0",
                frozenset(outputs["w0_words"]) == expected["w0_words"]))
    return ops


# ---------------------------------------------------------- orders_sweep
# In H3 (non-crystallographic, so no permutation-model shortcut applies),
# for w = 1,2,1,2,1,3,2,1,2,1,3,2 (the lex-first element of length 12;
# [e,w] has 90 elements and w has 33 reduced words): bruhat_interval(e,w),
# weak_interval(w), sorting_order of every reduced word in seed order,
# covers() of every poset, relation_intersection and relation_union.
# The 120-element w0 would take about 14 s an iteration.

ORDERS_WORD = (1, 2, 1, 2, 1, 3, 2, 1, 2, 1, 3, 2)
ORDERS_WORDS = 33
ORDERS_INTERVAL = 90


def orders_setup(seed: int) -> dict:
    return {"seed": seed, "system": coxeter.CoxeterSystem.type_h3()}


def orders_run(plan: dict, step) -> dict:
    system = step("system", coxeter.CoxeterSystem.type_h3)
    w = step("element", system.element, ORDERS_WORD)
    bruhat = step("bruhat_interval", posets.bruhat_interval, system.identity, w)
    weak = step("weak_interval", posets.weak_interval, w)
    words = sorted(step("reduced_words", hecke.reduced_words, w))
    random.Random(plan["seed"]).shuffle(words)
    sorting = [step(f"sorting_order.{i}", posets.sorting_order, system, Q)
               for i, Q in enumerate(words)]
    covers = {"bruhat": step("covers.bruhat", bruhat.covers),
              "weak": step("covers.weak", weak.covers),
              "sorting": [step(f"covers.{i}", p.covers) for i, p in enumerate(sorting)]}
    return {"bruhat": bruhat, "weak": weak, "words": words, "sorting": sorting,
            "covers": covers,
            "intersection": step("intersection", posets.relation_intersection, sorting),
            "union": step("union", posets.relation_union, sorting)}


def orders_fingerprint(outputs: dict) -> str:
    return _digest(
        [u.word for u in outputs["bruhat"].ground], outputs["bruhat"].leq,
        [u.word for u in outputs["weak"].ground], outputs["weak"].leq,
        outputs["words"], *(p.leq for p in outputs["sorting"]),
        [[(a.word, b.word) for a, b in c] for c in
         (outputs["covers"]["bruhat"], outputs["covers"]["weak"], *outputs["covers"]["sorting"])],
        outputs["intersection"].leq, outputs["union"].matrix, outputs["union"].is_transitive)


def orders_expect(plan: dict) -> dict:
    return {"work": ORDERS_WORDS * ORDERS_INTERVAL ** 2}


def orders_check(plan: dict, expected: dict, outputs: dict) -> list[tuple[str, bool]]:
    bruhat, weak, sorting = outputs["bruhat"], outputs["weak"], outputs["sorting"]
    inter, union = outputs["intersection"], outputs["union"]
    ops = [(f"[e,w] has {ORDERS_INTERVAL} elements", len(bruhat) == ORDERS_INTERVAL),
           (f"w has {ORDERS_WORDS} reduced words",
            len(set(outputs["words"])) == len(outputs["words"]) == ORDERS_WORDS)]
    ops.append(("weak interval lies in the Bruhat interval",
                set(weak.ground) <= set(bruhat.ground)))
    idx = [bruhat.index(u) for u in weak.ground]
    on_weak = np.ix_(idx, idx)
    bruhat_covers = independent_covers(bruhat.leq)
    for name, poset in (("bruhat", bruhat), ("weak", weak)):
        ops.append((f"{name} covers() matches an int64 recount",
                    _covers_by_index(poset) == independent_covers(poset.leq)))
    for Q, p in zip(outputs["words"], sorting):
        own = independent_covers(p.leq)
        ops.append((f"sorting[{Q}] covers() matches an int64 recount",
                    p.ground == bruhat.ground and _covers_by_index(p) == own))
        ops.append((f"sorting[{Q}] lies between weak and Bruhat order",
                    not (p.leq & ~bruhat.leq).any() and not (weak.leq & ~p.leq[on_weak]).any()))
        ops.append((f"every sorting[{Q}] cover is a Bruhat cover", own <= bruhat_covers))
    ops.append(("intersection equals weak order on the weak interval",
                np.array_equal(inter.leq[on_weak], weak.leq)))
    ops.append(("union equals Bruhat order on the weak interval",
                np.array_equal(union.matrix[on_weak], bruhat.leq[on_weak])))
    ops.append(("union transitivity flag matches an int64 recount",
                union.is_transitive == independent_transitive(union.matrix)))
    return ops


# ------------------------------------------------------ homology_spheres
# In B3, certify_interval_sphere(e, w) for every w of length 6 over both
# the rationals and GF(2), and for every w of length 7 over GF(2), in seed
# order.  (e, w0) over GF(2) alone takes about 5 s, length 8 over GF(2)
# 0.7 s a call (too long a step to time steadily on a shared machine), and
# length 7 over the rationals about 4 s a call.

HOMOLOGY_TASKS = ((6, (0, 2)), (7, (2,)))


def homology_setup(seed: int) -> dict:
    return {"seed": seed, "system": coxeter.CoxeterSystem.type_b(3)}


def homology_run(plan: dict, step) -> dict:
    system = step("system", coxeter.CoxeterSystem.type_b, 3)
    fields = dict(HOMOLOGY_TASKS)
    tasks = [(w, field) for w in step("elements", system.elements)
             for field in fields.get(w.length, ())]
    random.Random(plan["seed"]).shuffle(tasks)
    e = system.identity
    return {"reports": [(w.word, field, step(f"certify.{i}", fibermap.certify_interval_sphere,
                                             e, w, field))
                        for i, (w, field) in enumerate(tasks)]}


def homology_fingerprint(outputs: dict) -> str:
    return _digest(sorted((w, f, r.to_json()) for w, f, r in outputs["reports"]))


def _chain_count(leq: np.ndarray) -> int:
    """Chains of a poset, the empty one included: the faces of its order
    complex.  Python integers, so no count can wrap."""
    strict = _strict(leq)
    from_here = [0] * len(leq)
    # an element has fewer strict upper bounds than anything below it
    for i in sorted(range(len(leq)), key=lambda i: strict[i].sum()):
        from_here[i] = 1 + sum(from_here[j] for j in np.flatnonzero(strict[i]))
    return 1 + sum(from_here)


def homology_expect(plan: dict) -> dict:
    system = coxeter.CoxeterSystem.type_b(3)
    e = system.identity
    sizes, faces = {}, 0
    fields = dict(HOMOLOGY_TASKS)
    for w in system.elements():
        if w.length in fields:
            closed = posets.bruhat_interval(e, w)
            inner = [i for i, u in enumerate(closed.ground) if u not in (e, w)]
            sizes[w.word] = len(inner)
            faces += _chain_count(closed.leq[np.ix_(inner, inner)]) * len(fields[w.length])
    return {"sizes": sizes, "work": faces}


def homology_check(plan: dict, expected: dict, outputs: dict) -> list[tuple[str, bool]]:
    reports = outputs["reports"]
    want = {(w, f) for w in expected["sizes"] for f in dict(HOMOLOGY_TASKS)[len(w)]}
    ops = [("one report per interval and field", {(w, f) for w, f, _ in reports} == want
            and len(reports) == len(want))]
    by_word: dict = {}
    for w, field, r in reports:
        ops.append((f"(e,{w}) over field {field} is a {len(w) - 2}-sphere",
                    r.matches and r.profile.counts == ((len(w) - 2, 1),)
                    and r.size == expected["sizes"].get(w)))
        by_word.setdefault(w, []).append(r.profile.counts)
    ops += [(f"(e,{w}) profiles agree over GF(2) and the rationals", len(set(p)) == 1)
            for w, p in by_word.items() if len(p) > 1]
    return ops


WORKLOADS = {w.name: w for w in (
    Workload("verify_default", verify_setup, verify_run, verify_fingerprint,
             verify_expect, verify_check, verify_layers),
    Workload("group_enum", group_setup, group_run, group_fingerprint,
             group_expect, group_check),
    Workload("orders_sweep", orders_setup, orders_run, orders_fingerprint,
             orders_expect, orders_check),
    Workload("homology_spheres", homology_setup, homology_run, homology_fingerprint,
             homology_expect, homology_check),
)}
