"""Machine verification of the sorting-order and homotopy theorems.

Twelve checks, each re-proving one statement by exhaustive or seeded
computation: the worked subset-image example, the weak/sorting/Bruhat
sandwich, the intersection and union identities for sorting orders,
the reference B2 posets, ball/sphere classification against exact
homology, fiber duality, spherical open intervals, contractible upper
fibers, cover containment, the total-positivity parameter identities,
and agreement with brute-force oracles.

Every check returns a :class:`CheckResult` carrying an instance count
and minimal reproducers for any failures.  ``run_verification``
assembles the results into a JSON-ready report that is byte-stable for
a fixed config, so two runs compare equal; per-check time is measured
outside the report, by the benchmark tracer.
"""

from __future__ import annotations

import collections
import itertools
import json
import re
from dataclasses import asdict, dataclass

import numpy as np

from . import fibermap, hecke, oracles, posets, subword, totalpos
from .coxeter import DEFAULT_SIZE_CAP, CoxeterSystem, _integer, word_str

__all__ = [
    "DEFAULT_ORDER_GROUPS",
    "RunConfig",
    "CheckResult",
    "Context",
    "CHECK_NAMES",
    "named_system",
    "run_check",
    "run_verification",
    "report_json",
]

DEFAULT_ORDER_GROUPS = ("A3", "B2", "B3", "I2:3", "I2:4", "I2:5", "I2:6", "I2:7", "I2:8")
_FAILURE_CAP = 25
_NOTE_CAP = 40
_GROUP_NAME = re.compile(r"([ABD]|I2:)(\d+)|H3|H4|F4")


def _group_name(spec: str) -> str:
    """The one spelling of a group name: stripped, upper case, I2.m read as
    I2:m, digits read as an integer (" i2.04" is "I2:4"); a name of no known
    form, such as a ``matrix:<path>`` label, comes back as given."""
    m = _GROUP_NAME.fullmatch(spec.strip().upper().replace("I2.", "I2:"))
    if m is None:
        return spec
    return m[0] if m[2] is None else f"{m[1]}{int(m[2])}"


def named_system(spec: str, size_cap: int = DEFAULT_SIZE_CAP) -> CoxeterSystem:
    """Build a system from a short name: A3, B2, D4, I2:7, H3, H4, F4, in
    any spelling :func:`_group_name` reads as one of these (b2, I2.7, A03)."""
    m = _GROUP_NAME.fullmatch(_group_name(spec))
    if m is None:
        raise ValueError(
            f"unknown group spec {spec!r}; use A<n>, B<n>, D<n>, I2:<m>, H3, H4 or F4")
    if m[2] is None:
        maker = {"H3": CoxeterSystem.type_h3, "H4": CoxeterSystem.type_h4,
                 "F4": CoxeterSystem.type_f4}[m[0]]
        return maker(size_cap=size_cap)
    maker = {"A": CoxeterSystem.type_a, "B": CoxeterSystem.type_b,
             "D": CoxeterSystem.type_d, "I2:": CoxeterSystem.dihedral}[m[1]]
    return maker(int(m[2]), size_cap=size_cap)


def _int_or_none(x) -> int | None:
    """``x`` as a plain int through :func:`coxeter._integer`, or None for a
    bool, a float, a string or anything else that is not an integer."""
    try:
        return _integer(x, "setting")
    except ValueError:
        return None


@dataclass(frozen=True)
class RunConfig:
    """Configuration shared by all checks.

    groups limits the order-theorem sweeps (None = the default list, else
    a nonempty tuple of names without repeats: b2 and B2, or I2:4 and
    I2.4, repeat a name, though the report keeps the spellings given;
    equal matrices under two names, such as I2:4 and B2, are allowed);
    seed, an integer, drives the total-positivity trials; size_cap, a
    positive integer, bounds group enumeration.  Numpy integers are stored
    as the plain ints the report prints; bools, floats and strings raise.
    The report carries no timing, so it is byte-identical across runs.
    """

    groups: tuple[str, ...] | None = None
    seed: int = 0
    size_cap: int = DEFAULT_SIZE_CAP

    def __post_init__(self):
        if self.groups is not None and not (
                isinstance(self.groups, tuple) and all(isinstance(g, str) for g in self.groups)):
            raise ValueError(f"groups must be None or a tuple of names, got {self.groups!r}")
        names = {_group_name(g) for g in self.groups or ()}
        if self.groups is not None and not 0 < len(names) == len(self.groups):
            raise ValueError(f"groups must be nonempty without repeats, got {self.groups!r}")
        seed, size_cap = _int_or_none(self.seed), _int_or_none(self.size_cap)
        if seed is None or size_cap is None:
            raise ValueError(f"seed, size_cap must be ints, got {self.seed!r}, {self.size_cap!r}")
        if size_cap <= 0:
            raise ValueError(f"size_cap must be positive, got {size_cap}")
        for name, value in (("seed", seed), ("size_cap", size_cap)):
            object.__setattr__(self, name, value)

    @property
    def sweep_groups(self) -> tuple[str, ...]:
        return self.groups if self.groups is not None else DEFAULT_ORDER_GROUPS


@dataclass
class CheckResult:
    name: str
    statement: str
    instances: int
    passed: bool
    failures: list[dict]
    notes: list[dict]

    def to_obj(self) -> dict:
        return asdict(self)


class _Recorder:
    """Collects failures and notes with caps so reports stay bounded, each
    list closed by a marker counting what its cap dropped.  Only notes with
    a ``detail`` (one per instance) are capped; per-group summaries are not."""

    def __init__(self):
        self.instances = 0
        self.failures: list[dict] = []
        self.notes: list[dict] = []
        self._dropped_failures = self._dropped_notes = 0

    def fail(self, **info) -> None:
        if len(self.failures) < _FAILURE_CAP:
            self.failures.append(info)
        else:
            self._dropped_failures += 1

    def note(self, **info) -> None:
        if len(self.notes) < _NOTE_CAP or "detail" not in info:
            self.notes.append(info)
        else:
            self._dropped_notes += 1

    def result(self, name: str, statement: str) -> CheckResult:
        failures = self.failures + _truncated(self._dropped_failures, "failures")
        return CheckResult(name, statement, self.instances, not failures, failures,
                           self.notes + _truncated(self._dropped_notes, "notes"))


def _truncated(dropped: int, what: str) -> list[dict]:
    return [{"detail": f"{dropped} further {what} truncated"}] if dropped else []


class Context:
    """Caches systems, with their tables and memoised rows, and the records
    of the pass behind checks 02, 03, 04 and 10, across checks in one run;
    after patching the library, start a new Context."""

    def __init__(self, config: RunConfig | None = None):
        self.config = config or RunConfig()
        self._systems: dict[str, CoxeterSystem] = {}
        self._order_records: dict[str, _Recorder] | None = None

    def system(self, spec: str) -> CoxeterSystem:
        name = _group_name(spec)
        if name not in self._systems:
            self._systems[name] = named_system(name, self.config.size_cap)
        return self._systems[name]

    def register(self, label: str, system: CoxeterSystem) -> None:
        """Attach a prebuilt system (e.g. from a matrix file) under a label."""
        self._systems[_group_name(label)] = system


def _compare_matrices(rec, got, want, ground, gname, w, which):
    rec.instances += 1
    for i, j in np.argwhere(got != want)[:3]:
        rec.fail(group=gname, w=str(w), u=str(ground[i]), v=str(ground[j]),
                 detail=f"{which}: computed {bool(got[i, j])}, expected {bool(want[i, j])}")


def _named_outcomes(sort_m, ground, weak_m, bru_m, bru_covers):
    """What checks 02 and 10 record for the sorting relation ``sort_m`` on
    [e, w] of a class that :func:`_decide` flags, apart from its word, by
    the k x k route: the sandwich failure cells, the cover failure or None,
    and whether the sorting covers equal the Bruhat covers.  The covers come
    from one relation product, so a failure names its least pair."""
    # a pair fails at most one of the two implications
    weak_only = weak_m & ~sort_m
    cells = [dict(u=str(ground[i]), v=str(ground[j]),
                  detail="weak holds but sorting fails" if weak_only[i, j]
                  else "sorting holds but Bruhat fails")
             for i, j in np.argwhere(weak_only | (sort_m & ~bru_m))]
    tied = np.triu(sort_m & sort_m.T, 1)
    sort_covers = posets._covers(sort_m)
    bad = tied if tied.any() else sort_covers & ~bru_covers
    if bad.any():
        u, v = min(((ground[i], ground[j]) for i, j in np.argwhere(bad)),
                   key=lambda p: (p[0].word, p[1].word))
        return cells, dict(u=str(u), v=str(v),
                           detail="sorting relation is not antisymmetric" if tied.any()
                           else "sorting cover is not a Bruhat cover"), False
    return cells, None, np.array_equal(sort_covers, bru_covers)


class _Interval:
    """One w of the order pass: ``below``, the table rows of [e, w], and
    ``blocks``, the blocks of the group's Bruhat relation, weak relation and
    Bruhat covers on them, stacked in that order; the sorted reduced words
    of w, the class of each (``of_word``, classes numbered in the order of
    their first words), and the first word and the number of words of each
    class.  As the chunks holding its classes are
    decided (:func:`_decide`) it gains ``meet`` and ``join``, the AND and
    the OR of their relations, ``equal``, whether each relation is Bruhat's,
    and ``named``, the k x k outcome of each flagged class; ``open`` counts
    the classes still undecided."""

    def __init__(self, system: CoxeterSystem, w, below: np.ndarray, relations: np.ndarray):
        self.w, self.below = w, below
        self.blocks = relations[:, below][:, :, below]
        self.words = sorted(hecke.reduced_words(w))
        self.of_word: list[int] = []
        self.firsts: list[tuple[int, ...]] = []
        self.counts: list[int] = []
        index: dict[tuple, int] = {}
        for Q in self.words:
            key = posets._class_key(system, Q)
            c = index.get(key)
            if c is None:
                c = index[key] = len(self.firsts)
                self.firsts.append(Q)
                self.counts.append(0)
            self.counts[c] += 1
            self.of_word.append(c)
        self.open = len(self.firsts)
        k = len(below)
        self.meet = np.ones((k, k), dtype=bool)
        self.join = np.zeros((k, k), dtype=bool)
        self.equal = [False] * self.open
        self.named: dict[int, tuple[list[dict], dict | None, bool]] = {}


def _decided_intervals(system: CoxeterSystem, bru, weak, cov):
    """Every w of ``system``, in table order, as an :class:`_Interval` with
    all its classes decided, from the group's Bruhat relation, weak relation
    and Bruhat covers.  The first word of each class sorts the rows of
    [e, w] (:func:`hecke._sorting_rows`), and the classes, in that order,
    are decided a chunk at a time by :func:`_decide`.  A chunk is padded to
    the largest [e, w] it holds and takes classes while its cells, that
    side squared per class, stay within ``posets._BLOCK_BYTES``, read at
    the call; a class larger than that is a chunk alone, and a w's classes
    may straddle several chunks.  An interval is yielded once its last class
    is decided."""
    relations = np.stack((bru, weak, cov))
    chunk: list = []
    side = 0
    waiting: collections.deque = collections.deque()
    for w in system.elements():
        interval = _Interval(system, w, np.flatnonzero(bru[:, w.index]), relations)
        waiting.append(interval)
        k = len(interval.below)
        for c, Q in enumerate(interval.firsts):
            taken = hecke._sorting_rows(system, Q, interval.below)
            if chunk and (len(chunk) + 1) * max(side, k) ** 2 > posets._BLOCK_BYTES:
                _decide(chunk)
                chunk, side = [], 0
                while waiting[0].open == 0:
                    yield waiting.popleft()
            chunk.append((interval, c, taken))
            side = max(side, k)
    _decide(chunk)
    yield from waiting


def _decide(chunk: list) -> None:
    """Decide the classes ``(interval, c, taken)`` of ``chunk``, ``taken``
    the position rows of the class on [e, w], in arrays stacked along a
    leading axis, each class padded to the largest [e, w] of the chunk, with
    padded cells cleared.  A class is flagged, and takes the k x k route of
    :func:`_named_outcomes`, when it has a sandwich failure cell, or its
    covers are not found without a relation product, as follows, or one of
    them is not a Bruhat cover.

    Once the sorting relation is antisymmetric it is inclusion of distinct
    position sets, so u < v implies |u| < |v|, where |u| is the size of the
    row of u in ``taken``.  Let G be the pairs u < v with |v| = |u| + 1.

    *Every pair of G is a cover.*  An element strictly between u and v would
    need a size strictly between |u| and |u| + 1.

    *Every cover lies in G iff each u < v with |v| - |u| >= 2 has some
    (u, t) in G with t <= v.*  If: a cover (u, v) outside G has a size gap of
    2 or more, and such a t has |u| < |t| < |v|, so u < t < v and (u, v) is
    no cover.  Only if: the first step u < t of a maximal chain from u to v
    is a cover, so it lies in G, and t <= v.

    The condition is tested by OR-ing the rows of the relation, packed 64 to
    a uint64 word by :func:`posets._packed_rows`, over the pairs of G of
    each u of every class, one ``np.bitwise_or.reduceat`` for the chunk:
    |G| * k / 64 word operations, where the cover product takes k**3 / 64.
    Rows of any length take as many words as they need, so no size of group
    or word overflows a mask.  When it holds the covers are G, and two
    finite orders are equal exactly when their covers are (each is the
    reflexive transitive closure of its covers), so the covers equal
    Bruhat's iff the relation equals Bruhat's.

    Each interval of the chunk ANDs and ORs its classes' relations into
    ``meet`` and ``join`` and records ``equal`` for them; Python visits a
    class of its own only when it is flagged."""
    sides = [len(interval.below) for interval, _, _ in chunk]
    n, k = len(chunk), max(sides)
    taken = np.zeros((n, k, max(t.shape[1] for _, _, t in chunk)), dtype=bool)
    for i, (_, _, t) in enumerate(chunk):
        taken[i, :len(t), :t.shape[1]] = t
    starts = [i for i in range(n) if i == 0 or chunk[i][0] is not chunk[i - 1][0]]
    segments = list(zip(starts, starts[1:] + [n]))
    # the Bruhat, weak and Bruhat cover blocks of each class
    blocks = np.zeros((3, n, k, k), dtype=bool)
    for start, stop in segments:
        side = sides[start]
        blocks[:, start:stop, :side, :side] = chunk[start][0].blocks[:, None]
    bru_m, weak_m, cov_m = blocks
    valid = np.arange(k) < np.array(sides)[:, None]
    sort = posets._sorting_relation(taken)
    sort &= valid[:, :, None] & valid[:, None, :]
    flagged = ((weak_m > sort) | (sort > bru_m)).any(axis=(1, 2))
    equal = ~(sort ^ bru_m).any(axis=(1, 2))
    # a preorder by construction, so reflexive; only antisymmetry can fail,
    # and u <= v with |u| = |v| are tied, since their sets are then equal;
    # sizes take the least type that holds them and one more
    size = taken.sum(axis=2, dtype=np.min_scalar_type(taken.shape[2] + 1))
    lo, hi = size[:, :, None], size[:, None, :]
    flagged |= (sort & (lo == hi) & ~np.eye(k, dtype=bool)).any(axis=(1, 2))
    steps = sort & (hi == lo + 1)
    flagged |= (steps > cov_m).any(axis=(1, 2))
    # the pairs of G as flat cells, ascending: the row of (class, u) is
    # cell // k, that of (class, t) cell // k**2 * k + cell % k; each u's
    # run starts where its row changes
    cell = np.flatnonzero(steps)
    row = cell // k
    runs = np.flatnonzero(np.diff(row, prepend=-1))
    words = -(-k // 64)
    packed = posets._packed_rows(sort.reshape(n * k, k), words).T
    reached = np.zeros_like(packed)
    reached[row[runs]] = np.bitwise_or.reduceat(packed[cell // k ** 2 * k + cell % k], runs)
    far = posets._packed_rows((sort & (hi > lo + 1)).reshape(n * k, k), words).T
    flagged |= (far & ~reached).reshape(n, -1).any(axis=1)
    for start, stop in segments:
        interval, first, _ = chunk[start]
        side = sides[start]
        stack = sort[start:stop, :side, :side]
        interval.meet &= stack.all(axis=0)
        interval.join |= stack.any(axis=0)
        interval.equal[first:first + stop - start] = equal[start:stop].tolist()
        interval.open -= stop - start
    for i in np.flatnonzero(flagged).tolist():
        interval, c, _ = chunk[i]
        side = sides[i]
        ground = tuple(interval.w.system.elements()[x] for x in interval.below)
        interval.named[c] = _named_outcomes(sort[i, :side, :side], ground,
                                            weak_m[i, :side, :side], bru_m[i, :side, :side],
                                            cov_m[i, :side, :side])


def _replay(interval: _Interval, gname: str, sandwich: _Recorder,
            cover_rec: _Recorder) -> tuple[int, int]:
    """Record the decided ``interval`` under its words for checks 02 and
    10, and return how many of its words have sorting covers properly
    inside Bruhat's and equal to them.  Counts are added once per class; a
    word's name is built only for a word that a failure or a note records,
    so the records are those of a replay word by word."""
    w = interval.w
    outcomes = [interval.named.get(c, ((), None, same)) for c, same in enumerate(interval.equal)]
    sandwich.instances += len(interval.below) ** 2 * len(interval.words)
    cover_rec.instances += len(interval.words)
    proper = equal = 0
    for count, (_, failure, same) in zip(interval.counts, outcomes):
        if failure is None:
            if same:
                equal += count
            else:
                proper += count
    w_repr = str(w)
    for Q, c in zip(interval.words, interval.of_word):
        cells, failure, same = outcomes[c]
        note = failure is None and same and w.length >= 3
        if not cells and failure is None and not note:
            continue
        where = dict(group=gname, w=w_repr, Q=word_str(Q))
        for cell in cells:
            sandwich.fail(**where, **cell)
        if failure is not None:
            cover_rec.fail(**where, **failure)
        elif note:
            cover_rec.note(**where, detail="sorting covers equal Bruhat covers")
    return proper, equal


def _order_records(ctx: Context) -> dict[str, _Recorder]:
    """The records of checks 02, 03, 04 and 10, from one pass per Context:
    for each sweep group, w in table order and sorted reduced word Q of w,
    one sorting relation on [e, w] is compared with the weak and Bruhat
    relations (02), folded by AND and OR on the weak interval of w, the
    column of w in the weak relation (03, 04), and read for antisymmetry
    and covers (10).  The relation depends only on the commutation class
    of Q (see :func:`posets.sorting_order`), so the first word of each
    class computes it (the greedy core on the rows of [e, w]); the classes
    are decided in stacked chunks (:func:`_decided_intervals`) and each w's
    outcomes are replayed under its words (:func:`_replay`).  A pass that
    raises stores nothing.

    The Bruhat relation, its covers and the weak relation are built once
    per group, on [e, w0], the whole group; the Bruhat block is validated
    as an order there, and a block of an order on a subset is an order.
    Each w reads its blocks off them on the elements below it, the column
    of w in the Bruhat relation.  *The Bruhat covers of [e, w] are the
    group's covers between its elements*: the interval is convex, so every
    element between two of its elements is in it.  *The weak block is the
    weak order on [e, w]*: weak order implies Bruhat order, so every weak
    down-set of an element of [e, w] lies in [e, w]."""
    if ctx._order_records is not None:
        return ctx._order_records
    sandwich, meet_rec, join_rec, cover_rec = (_Recorder() for _ in range(4))
    for gname in ctx.config.sweep_groups:
        system = ctx.system(gname)
        elements = system.elements()
        top = system.longest_element()
        bru = posets.bruhat_interval(system.identity, top).leq
        weak = posets.weak_interval(top).leq
        cov = posets._covers(bru)
        proper = equal = 0
        for interval in _decided_intervals(system, bru, weak, cov):
            counts = _replay(interval, gname, sandwich, cover_rec)
            proper, equal = proper + counts[0], equal + counts[1]
            bru_m, weak_m, _ = interval.blocks
            rows = np.flatnonzero(weak_m[:, -1])
            on_weak = np.ix_(rows, rows)
            weak_ground = [elements[x] for x in interval.below[rows].tolist()]
            _compare_matrices(meet_rec, interval.meet[on_weak], weak_m[on_weak], weak_ground,
                              gname, interval.w, "intersection of sorting orders vs weak order")
            _compare_matrices(join_rec, interval.join[on_weak], bru_m[on_weak], weak_ground,
                              gname, interval.w, "union of sorting orders vs Bruhat order")
        cover_rec.note(group=gname, proper=proper, equal=equal)
    ctx._order_records = {"sorting_sandwich": sandwich, "sorting_intersection": meet_rec,
                          "sorting_union": join_rec, "cover_containment": cover_rec}
    return ctx._order_records


# ---------------------------------------------------------------- checks

def check_boolean_map_worked_example(ctx: Context) -> CheckResult:
    rec = _Recorder()
    system = ctx.system("A3")
    Q = (1, 2, 3, 1, 2, 1)
    S = (1, 2, 4, 5)
    image = fibermap.subset_image(system, Q, S)
    expected = system.element((1, 2, 1))
    rec.instances += 1
    if image != expected:
        rec.fail(group="A3", Q=word_str(Q), detail=f"image of {list(S)} is {image!r}, "
                                                   f"expected {expected!r}")
    return rec.result(
        "boolean_map_worked_example",
        "On A3 with Q=(1,2,3,1,2,1) the position set {1,2,4,5} maps to the "
        "element 1,2,1 under the subword Demazure map.")


def check_sorting_sandwich(ctx: Context) -> CheckResult:
    return _order_records(ctx)["sorting_sandwich"].result(
        "sorting_sandwich",
        "For every element w of every sweep group, every reduced word Q of w, "
        "and all pairs u,v in the Bruhat interval [e,w]: weak order implies "
        "Q-sorting order implies Bruhat order.")


def check_sorting_intersection(ctx: Context) -> CheckResult:
    return _order_records(ctx)["sorting_intersection"].result(
        "sorting_intersection",
        "For every element w of every sweep group, the intersection over all "
        "reduced words Q of w of the Q-sorting orders, restricted to the weak "
        "interval of w, equals the weak order there.")


def check_sorting_union(ctx: Context) -> CheckResult:
    return _order_records(ctx)["sorting_union"].result(
        "sorting_union",
        "For every element w of every sweep group, the union over all reduced "
        "words Q of w of the Q-sorting orders, restricted to the weak interval "
        "of w, equals the Bruhat order there -- as a raw relation, without "
        "transitive closure.")


def check_b2_reference_orders(ctx: Context) -> CheckResult:
    rec = _Recorder()
    system = ctx.system("B2")

    def expect(cond: bool, detail: str, **info):
        rec.instances += 1
        if not cond:
            rec.fail(group="B2", detail=detail, **info)

    orders = []
    for Q in ((1, 2, 1, 2), (2, 1, 2, 1), (2, 1, 2)):
        try:
            orders.append(posets.sorting_order(system, Q))
        except ValueError as exc:
            # a sorting relation that is not a partial order: one failed instance
            rec.instances += 1
            rec.fail(group="B2", Q=word_str(Q), detail=str(exc))
    if len(orders) == 3:
        sort_1, sort_2, sort_w = orders
        w0 = system.longest_element()
        expect(hecke.reduced_words(w0) == frozenset({(1, 2, 1, 2), (2, 1, 2, 1)}),
               "longest element should have exactly the reduced words "
               "1,2,1,2 and 2,1,2,1", w=str(w0))

        weak_p = posets.weak_interval(w0)
        bru_p = posets.bruhat_interval(system.identity, w0)
        inter = posets.relation_intersection([sort_1, sort_2])
        expect(inter == weak_p, "intersection of the two sorting orders should "
                                "equal the weak order on [e,w0]", w=str(w0))
        union = posets.relation_union([sort_1, sort_2])
        expect(union.is_transitive and union.as_poset() == bru_p,
               "union of the two sorting orders should equal the Bruhat order on [e,w0]",
               w=str(w0))

        w = system.element((2, 1, 2))
        expect(hecke.reduced_words(w) == frozenset({(2, 1, 2)}),
               "element 2,1,2 should have a unique reduced word", w=str(w))
        ground = sort_w.ground
        bru_w = posets.bruhat_interval(system.identity, w)
        # the weak order of a lower interval, an order by construction
        weak_on_bru = posets.Poset._induced(ground, posets._weak_matrix(ground))
        expect(sort_w != weak_on_bru, "sorting order should differ from the weak "
                                      "relation on the Bruhat interval of 2,1,2", w=str(w))
        expect(sort_w != bru_w, "sorting order should differ from the Bruhat order "
                                "on the Bruhat interval of 2,1,2", w=str(w))

        weak_items = posets.weak_interval(w).ground
        expect(len(weak_items) == 4, "weak interval of 2,1,2 should have 4 elements",
               w=str(w))
        sort_r = sort_w.restrict(weak_items)
        bru_r = bru_w.restrict(weak_items)
        weak_r = weak_on_bru.restrict(weak_items)
        expect(sort_r == bru_r == weak_r and sort_r.is_chain(),
               "weak, sorting, and Bruhat orders should coincide in a 4-chain on "
               "the weak interval of 2,1,2", w=str(w))
    return rec.result(
        "b2_reference_orders",
        "In B2: the longest element has exactly two reduced words; the weak "
        "order is the intersection and the Bruhat order the union of the two "
        "sorting orders; for w=2,1,2 the sorting order matches neither weak "
        "nor Bruhat on [e,w] yet all three coincide in a 4-chain on the weak "
        "interval.")


def check_ball_sphere_classification(ctx: Context) -> CheckResult:
    rec = _Recorder()
    words = [Q for length in range(0, 7) for Q in itertools.product((1, 2), repeat=length)]
    for gname in ("A2", "B2"):
        # the verdict is the Demazure criterion (w == u); it is tested by
        # the Betti numbers over both fields of the homotopy type that one
        # vertex-decomposition pass per word gives each complex, a pass that
        # never reads the verdict, with no face built
        for Q, u, report in subword.certify_subword_complexes(ctx.system(gname), words):
            kind, top = report.kind, report.top
            rec.instances += 1
            for profile, ok in zip(report.profiles, report.matches):
                if not ok:
                    rec.fail(group=gname, Q=word_str(Q), u=str(u),
                             detail=f"classified {kind} but betti {profile} "
                                    f"(expected {'S^%d' % top if kind == 'sphere' else 'trivial'})")
    return rec.result(
        "ball_sphere_classification",
        "For every word Q of length at most 6 over the A2 and B2 generators "
        "and every u below the Demazure product of Q: the subword complex is "
        "a sphere exactly when that product equals u, and its exact reduced "
        "homology over GF(2) and over the rationals matches the verdict "
        "(trivial for balls, one top class for spheres).")


_FIBER_CASES = (("A3", (1, 2, 3, 1, 2, 1)), ("B2", (1, 2, 1, 2)), ("B2", (2, 1, 2, 1)))


def check_fiber_duality(ctx: Context) -> CheckResult:
    rec = _Recorder()
    for gname, Q in _FIBER_CASES:
        system = ctx.system(gname)
        w = system.element(Q)
        full = frozenset(range(1, len(Q) + 1))
        # one fold and one table of f per word serve every u
        fold = subword._fold(system, Q)
        images = fibermap._mask_images(system, Q)
        for u in hecke._below(w):
            complex_ = subword.SubwordComplex._folded(system, Q, u, fold)
            faces = complex_.faces()
            rec.instances += 1
            if fibermap._fiber(system, images, u) != {full - F for F in faces}:
                rec.fail(group=gname, Q=word_str(Q), u=str(u),
                         detail="upper fiber differs from face complements")
            if u != w:
                rec.instances += 1
                # the boundary faces, from the faces already listed
                expected = {full - F for F in faces - complex_.interior_faces() if F}
                if fibermap._fiber(system, images, u, (u.index, w.index)) != expected:
                    rec.fail(group=gname, Q=word_str(Q), u=str(u),
                             detail="open fiber differs from nonempty boundary-face "
                                    "complements")
    return rec.result(
        "fiber_duality",
        "For Q=(1,2,3,1,2,1) in A3 and both reduced words of the B2 longest "
        "element, and for every u below the product: the upper fiber of the "
        "subset-image map equals the complements of the subword-complex "
        "faces, and the open fiber equals the complements of its nonempty "
        "boundary faces.")


def check_open_interval_spheres(ctx: Context) -> CheckResult:
    # the cases are the pairs u <= w of each group's Bruhat rows, w then u in
    # table order; the EL pass proves each a sphere with nothing built, and
    # each case it leaves is a failure, in that order
    rec = _Recorder()
    plan = (("A3", None), ("B2", None), ("B3", 4))
    for gname, diff_cap in plan:
        system = ctx.system(gname)
        elements = system.elements()
        length = np.array([w.length for w in elements])
        gap = length[:, None] - length  # [w, u]: l(w) - l(u)
        cases = (np.stack([hecke.bruhat_row(w) for w in elements]) & (gap >= 2)
                 & (diff_cap is None or gap <= diff_cap))
        rec.instances += int(cases.sum())
        for w, u in np.argwhere(cases & ~fibermap.certify_interval_el(system).T).tolist():
            rec.fail(group=gname, u=str(elements[u]), v=str(elements[w]),
                     detail=f"not proved S^{gap[w, u] - 2} by the EL-labelling")
    return rec.result(
        "open_interval_spheres",
        "For every Bruhat-comparable pair u < w with length difference at "
        "least 2 (all of A3 and B2; B3 up to difference 4), the order complex "
        "of the open interval (u,w) has the reduced homology of a sphere of "
        "dimension l(w)-l(u)-2.")


def check_contractible_fibers(ctx: Context) -> CheckResult:
    rec = _Recorder()
    for gname, Q in _FIBER_CASES:
        system = ctx.system(gname)
        w = system.element(Q)
        methods = {"cone": 0, "homology": 0, "singleton": 0}
        below = hecke._below(w)[1:]  # e is the first row
        for u, report in zip(below, fibermap._fiber_reports(system, Q, below)):
            rec.instances += 1
            if not report.contractible:
                rec.fail(group=gname, Q=word_str(Q), u=str(u),
                         detail="strict upper fiber not certified contractible: "
                                + ", ".join(str(p) for p in report.betti))
            elif report.method in methods:
                methods[report.method] += 1
        rec.note(group=gname, Q=word_str(Q), **methods)
    return rec.result(
        "contractible_fibers",
        "For the fiber-duality words and every u with e < u <= w, the strict "
        "part of the upper fiber poset has contractible order complex, "
        "certified by a cone vertex or by vanishing reduced homology over "
        "GF(2) and the rationals.")


def check_cover_containment(ctx: Context) -> CheckResult:
    return _order_records(ctx)["cover_containment"].result(
        "cover_containment",
        "Every cover of every Q-sorting order is a cover of the Bruhat order "
        "on [e,w]; instances where the containment is not proper are recorded "
        "as notes, not failures.")


def check_total_positivity(ctx: Context) -> CheckResult:
    rec = _Recorder()
    rec.instances += 1
    try:
        totalpos.verify_braid_identity(3, 1, 1, 1, -1)
        rec.fail(detail="t1+t3=0 should raise ZeroDivisionError")
    except ZeroDivisionError:
        pass
    for _, holds, failure in totalpos.seeded_trials(ctx.config.seed):
        rec.instances += 1
        if not holds:
            rec.fail(detail=failure)
    return rec.result(
        "total_positivity",
        "The additive and adjacent-exchange parameter identities for the "
        "elementary matrices x_i(t) hold exactly on 100 seeded rational "
        "trials each (the exchange pole t1+t3=0 raises), and 50 seeded "
        "nonnegative products of 4x4 generators have all minors nonnegative.")


def check_oracle_agreement(ctx: Context) -> CheckResult:
    rec = _Recorder()
    cases = (("A3", oracles.permutation_model(3), 5),
             ("B2", oracles.signed_permutation_model(2), 8))
    for gname, model, word_cap in cases:
        system = ctx.system(gname)
        elements = system.elements()

        for i in range(1, system.rank + 1):
            for j in range(i + 1, system.rank + 1):
                rec.instances += 1
                if model.artin_order(i, j) != system.m(i, j):
                    rec.fail(group=gname, detail=f"model order of g{i}g{j} differs "
                                                 f"from m({i},{j})")

        model_words = sorted(model.lexmin_word(g) for g in model.elements())
        package_words = sorted(e.word for e in elements)
        rec.instances += 1
        if model_words != package_words:
            rec.fail(group=gname, detail="canonical-word sets differ between "
                                         "package and model")

        gens = tuple(range(1, system.rank + 1))
        for length in range(1, word_cap + 1):
            for word in itertools.product(gens, repeat=length):
                rec.instances += 1
                if system.canonical_word(word) != oracles.canonical_word_bruteforce(model, word):
                    rec.fail(group=gname, Q=word_str(word),
                             detail="canonicalization differs from model oracle")

        for u in elements:
            for v in elements:
                rec.instances += 1
                if hecke.bruhat_leq(u, v) != oracles.bruhat_leq_bruteforce(model, u.word, v.word):
                    rec.fail(group=gname, u=str(u), v=str(v),
                             detail="bruhat_leq differs from subword oracle")

        for w in elements:
            below = hecke._below(w)
            for Q in sorted(hecke.reduced_words(w)):
                for u, row in zip(below, hecke.sorting_positions(system, Q, below)):
                    rec.instances += 1
                    got = tuple(int(j) + 1 for j in np.flatnonzero(row))
                    want = oracles.sorting_subword_bruteforce(model, Q, u.word)
                    if got != want:
                        rec.fail(group=gname, w=str(w), Q=word_str(Q), u=str(u),
                                 detail=f"sorting subword {list(got)} differs from "
                                        f"lex-scan oracle {list(want) if want else want}")
    return rec.result(
        "oracle_agreement",
        "Canonical forms (all elements plus bounded word sweeps), Bruhat "
        "comparisons (all pairs), and sorting subwords (all reduced words, "
        "all u) agree with brute-force oracles over permutation (A3) and "
        "signed-permutation (B2) models.")


_CHECKS = (
    check_boolean_map_worked_example,
    check_sorting_sandwich,
    check_sorting_intersection,
    check_sorting_union,
    check_b2_reference_orders,
    check_ball_sphere_classification,
    check_fiber_duality,
    check_open_interval_spheres,
    check_contractible_fibers,
    check_cover_containment,
    check_total_positivity,
    check_oracle_agreement,
)

CHECK_NAMES = tuple(fn.__name__.removeprefix("check_") for fn in _CHECKS)


def _context(config: RunConfig | None, ctx: Context | None) -> Context:
    # the checks read ctx.config, so a different config beside it would be
    # reported without being run
    if config is not None and ctx is not None and config != ctx.config:
        raise ValueError("config differs from ctx.config; pass one of them")
    return ctx or Context(config)


def run_check(name: str, config: RunConfig | None = None,
              ctx: Context | None = None) -> CheckResult:
    """Run one named check (see CHECK_NAMES); ``config`` and ``ctx`` as in
    :func:`run_verification`."""
    if name not in CHECK_NAMES:
        raise ValueError(f"unknown check {name!r}; choose from {CHECK_NAMES}")
    return _CHECKS[CHECK_NAMES.index(name)](_context(config, ctx))


def run_verification(config: RunConfig | None = None,
                     ctx: Context | None = None) -> dict:
    """Run all twelve checks on ``ctx``, or on a new Context of ``config``,
    and return the JSON-ready report of ``ctx.config``; a ``config`` that is
    not ``ctx.config`` raises ValueError.  ``timing`` is always None."""
    ctx = _context(config, ctx)
    config = ctx.config
    return {
        "system": {
            "groups": list(config.sweep_groups),
            # a constant: no check reads a field, and the report's bytes are pinned
            "field": 2,
            "seed": config.seed,
            "size_cap": config.size_cap,
        },
        "theorem_results": [fn(ctx).to_obj() for fn in _CHECKS],
        "timing": None,
    }


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
