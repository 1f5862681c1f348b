import numpy as np
import pytest

from coxsort import CoxeterSystem, hecke, posets
from coxsort.hecke import (_below, bruhat_row, reduced_words, sorting_positions,
                           sorting_subword, weak_leq)
from coxsort.oracles import (bruhat_leq_bruteforce, bruhat_leq_walk, element_poset,
                             inclusion_poset_bruteforce, permutation_model)
from coxsort.posets import (_PACKED_MIN_STEPS, Poset, _bool_product, _class_key,
                            _sorting_relation, _weak_matrix, bruhat_interval,
                            relation_intersection, relation_union, sorting_order,
                            weak_interval)
from coxsort.verify import named_system


def chain(n):
    return Poset(range(n), [[i <= j for j in range(n)] for i in range(n)])


def antichain(n):
    return Poset(range(n), np.eye(n, dtype=bool))


def test_validation_errors():
    with pytest.raises(ValueError, match="duplicates"):
        Poset([1, 1], np.eye(2, dtype=bool))
    with pytest.raises(ValueError, match="must be 2x2"):
        Poset([1, 2], np.eye(3, dtype=bool))
    with pytest.raises(ValueError, match="reflexive"):
        Poset([1, 2], [[True, False], [False, False]])
    with pytest.raises(ValueError, match="antisymmetric"):
        Poset([1, 2], [[True, True], [True, True]])
    with pytest.raises(ValueError, match="transitive"):
        Poset([1, 2, 3], [[True, True, False],
                          [False, True, True],
                          [False, False, True]])


def test_empty_poset():
    p = Poset([], np.zeros((0, 0), dtype=bool))
    assert len(p) == 0
    assert p.covers() == []
    assert p.is_chain()


def test_basic_accessors():
    p = chain(4)
    assert p.leq[p.index(0), p.index(3)]
    assert not p.leq[p.index(3), p.index(0)]
    assert p.index(2) == 2
    with pytest.raises(ValueError):
        p.index(99)
    assert p.covers() == [(0, 1), (1, 2), (2, 3)]
    assert p.is_chain()
    assert antichain(3).covers() == []
    assert not antichain(3).is_chain()


def test_matrix_is_read_only():
    p = chain(3)
    with pytest.raises(ValueError):
        p.leq[0, 2] = False


def test_restrict():
    p = chain(5)
    q = p.restrict([4, 1, 3])
    assert q.ground == (1, 3, 4)  # parent order is kept
    assert q.is_chain()
    with pytest.raises(ValueError):
        p.restrict([0, 99])


def test_inclusion_poset():
    sets = [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})]
    p = inclusion_poset_bruteforce(sets)
    assert p.ground[0] == frozenset()
    assert p.ground[-1] == frozenset({1, 2})
    assert len(p.covers()) == 4


def test_bruhat_interval_b2():
    b2 = CoxeterSystem.type_b(2)
    w0 = b2.longest_element()
    full = bruhat_interval(b2.identity, w0)
    assert len(full) == 8
    assert len(full.covers()) == 12
    sub = bruhat_interval(b2.identity, b2.element((2, 1, 2)))
    assert len(sub) == 6
    with pytest.raises(ValueError, match="not below"):
        bruhat_interval(b2.element((1, 2, 1)), b2.element((2, 1, 2)))


def test_interval_bucket_agrees_with_the_subword_oracle_warm_and_cold():
    a3, model = CoxeterSystem.type_a(3), permutation_model(3)
    elements = a3.elements()
    below = {(u, w): bruhat_leq_bruteforce(model, u.word, w.word)
             for u in elements for w in elements}
    for w in elements:
        for u in elements:
            if not below[u, w]:
                continue
            want = element_poset([z for z in elements if below[u, z] and below[z, w]],
                                 lambda a, b: below[a, b])
            assert bruhat_interval(u, w) == want  # warm from the previous u
            a3._op_cache.pop("bruhat_interval")
            assert bruhat_interval(u, w) == want  # cold
            assert bruhat_interval(u, w) == want  # warm from the same u


def test_interval_bucket_holds_one_w():
    b3 = CoxeterSystem.type_b(3)
    e, w0 = b3.identity, b3.longest_element()
    for w in (w0, b3.element((1, 2, 3)), w0):
        bruhat_interval(e, w)
        row, below, block = b3._op_cache["bruhat_interval"]
        assert row == w.index
        assert below.tolist() == np.flatnonzero(bruhat_row(w)).tolist()
        assert block.shape == (len(below), len(below))
        assert not block.flags.writeable
    # a warm bucket still refuses a u that is not below w
    a, b = b3.element((2, 3, 2)), b3.element((3, 2, 3))
    bruhat_interval(e, b)
    with pytest.raises(ValueError, match="not below"):
        bruhat_interval(a, b)
    assert b3._op_cache["bruhat_interval"][0] == b.index


@pytest.mark.parametrize("system", [CoxeterSystem.type_a(3), CoxeterSystem.type_b(3)],
                         ids=["A3", "B3"])
def test_intervals_agree_with_pairwise_relations(system):
    elements = system.elements()
    for w in elements:
        for u in elements:
            if bruhat_leq_walk(u, w):
                ground = [z for z in elements
                          if bruhat_leq_walk(u, z) and bruhat_leq_walk(z, w)]
                assert bruhat_interval(u, w) == element_poset(ground, bruhat_leq_walk)
        lower = bruhat_interval(system.identity, w).ground
        assert np.array_equal(_weak_matrix(lower), element_poset(lower, weak_leq).leq)
        ground = [z for z in elements if weak_leq(z, w)]
        assert weak_interval(w) == element_poset(ground, weak_leq)


def test_weak_interval_is_chain_for_b2_212():
    b2 = CoxeterSystem.type_b(2)
    p = weak_interval(b2.element((2, 1, 2)))
    assert len(p) == 4
    assert p.is_chain()
    lengths = [u.length for u in p.ground]
    assert lengths == sorted(lengths)


def test_sorting_order_b2():
    b2 = CoxeterSystem.type_b(2)
    p = sorting_order(b2, (2, 1, 2))
    assert len(p) == 6
    e = b2.identity
    s1, s2 = b2.element((1,)), b2.element((2,))
    s12, s21 = b2.element((1, 2)), b2.element((2, 1))
    top = b2.element((2, 1, 2))
    assert set(p.covers()) == {(e, s1), (e, s2), (s1, s12), (s1, s21),
                               (s2, s21), (s12, top), (s21, top)}
    # s1 <= s2 s1 in the sorting order but not in the right weak order
    weak = element_poset(p.ground, weak_leq)
    assert p.leq[p.index(s1), p.index(s21)] and not weak.leq[weak.index(s1), weak.index(s21)]
    # s2 <= s1 s2 in Bruhat order but not in the sorting order
    bruhat = bruhat_interval(e, top)
    assert (bruhat.leq[bruhat.index(s2), bruhat.index(s12)]
            and not p.leq[p.index(s2), p.index(s12)])


def test_sorting_order_rejects_non_reduced():
    b2 = CoxeterSystem.type_b(2)
    with pytest.raises(ValueError, match="reduced"):
        sorting_order(b2, (1, 1))


def test_relation_intersection():
    p = chain(3)
    assert relation_intersection([p, p]) == p
    q = antichain(3)
    assert relation_intersection([p, q]) == q
    with pytest.raises(ValueError, match="identical ground"):
        relation_intersection([p, chain(4)])
    with pytest.raises(ValueError, match="at least one"):
        relation_intersection([])


def test_relation_union_transitivity_flag():
    ground = ("a", "b", "c")
    eye = np.eye(3, dtype=bool)
    ab = eye.copy(); ab[0, 1] = True
    bc = eye.copy(); bc[1, 2] = True
    p1 = Poset(ground, ab)
    p2 = Poset(ground, bc)
    union = relation_union([p1, p2])
    assert not union.is_transitive
    assert union.matrix[0, 1] and union.matrix[1, 2] and not union.matrix[0, 2]
    with pytest.raises(ValueError, match="transitive"):
        union.as_poset()
    ok = relation_union([p1, p1])
    assert ok.is_transitive
    assert ok.as_poset() == p1


def test_a_union_is_proved_transitive_once(monkeypatch):
    calls = []
    monkeypatch.setattr(posets, "_bool_product", lambda a, b: calls.append(a) or a @ b)
    b2 = CoxeterSystem.type_b(2)
    sortings = [sorting_order(b2, Q) for Q in ((1, 2, 1, 2), (2, 1, 2, 1))]
    calls.clear()
    union = relation_union(sortings)
    assert union.is_transitive and union.as_poset().leq.tolist() == union.matrix.tolist()
    assert len(calls) == 1
    # the flag is read off the matrix, never given
    with pytest.raises(TypeError):
        posets.RelationUnion(union.ground, union.matrix, False)
    # as_poset keeps Poset's messages, in Poset's order
    eye = np.eye(3, dtype=bool)
    cycle = eye | np.roll(eye, 1, axis=1)  # 0 < 1 < 2 < 0, and no more
    tied = eye.copy()
    tied[0, 1] = tied[1, 0] = tied[1, 2] = True  # 0 = 1 < 2, but not 0 < 2
    for matrix, message in ((cycle & ~eye, "not reflexive"), (tied, "not antisymmetric"),
                            (cycle, "not transitive")):
        with pytest.raises(ValueError, match=message) as want:
            Poset(("a", "b", "c"), matrix)
        with pytest.raises(ValueError) as got:
            posets.RelationUnion(("a", "b", "c"), matrix).as_poset()
        assert str(got.value) == str(want.value)


def test_covers_of_a_chain_past_256():
    # (0, 257) has 256 elements strictly between; a count of witnesses in
    # uint8 wraps to 0 there and reports a false cover
    p = Poset(range(258), np.triu(np.ones((258, 258), dtype=bool)))
    assert p.covers() == [(i, i + 1) for i in range(257)]


def test_256_witnesses_do_not_hide_intransitivity():
    # 0 < k < 257 for 256 middle elements k, but 0 and 257 are unrelated
    n = 258
    low = np.eye(n, dtype=bool)
    low[0, 1:n - 1] = True
    high = np.eye(n, dtype=bool)
    high[1:n - 1, n - 1] = True
    with pytest.raises(ValueError, match="transitive"):
        Poset(range(n), low | high)
    union = relation_union([Poset(range(n), low), Poset(range(n), high)])
    assert not union.is_transitive


# (m, k, n): inner sizes 0, 1, 63, 64, 65 and 128, empty operands, and
# shapes on both sides of the packed path's threshold
PRODUCT_SHAPES = [(m, k, n) for k in (0, 1, 63, 64, 65, 128) for m, n in
                  ((0, 5), (5, 0), (3, 4), (40, 40), (90, 90), (1, 700), (130, 70))]


def _witness_count_product(a, b):
    # an independent reference: count witnesses in int64, which cannot wrap
    # below 2**63 witnesses
    return (a.astype(np.int64) @ b.astype(np.int64)) > 0


@pytest.mark.parametrize("density", [0.02, 0.1, 0.5])
def test_bool_product_equals_a_witness_count(density):
    rng = np.random.default_rng(int(density * 100))
    steps = [m * k * n for m, k, n in PRODUCT_SHAPES]
    assert min(steps) < _PACKED_MIN_STEPS <= max(steps)
    for m, k, n in PRODUCT_SHAPES:
        a = rng.random((m, k)) < density
        b = rng.random((k, n)) < density
        want = _witness_count_product(a, b)
        got = _bool_product(a, b)
        assert got.dtype == bool and got.shape == (m, n)
        assert np.array_equal(got, want), (m, k, n)
        # the same operands as views: transposed, Fortran-order, read-only
        locked_b = b.copy()
        locked_b.setflags(write=False)
        for x, y in ((np.ascontiguousarray(a.T).T, np.ascontiguousarray(b.T).T),
                     (np.asfortranarray(a), np.asfortranarray(b)),
                     (a.astype(np.uint8), locked_b)):
            assert np.array_equal(_bool_product(x, y), want), (m, k, n)


@pytest.mark.parametrize("density", [0.1, 0.5])
def test_a_stacked_bool_product_is_the_product_of_each_slice(density):
    # below and past the step threshold, with witnesses in one byte and in
    # several, and at each edge of a byte
    rng = np.random.default_rng(int(density * 100))
    for c, m, k, n in ((3, 5, 4, 6), (7, 24, 9, 24), (2, 90, 70, 90), (1, 48, 0, 48)):
        a = rng.random((c, m, k)) < density
        b = rng.random((c, k, n)) < density
        got = _bool_product(a, b)
        assert got.dtype == bool and got.shape == (c, m, n)
        for i in range(c):
            assert np.array_equal(got[i], _witness_count_product(a[i], b[i])), (c, m, k, n)
    for t in (0, 7, 8, 15, 63, 64, 69):
        a = np.zeros((2, 30, 70), dtype=bool)
        b = np.zeros((2, 70, 40), dtype=bool)
        a[1, 3, t] = b[1, t, 39] = True
        want = np.zeros((2, 30, 40), dtype=bool)
        want[1, 3, 39] = True
        assert np.array_equal(_bool_product(a, b), want), t


def test_bool_product_finds_a_witness_in_every_word():
    # one witness t per product, placed in each 64-bit word and at its edges
    k = 200
    for t in (0, 62, 63, 64, 65, 127, 128, 199):
        a = np.zeros((70, k), dtype=bool)
        b = np.zeros((k, 70), dtype=bool)
        a[3, t] = b[t, 69] = True
        want = np.zeros((70, 70), dtype=bool)
        want[3, 69] = True
        assert np.array_equal(_bool_product(a, b), want), t


@pytest.mark.parametrize("n", [100, 130, 200])
def test_one_missing_pair_is_intransitive_on_the_packed_path(n):
    # a chain on 0..n-2 and one on 1..n-1: their union relates every i < j
    # except 0 and n-1, with n-2 witnesses spread over several words
    assert n ** 3 >= _PACKED_MIN_STEPS
    upper = np.triu(np.ones((n, n), dtype=bool))
    low, high = upper.copy(), upper.copy()
    low[:, n - 1] = False
    low[n - 1, n - 1] = True
    high[0, :] = False
    high[0, 0] = True
    union = relation_union([Poset(range(n), low), Poset(range(n), high)])
    missing = upper & ~union.matrix
    assert missing.sum() == 1 and missing[0, n - 1]
    assert not union.is_transitive
    with pytest.raises(ValueError, match="transitive"):
        Poset(range(n), union.matrix)
    assert relation_union([Poset(range(n), upper)]).is_transitive


def test_sorting_order_past_63_letters():
    # a 70-letter Q: position sets as machine-word masks would overflow
    i2 = CoxeterSystem.dihedral(70)
    Q = (1, 2) * 35
    p = sorting_order(i2, Q)
    assert len(p) == 140
    keys = [set(sorting_subword(i2, Q, u)) for u in p.ground]
    assert p.leq.tolist() == [[a <= b for b in keys] for a in keys]


# ---------------------------------------------------- commutation classes

def _classes(system, w):
    """The reduced words of w, in sorted order, grouped by class key."""
    classes = {}
    for Q in sorted(reduced_words(w)):
        classes.setdefault(_class_key(system, Q), []).append(Q)
    return classes


def _relation(system, Q):
    """The sorting relation of Q built directly, with no cache."""
    return _sorting_relation(sorting_positions(system, Q, _below(system.element(Q))))


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "A4"])
def test_words_of_one_class_have_one_sorting_relation(name):
    system = named_system(name)
    for w in system.elements():
        for words in _classes(system, w).values():
            first = _relation(system, words[0])
            for Q in words[1:]:
                assert np.array_equal(_relation(system, Q), first), Q


def test_a_braid_move_changes_the_sorting_relation():
    # negative control: m(s, t) >= 3 moves leave the class and the relation
    b2, a3 = CoxeterSystem.type_b(2), CoxeterSystem.type_a(3)
    for system, Q, braided in ((b2, (1, 2, 1, 2), (2, 1, 2, 1)), (a3, (1, 2, 1), (2, 1, 2))):
        assert _class_key(system, Q) != _class_key(system, braided)
        assert not np.array_equal(_relation(system, Q), _relation(system, braided))


@pytest.mark.parametrize("name, classes, w0_classes",
                         [("A3", 42, 8), ("B3", 102, 14), ("H3", 427, 44), ("A4", 475, 62)])
def test_class_counts(name, classes, w0_classes):
    system = named_system(name)
    assert sum(len(_classes(system, w)) for w in system.elements()[1:]) == classes
    assert len(_classes(system, system.longest_element())) == w0_classes


@pytest.mark.parametrize("name", ["A3", "B3", "H3"])
def test_equal_keys_are_exactly_the_commuting_swap_classes(name):
    system = named_system(name)
    words = sorted(reduced_words(system.longest_element()))
    root = {}
    for start in words:
        if start in root:
            continue
        root[start] = start
        queue = [start]
        while queue:
            Q = queue.pop()
            for j in range(len(Q) - 1):
                if system.m(Q[j], Q[j + 1]) == 2:
                    swapped = Q[:j] + (Q[j + 1], Q[j]) + Q[j + 2:]
                    if swapped not in root:
                        root[swapped] = start
                        queue.append(swapped)
    components = {}
    for Q in words:
        components.setdefault(root[Q], []).append(Q)
    assert sorted(_classes(system, system.longest_element()).values()) == sorted(
        components.values())


def test_the_key_is_canonical_where_bubbling_commuting_letters_is_not():
    # 2 commutes with 1 and 3, which braid: 3,1,2 and 2,3,1 are one class,
    # though neither has an adjacent commuting pair out of increasing order
    system = CoxeterSystem([[1, 2, 3], [2, 1, 2], [3, 2, 1]])
    assert _class_key(system, (3, 1, 2)) == _class_key(system, (2, 3, 1))
    assert _class_key(system, (3, 1, 2)) != _class_key(system, (1, 3, 2))


def test_sorting_order_shares_one_poset_per_class_and_keeps_one_product():
    a3 = CoxeterSystem.type_a(3)
    w0 = a3.longest_element()
    classes = _classes(a3, w0)
    for words in classes.values():
        first = sorting_order(a3, words[0])
        assert all(sorting_order(a3, Q) is first for Q in words)
        assert np.array_equal(first.leq, _relation(a3, words[0]))
    row, bucket = a3._op_cache["sorting_order"]
    assert row == w0.index and len(bucket) == len(classes) == 8
    sorting_order(a3, (3, 1))
    row, bucket = a3._op_cache["sorting_order"]
    assert row == a3.element((1, 3)).index
    assert list(bucket) == [_class_key(a3, (1, 3))]


def test_warm_and_cold_sorting_orders_agree():
    h3 = CoxeterSystem.type_h3()
    w = h3.element((1, 2, 1, 2, 1, 3, 2, 1, 2, 1, 3, 2))
    for Q in sorted(reduced_words(w)):
        warm = sorting_order(h3, Q)
        cold = sorting_order(CoxeterSystem.type_h3(), Q)
        assert warm == cold and warm.covers() == cold.covers(), Q


def test_a_warm_cache_still_refuses_a_non_reduced_word():
    b2 = CoxeterSystem.type_b(2)
    for warm in ((1,), (1, 2, 1, 2)):  # the same product as (1, 1), then another
        sorting_order(b2, warm)
        with pytest.raises(ValueError, match="reduced"):
            sorting_order(b2, (1, 1))
        assert sorting_order(b2, warm) is sorting_order(b2, warm)


def test_covers_is_a_new_list_on_every_call():
    b2 = CoxeterSystem.type_b(2)
    p = sorting_order(b2, (1, 2, 1, 2))
    first = p.covers()
    expected = list(first)
    first.clear()
    assert p.covers() == expected and p.covers() is not p.covers()
    assert sorting_order(b2, (1, 2, 1, 2)).covers() == expected


def test_a_corrupted_block_is_refused_for_every_u(monkeypatch):
    # the row of 1,2 loses e although e <= 1 <= 1,2: [e, 1,2,1] is not
    # transitive.  [1, 1,2,1] misses e, so only the [e, w] block, validated
    # when it is cut, shows the fault; a refused block is not kept
    a3 = CoxeterSystem.type_a(3)
    w, z, other = a3.element((1, 2, 1)), a3.element((1, 2)), a3.element((2, 3))
    real = hecke.bruhat_row

    def corrupted(v):
        row = real(v)
        if v.index == z.index:
            row = row.copy()
            row[0] = False
        return row

    monkeypatch.setattr(hecke, "bruhat_row", corrupted)
    for warm in (False, True):
        a3._op_cache.pop("bruhat_interval", None)
        if warm:  # another w's block, which the fault does not reach
            assert len(bruhat_interval(a3.identity, other)) == 4
        for u in _below(w)[1:]:
            with pytest.raises(ValueError, match="not transitive"):
                bruhat_interval(u, w)
            assert a3._op_cache.get("bruhat_interval", (None,))[0] == (
                other.index if warm else None)


def test_induced_intervals_equal_validated_posets():
    b3 = CoxeterSystem.type_b(3)
    for w in b3.elements():
        for u in _below(w):
            P = bruhat_interval(u, w)
            assert P == Poset(P.ground, P.leq)
            assert not P.leq.flags.writeable
            inner = P.restrict(P.ground[1:-1])
            assert inner == Poset(inner.ground, inner.leq)
            assert not inner.leq.flags.writeable


@pytest.mark.parametrize("name", ["A3", "B3", "H3"])
def test_orders_built_by_construction_would_pass_validation(name):
    # weak intervals, sorting orders of every reduced word and pairwise
    # intersections on [e, w] skip validation; a validated copy is equal
    system = named_system(name)
    for w in system.elements():
        weak = weak_interval(w)
        assert type(weak.ground) is tuple and not weak.leq.flags.writeable
        assert weak == Poset(weak.ground, weak.leq)
        orders = [bruhat_interval(system.identity, w)]
        for Q in sorted(reduced_words(w)):
            P = sorting_order(system, Q)
            if all(P is not other for other in orders):
                assert type(P.ground) is tuple and not P.leq.flags.writeable
                assert P == Poset(P.ground, P.leq)
                orders.append(P)
        for i, P in enumerate(orders):
            for other in orders[i + 1:]:
                meet = relation_intersection([P, other])
                assert not meet.leq.flags.writeable
                assert meet == Poset(meet.ground, meet.leq)


def test_orders_built_by_construction_are_not_validated_again(monkeypatch):
    calls = []
    real = posets._check_order
    monkeypatch.setattr(posets, "_check_order", lambda m: calls.append(m) or real(m))
    h3 = CoxeterSystem.type_h3()
    w = h3.element((1, 2, 1, 2, 1, 3, 2, 1, 2, 1, 3, 2))
    sortings = [sorting_order(h3, Q) for Q in sorted(reduced_words(w))]
    weak = weak_interval(w)
    relation_intersection(sortings)
    relation_intersection([weak, weak])
    assert calls == []
    Poset(weak.ground, weak.leq)  # a relation passed in is validated
    assert len(calls) == 1


def test_sorting_order_checks_its_word_once(monkeypatch):
    a3 = CoxeterSystem.type_a(3)
    real = CoxeterSystem.check_word
    calls = []

    def counted(self, word):
        calls.append(word)
        return real(self, word)

    monkeypatch.setattr(CoxeterSystem, "check_word", counted)
    for Q in ((1, 2, 1), (2, 1, 2), (1, 2, 1)):  # a cold class, another, then a hit
        calls.clear()
        sorting_order(a3, Q)
        assert calls == [Q]


def test_a_sorting_order_with_equal_position_sets_is_refused_and_not_kept(monkeypatch):
    a3 = CoxeterSystem.type_a(3)
    w, good, bad = a3.element((1, 2, 1)), (1, 2, 1), (2, 1, 2)
    real = hecke._sorting_rows

    def equal_rows(system, Q, target):
        taken = real(system, Q, target)
        if tuple(Q) != bad:
            return taken
        taken = taken.copy()
        taken[2] = taken[1]
        return taken

    monkeypatch.setattr(hecke, "_sorting_rows", equal_rows)
    for warm in (False, True):
        a3._op_cache.pop("sorting_order", None)
        if warm:  # another class of the same product, kept before the fault
            sorting_order(a3, good)
        with pytest.raises(ValueError, match="not antisymmetric"):
            sorting_order(a3, bad)
        row, bucket = a3._op_cache.get("sorting_order", (None, {}))
        assert list(bucket) == ([_class_key(a3, good)] if warm else [])
        assert row == (w.index if warm else None)
