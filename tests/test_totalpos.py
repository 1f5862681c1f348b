import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from coxsort.totalpos import (RationalMatrix, _det, _laplace_level, _product, chevalley,
                              is_totally_nonnegative, seeded_trials,
                              verify_additive_identity, verify_braid_identity)

F = Fraction


def leibniz(m):
    """The determinant as the signed sum over permutations, in whatever
    ring the entries live."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(n), 2))
        total += (-1) ** inversions * math.prod(m[r][perm[r]] for r in range(n))
    return total


def seeded_integer_matrices(seed):
    """Matrices of sizes 0..6 with many zeros, so leading pivots vanish and
    singular matrices turn up, plus hand-made cases of both."""
    rng = random.Random(seed)
    for n in range(7):
        for _ in range(40):
            yield [[rng.choice((0, 0, 0, 1, -1, 2, -3, 7)) for _ in range(n)]
                   for _ in range(n)]
    yield [[0, 1], [1, 0]]                   # swap at the first pivot
    yield [[1, 1, 0], [1, 1, 1], [0, 1, 1]]  # a pivot that vanishes mid-way
    yield [[0, 0, 5], [0, 3, 0], [2, 0, 0]]
    yield [[1, 2, 3], [2, 4, 6], [0, 1, 1]]  # dependent rows
    yield [[0, 4], [0, 9]]                   # zero column


def test_matrix_basics():
    I3 = RationalMatrix.identity(3)
    assert I3 @ I3 == I3
    assert I3[1, 1] == 1 and I3[0, 2] == 0
    M = RationalMatrix.from_rows([[1, 2], [3, 4]])
    assert M.minor((0, 1), (0, 1)) == -2
    assert M.minor((0,), (1,)) == 2
    for rows, cols in (((0,), (0, 1)), ((0, 1), (0,))):
        with pytest.raises(ValueError, match="as many rows as columns"):
            M.minor(rows, cols)
    with pytest.raises(ValueError, match="square"):
        RationalMatrix(((F(1), F(2)),))
    with pytest.raises(ValueError, match="positive"):
        RationalMatrix(((1, 2), (3, 4)), 0)
    with pytest.raises(ValueError, match="positive"):
        RationalMatrix(((1, 2), (3, 4)), -2)
    with pytest.raises(ValueError, match="size mismatch"):
        I3 @ RationalMatrix.identity(2)
    with pytest.raises(TypeError):
        RationalMatrix.identity(2) @ 3


def test_indices_outside_the_matrix_or_out_of_order_are_refused():
    M = RationalMatrix.from_rows([[1, 2], [3, 4]])
    for ij in ((-1, 0), (0, -1), (2, 0), (0, 2)):
        with pytest.raises(IndexError, match="outside 0..1"):
            M[ij]
    for rows, cols in (((-1,), (0,)), ((0,), (-2,)), ((0, 2), (0, 1)), ((0, 1), (1, 2))):
        with pytest.raises(IndexError, match="outside 0..1"):
            M.minor(rows, cols)
    # repeated or unordered indices used to read 0 and 2 where the
    # {0,1} x {0,1} minor is -2
    for rows, cols in (((0, 0), (0, 1)), ((1, 0), (0, 1)), ((0, 1), (1, 0)), ((0, 1), (1, 1))):
        with pytest.raises(ValueError, match="strictly increasing"):
            M.minor(rows, cols)
    assert M[1, 0] == 3 and M.minor((1,), (0,)) == 3 and M.minor((), ()) == 1
    # a factor index outside 1..n-1 is refused before any column is read
    for factors in (((0, 1),), ((3, 1),), ((-1, 1),), ((1, 2), (0, 5))):
        with pytest.raises(ValueError, match=r"need 1 <= i <= 2"):
            _product(3, factors)
    with pytest.raises(ValueError, match=r"need 1 <= i <= 0"):
        _product(1, ((1, 1),))


def test_chevalley_shape():
    x = chevalley(4, 2, F(7, 3))
    assert x[1, 2] == F(7, 3)
    assert all(x[i, i] == 1 for i in range(4))
    assert sum(1 for i in range(4) for j in range(4) if x[i, j] != 0) == 5
    with pytest.raises(ValueError):
        chevalley(3, 3, 1)
    with pytest.raises(ValueError):
        chevalley(3, 0, 1)


def test_additive_identity():
    assert verify_additive_identity(3, 1, F(2, 1), F(1, 2))
    product = chevalley(3, 1, F(2)) @ chevalley(3, 1, F(3))
    assert product == chevalley(3, 1, F(5))
    rng = random.Random(7)
    for _ in range(50):
        a = F(rng.randint(-9, 9), rng.randint(1, 9))
        b = F(rng.randint(-9, 9), rng.randint(1, 9))
        assert verify_additive_identity(4, rng.randint(1, 3), a, b)


def test_braid_identity_unit_parameters():
    # at t1 = t2 = t3 = 1 the exchanged parameters are (1/2, 2, 1/2)
    lhs = chevalley(3, 1, F(1)) @ chevalley(3, 2, F(1)) @ chevalley(3, 1, F(1))
    rhs = chevalley(3, 2, F(1, 2)) @ chevalley(3, 1, F(2)) @ chevalley(3, 2, F(1, 2))
    assert lhs == rhs
    assert verify_braid_identity(3, 1, 1, 1, 1)


def test_braid_identity_random_and_degenerate():
    rng = random.Random(11)
    checked = 0
    while checked < 60:
        t1, t2, t3 = (F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
        if t1 + t3 == 0:
            continue
        assert verify_braid_identity(4, rng.randint(1, 2), t1, t2, t3)
        checked += 1
    # t2 = 0 collapses both sides to x_i(t1 + t3)
    assert verify_braid_identity(3, 1, F(4), F(0), F(9))
    # descending adjacency also works
    assert verify_braid_identity(3, 2, F(1), F(2), F(3), j=1)


def test_braid_identity_pole_and_bad_indices():
    with pytest.raises(ZeroDivisionError):
        verify_braid_identity(3, 1, F(5), F(1), F(-5))
    with pytest.raises(ValueError, match="adjacent"):
        verify_braid_identity(4, 1, 1, 1, 1, j=3)


def test_totally_nonnegative():
    assert is_totally_nonnegative(RationalMatrix.identity(4))
    prod = chevalley(4, 1, F(1)) @ chevalley(4, 2, F(2)) @ chevalley(4, 3, F(1, 3))
    assert is_totally_nonnegative(prod)
    assert not is_totally_nonnegative(RationalMatrix.from_rows([[1, -1], [0, 1]]))
    # positive entries alone do not make a TN matrix: the determinant is negative
    assert not is_totally_nonnegative(RationalMatrix.from_rows([[1, 2], [3, 4]]))
    with pytest.raises(ValueError, match="capped"):
        is_totally_nonnegative(RationalMatrix.identity(7))


def test_products_of_nonnegative_generators_are_tn():
    rng = random.Random(3)
    for _ in range(25):
        M = RationalMatrix.identity(4)
        for _ in range(rng.randint(1, 6)):
            M = M @ chevalley(4, rng.randint(1, 3), F(rng.randint(0, 9), rng.randint(1, 9)))
        assert is_totally_nonnegative(M)


def generator_by_hand(n, i, t):
    """x_i(t) written out entry by entry, without ``chevalley``."""
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    rows[i - 1][i] = t
    return RationalMatrix.from_rows(rows)


def test_the_fold_matches_the_product_of_generators_built_by_hand():
    rng = random.Random(25)
    seen = set()
    for _ in range(600):
        n = rng.randint(2, 6)
        factors = [(rng.randint(1, n - 1),
                    F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 7, 12))))
                   for _ in range(rng.randint(0, 8))]
        want = RationalMatrix.identity(n)
        for i, t in factors:
            want = want @ generator_by_hand(n, i, t)
        got = _product(n, factors)
        assert got == want and hash(got) == hash(want), (n, factors)
        assert (got.numerators, got.denominator) == (want.numerators, want.denominator)
        seen.add(("n", n))
        seen.add(("factors", len(factors)))
        seen.update(("zero" if t == 0 else "negative" if t < 0 else "positive",
                     t.denominator > 1) for _, t in factors)
        seen.add(("reduced", want.denominator < math.prod(t.denominator for _, t in factors)))
    assert {("n", n) for n in range(2, 7)} | {("factors", k) for k in range(9)} <= seen
    assert {(s, q) for s in ("negative", "positive") for q in (False, True)} <= seen
    assert ("zero", False) in seen and ("reduced", True) in seen
    for n in range(7):
        assert _product(n, ()) == RationalMatrix.identity(n)
    assert _product(3, ((1, "1/3"), (2, 2), (1, F(-1, 3)))) == (
        generator_by_hand(3, 1, F(1, 3)) @ generator_by_hand(3, 2, 2)
        @ generator_by_hand(3, 1, F(-1, 3)))
    with pytest.raises(TypeError, match="float"):
        _product(3, ((1, 1), (2, 0.5)))


# sha256 of repr(list(seeded_trials(seed, 200))): the draw order and every
# statement, verdict and failure string of the trial stream
TRIAL_STREAM_SHA256 = {
    0: "b1cfffd0fe32a76dbcd5a4a91028a3132089d767c44b854bf2223d42786bc491",
    1: "a64f34ec792baec6eb933e164dba69f391e3a783db0f8cd3d14d6cfbfa7aa26c",
    2: "273f39c0bffe59bf777fefadcd7dab7e24ec47345e45f65939692109d64b2778",
    3: "5abf9f833e2e061248f6910d3c43ce87ee45b4d73076e5339283311dd7100c0c",
    4: "7354d12c91effa6c637c6a6055f4cbfc2feb8df1b618215516aa0fd95fafe62a",
}


@pytest.mark.parametrize("seed", sorted(TRIAL_STREAM_SHA256))
def test_the_trial_stream_is_pinned(seed):
    stream = repr(list(seeded_trials(seed, 200)))
    assert hashlib.sha256(stream.encode()).hexdigest() == TRIAL_STREAM_SHA256[seed]


def test_negative_parameter_breaks_tn():
    assert not is_totally_nonnegative(chevalley(3, 1, F(-1)))


def test_seeded_trials_counts_and_draw_order():
    trials = list(seeded_trials(3, 6))
    assert [t[0] for t in trials] == ["additive"] * 6 + ["exchange"] * 6 + [
        "nonnegative_products"] * 3
    assert all(holds for _, holds, _ in trials)
    assert trials == list(seeded_trials(3, 6))
    assert len(list(seeded_trials(0, 0))) == 1
    with pytest.raises(ValueError, match="trials"):
        seeded_trials(0, -3)
    # refused at the call, before any generator is handed out; True would
    # run one trial
    for count, message in ((2.5, "trials 2.5 is not an integer"),
                           (True, "trials must be an integer, got True"),
                           (False, "trials must be an integer, got False"),
                           ("3", "trials '3' is not an integer")):
        with pytest.raises(ValueError, match=message):
            seeded_trials(0, count)
    assert list(seeded_trials(3, np.int64(6))) == trials
    # draw order: n, then i, then the parameters
    rng = random.Random(5)
    n = rng.randint(2, 4)
    i = rng.randint(1, n - 1)
    a = F(rng.randint(-9, 9), rng.randint(1, 9))
    b = F(rng.randint(-9, 9), rng.randint(1, 9))
    first = next(seeded_trials(5))
    assert first[2] == f"additive identity failed at n={n}, i={i}, a={a}, b={b}"


def test_bareiss_determinant_matches_the_leibniz_sum():
    count = 0
    for m in seeded_integer_matrices(2024):
        det = _det(m)
        assert type(det) is int
        assert det == leibniz(m), m
        count += 1
    assert _det([]) == 1
    assert count == 7 * 40 + 5


def test_minors_match_the_leibniz_sum_over_fractions():
    rng = random.Random(9)
    for n in range(1, 7):
        rows = [[F(rng.randint(-5, 5), rng.randint(1, 6)) if rng.random() < 0.7 else F(0)
                 for _ in range(n)] for _ in range(n)]
        M = RationalMatrix.from_rows(rows)
        assert [[M[i, j] for j in range(n)] for i in range(n)] == rows
        for k in range(1, n + 1):
            for _ in range(5):
                r = tuple(sorted(rng.sample(range(n), k)))
                c = tuple(sorted(rng.sample(range(n), k)))
                minor = M.minor(r, c)
                assert type(minor) is F
                assert minor == leibniz([[rows[i][j] for j in c] for i in r])


def test_equal_matrices_have_equal_fields_and_hashes():
    halves = chevalley(3, 1, F(1, 2)) @ chevalley(3, 1, F(1, 2))
    one = chevalley(3, 1, 1)
    assert halves == one and hash(halves) == hash(one)
    assert (halves.numerators, halves.denominator) == (one.numerators, 1)
    scaled = RationalMatrix(((6, 4), (0, 2)), 4)
    assert scaled == RationalMatrix.from_rows([["3/2", 1], [0, F(1, 2)]])
    assert (scaled.numerators, scaled.denominator) == (((3, 2), (0, 1)), 2)
    zero = RationalMatrix(((0, 0), (0, 0)), 7)
    assert zero.denominator == 1 and zero == RationalMatrix.from_rows([[0, 0], [0, 0]])
    assert str(RationalMatrix.from_rows([[F(1, 3), 2], [-1, 0]])) == "1/3  2\n-1  0"


def test_floats_are_refused_and_exact_inputs_accepted():
    for call in (lambda: chevalley(3, 1, 0.1),
                 lambda: RationalMatrix.from_rows([[1, 0.5], [0, 1]]),
                 lambda: verify_additive_identity(3, 1, 0.5, 1),
                 lambda: verify_braid_identity(3, 1, 1, 2.0, 3)):
        with pytest.raises(TypeError, match="float"):
            call()
    assert chevalley(3, 1, "1/3") == chevalley(3, 1, F(1, 3))
    assert chevalley(3, 1, "1/3")[0, 1] == F(1, 3)
    assert verify_additive_identity(3, 2, "1/3", 2)
    assert verify_braid_identity(3, 1, "1/2", F(2), 3)


def integer_minors(M):
    """Every minor of M's numerators by its own Bareiss determinant, keyed
    by (size, row mask, column mask)."""
    idx = range(M.n)
    return {(k, sum(1 << i for i in rows), sum(1 << j for j in cols)):
            M._integer_minor(rows, cols)
            for k in range(1, M.n + 1)
            for rows in itertools.combinations(idx, k)
            for cols in itertools.combinations(idx, k)}


def sweep_matrices(seed):
    """Matrices of sizes 1..6 with entries over denominators 1..6: mixed
    signs with many zeros; nonnegative entries, whose first negative minor
    can sit at any size; totally nonnegative products of upper and lower
    generators; such products with one entry moved by 1 or 1/50; and one
    matrix whose only negative minor is its determinant."""
    rng = random.Random(seed)
    for n in range(1, 7):
        for _ in range(12):
            d = rng.randint(1, 6)
            yield RationalMatrix.from_rows(
                [[F(rng.choice((0, 0, 0, 1, -1, 2, -3, 7)), d) for _ in range(n)]
                 for _ in range(n)])
            yield RationalMatrix.from_rows(
                [[F(rng.choice((0, 0, 1, 2, 5)), rng.randint(1, 6)) for _ in range(n)]
                 for _ in range(n)])
            M = RationalMatrix.identity(n)
            for _ in range(rng.randint(0, 3 * n)):
                if n > 1:
                    x = chevalley(n, rng.randint(1, n - 1), F(rng.randint(0, 5), rng.randint(1, 6)))
                    if rng.random() < 0.5:  # the lower generator, x transposed
                        x = RationalMatrix(tuple(zip(*x.numerators)), x.denominator)
                    M = M @ x
            yield M
            rows = [[M[i, j] for j in range(n)] for i in range(n)]
            rows[rng.randrange(n)][rng.randrange(n)] += rng.choice((-1, 1, F(-1, 50), F(1, 50)))
            yield RationalMatrix.from_rows(rows)
        # the Pascal matrix is totally positive with determinant 1; lowering
        # its corner by just over 1 / (its cofactor) makes the determinant
        # the one negative minor
        pascal = [[F(math.comb(i + j, i)) for j in range(n)] for i in range(n)]
        pascal[0][0] -= F(1, leibniz([row[1:] for row in pascal[1:]])) + F(1, 10**6)
        yield RationalMatrix.from_rows(pascal)


def test_the_sweep_reads_every_minor_and_agrees_with_bareiss():
    verdicts = set()
    for M in sweep_matrices(24):
        minors = integer_minors(M)
        level = {(0, 0): 1}
        for k in range(1, M.n + 1):
            level = _laplace_level(M.numerators, level, k)
            assert level == {(rows, cols): v for (size, rows, cols), v in minors.items()
                             if size == k}
        nonnegative = min(minors.values()) >= 0
        assert is_totally_nonnegative(M) == nonnegative, M
        first = min((size for (size, _, _), v in minors.items() if v < 0), default=0)
        verdicts.add((M.n, M.denominator > 1, first))
    # every size n sees a totally nonnegative matrix and first negative
    # minors of size 1 and n, over denominators other than 1
    for n in range(1, 7):
        assert {(n, True, 0), (n, True, 1), (n, True, n)} <= verdicts, n


def test_planted_negative_minors():
    # the entries and the diagonal are >= 0; the determinant alone is not
    M = RationalMatrix.from_rows([[1, 1], [1, 0]])
    assert [v for v in integer_minors(M).values() if v < 0] == [-1]
    assert not is_totally_nonnegative(M)
    # one interior 2x2 minor, rows and columns 2 and 3, is the only negative one
    M = RationalMatrix.from_rows([[0, 1, 0, 0], [0, 1, 1, 0], [0, 1, 0, 0], [0, 0, 2, 0]])
    assert {key: v for key, v in integer_minors(M).items() if v < 0} == {(2, 0b0110, 0b0110): -1}
    assert not is_totally_nonnegative(M)
    with pytest.raises(ValueError, match="capped"):
        is_totally_nonnegative(RationalMatrix.from_rows([[1] * 7] * 7))
