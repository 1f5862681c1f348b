import itertools
import math
import random
from fractions import Fraction

import pytest

from coxsort.totalpos import (RationalMatrix, _det, _laplace_level, chevalley,
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
