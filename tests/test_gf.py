"""Exact GF(q) linear algebra: golden cases and randomized cross-checks.

The independent rank oracle here expands determinants of all square minors
by permutation sums, sharing no code path with the Gauss-Jordan routines it
checks.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerotalk.errors import ModelError, SubspaceNotContained
from zerotalk.gf import (
    FieldOrder,
    FiniteMatrix,
    codes,
    cols_mat,
    column_space_intersection,
    columns_subset,
    extend_basis,
    hstack,
    matmul,
    rank,
    reduce_to_full_column_rank,
    row_space_basis,
    row_space_keys,
    rref,
    solve,
    vec_mat,
)

from helpers import (
    _digits,
    greedy_extend_basis,
    identity,
    list_rref,
    reference_column_space_basis,
    reference_hstack,
    reference_intersection,
    reference_row_space_keys,
    reference_solve,
    reference_transpose,
    row_space,
    zeros,
)


def det_mod(rows: list[list[int]], q: int) -> int:
    """Determinant mod q by the permutation expansion (oracle only)."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = 1
        for i in range(n):
            term = (term * rows[i][perm[i]]) % q
        total = (total + (-term if inversions % 2 else term)) % q
    return total


def minor_rank(m: FiniteMatrix) -> int:
    """Rank as the largest k with a nonvanishing k-by-k minor (oracle only)."""
    grid = m.row_list()
    for k in range(min(m.rows, m.cols), 0, -1):
        for rs in combinations(range(m.rows), k):
            for cs in combinations(range(m.cols), k):
                sub = [[grid[i][j] for j in cs] for i in rs]
                if det_mod(sub, m.q) != 0:
                    return k
    return 0


def random_matrix(rng: random.Random, q: int, rows: int, cols: int) -> FiniteMatrix:
    return FiniteMatrix(q, rows, cols, tuple(rng.randrange(q) for _ in range(rows * cols)))


def spans_equal(a: FiniteMatrix, b: FiniteMatrix) -> bool:
    return rank(hstack(a, b)) == rank(a) == rank(b)


def contains_span(outer: FiniteMatrix, inner: FiniteMatrix) -> bool:
    return rank(hstack(outer, inner)) == rank(outer)


matrix_strategy = st.builds(
    lambda q, r, c, seed: random_matrix(random.Random(seed), q, r, c),
    q=st.sampled_from([2, 3, 5, 7]),
    r=st.integers(0, 4),
    c=st.integers(0, 4),
    seed=st.integers(0, 10**6),
)


# --- field order and matrix construction ---


def test_field_order_accepts_primes():
    assert FieldOrder(2) == 2
    assert FieldOrder(2147483629) == 2147483629  # largest prime below 2**31


@pytest.mark.parametrize("bad", [0, 1, 4, 9, 15, 2**31, -3, "x"])
def test_field_order_rejects_non_primes(bad):
    with pytest.raises(ModelError):
        FieldOrder(bad)


def test_matrix_entries_reduced_mod_q():
    m = FiniteMatrix(3, 1, 3, (-1, 4, 3))
    assert m.entries == (2, 1, 0)


def test_matrix_shape_validation():
    with pytest.raises(ModelError):
        FiniteMatrix(2, 2, 2, (1, 0, 1))
    with pytest.raises(ModelError, match="^matrix shape must be nonnegative, got -1x0$"):
        FiniteMatrix(2, -1, 0, ())
    # a float or bool shape would fail later, in rank or to_discrete, with a TypeError
    with pytest.raises(ModelError, match=r"^matrix shape must be integers, got 1\.0x1$"):
        FiniteMatrix(2, 1.0, 1, (1,))
    with pytest.raises(ModelError, match="^matrix shape must be integers, got 1xTrue$"):
        FiniteMatrix(2, 1, True, (1,))
    with pytest.raises(ModelError, match="^all matrix rows must have the same length$"):
        FiniteMatrix.from_rows(2, [[1, 0], [1]])
    with pytest.raises(ModelError, match="^all matrix columns must have the same length$"):
        FiniteMatrix.from_cols(2, [[1, 0], [1]])


@pytest.mark.parametrize("bad", [0.5, 1.9, 2.0, "1", True, False, None, Fraction(1)])
def test_matrix_rejects_entries_that_are_not_ints(bad):
    for build in (
        lambda: FiniteMatrix(3, 1, 2, (bad, 2)),
        lambda: FiniteMatrix.from_rows(3, [[bad, 2]]),
        lambda: FiniteMatrix.from_cols(3, [[2], [bad]]),
    ):
        with pytest.raises(ModelError, match="^matrix entries must be integers, got "):
            build()


# --- rref / rank ---


def test_rref_identity_fixed_point():
    eye = identity(2, 2)
    reduced, pivots = rref(eye)
    assert reduced == eye
    assert pivots == (0, 1)


def test_rref_dependent_third_column():
    # last column is the sum of the first two, so only two pivots
    m = FiniteMatrix.from_rows(2, [[1, 0, 1], [0, 1, 1], [0, 0, 0]])
    reduced, pivots = rref(m)
    assert pivots == (0, 1)
    assert rank(columns_subset(m, pivots)) == 2


def test_rank_zero_matrix():
    assert rank(zeros(5, 3, 2)) == 0


def test_rank_matches_minor_oracle_gf5():
    rng = random.Random(20240)
    for _ in range(25):
        m = random_matrix(rng, 5, 4, 4)
        assert rank(m) == minor_rank(m)


def test_rank_matches_minor_oracle_gf3_rectangular():
    rng = random.Random(20241)
    for _ in range(25):
        m = random_matrix(rng, 3, 5, 3)
        assert rank(m) == minor_rank(m)


@settings(max_examples=60, deadline=None)
@given(matrix_strategy)
def test_rref_preserves_row_space(m):
    reduced, pivots = rref(m)
    stacked = FiniteMatrix.from_rows(m.q, m.row_list() + reduced.row_list(), cols=m.cols)
    assert rank(stacked) == rank(m) == len(pivots)


# --- row space walk ---


@given(matrix_strategy)
@settings(max_examples=60, deadline=None)
def test_row_space_is_every_image_once(m):
    basis = row_space_basis(m)
    assert basis.rows == rank(m)
    points = list(row_space(basis))
    assert len(points) == int(m.q) ** basis.rows
    images = {vec_mat(x, m) for x in product(range(m.q), repeat=m.rows)}
    assert set(points) == images


def test_row_space_of_no_rows_is_the_zero_vector():
    assert list(row_space(zeros(5, 0, 3))) == [(0, 0, 0)]
    assert list(row_space(zeros(2, 0, 0))) == [()]


def test_row_space_basis_is_the_nonzero_rref_rows():
    m = FiniteMatrix.from_rows(3, [[1, 2, 0], [2, 1, 0], [0, 0, 1]])
    reduced, pivots = rref(m)
    basis = row_space_basis(m)
    assert basis.rows == len(pivots) == 2
    assert [basis.row(i) for i in range(2)] == [reduced.row(i) for i in range(2)]


# --- rank-nullity ---


@settings(max_examples=60, deadline=None)
@given(matrix_strategy)
def test_rank_nullity(m):
    # the kernel {x : m @ x = 0}, counted by brute force over GF(q)^cols
    q = int(m.q)
    kernel = sum(
        all(sum(m.at(i, k) * x[k] for k in range(m.cols)) % q == 0 for i in range(m.rows))
        for x in product(range(q), repeat=m.cols)
    )
    assert kernel == q ** (m.cols - rank(m))


# --- column space intersection ---


def test_intersection_golden_overlap_pair():
    a = FiniteMatrix.from_rows(2, [[1, 0], [0, 1], [0, 0]])
    b = FiniteMatrix.from_rows(2, [[0, 1], [0, 1], [1, 1]])
    meet = column_space_intersection(a, b)
    assert meet.cols == 1
    assert meet.col(0) == (1, 1, 0)


def test_intersection_tolerates_redundant_columns():
    # same spaces as above but with a dependent third column on the left
    a = FiniteMatrix.from_rows(2, [[1, 0, 1], [0, 1, 1], [0, 0, 0]])
    b = FiniteMatrix.from_rows(2, [[0, 1], [0, 1], [1, 1]])
    meet = column_space_intersection(a, b)
    assert meet.cols == 1
    assert meet.col(0) == (1, 1, 0)


def test_intersection_of_identical_spaces():
    eye = identity(3, 3)
    meet = column_space_intersection(eye, eye)
    assert contains_span(meet, eye)
    assert contains_span(eye, meet)
    assert meet == identity(3, 3)


def test_intersection_of_disjoint_lines_is_trivial():
    a = FiniteMatrix.from_cols(2, [[1, 0]])
    b = FiniteMatrix.from_cols(2, [[0, 1]])
    meet = column_space_intersection(a, b)
    assert meet.cols == 0


def test_intersection_contained_in_both_and_symmetric():
    rng = random.Random(99)
    for _ in range(30):
        q = rng.choice([2, 3, 5])
        rows = rng.randrange(1, 5)
        a = random_matrix(rng, q, rows, rng.randrange(0, 4))
        b = random_matrix(rng, q, rows, rng.randrange(0, 4))
        meet = column_space_intersection(a, b)
        assert contains_span(a, meet)
        assert contains_span(b, meet)
        assert column_space_intersection(b, a) == meet  # canonical form is symmetric
        # shared columns of a must land inside the meet
        for j in range(a.cols):
            col = columns_subset(a, [j])
            if contains_span(b, col):
                assert contains_span(meet, col)


@settings(max_examples=80, deadline=None)
@given(
    q=st.sampled_from([2, 3, 5]),
    rows=st.integers(1, 4),
    ca=st.integers(0, 4),
    cb=st.integers(0, 4),
    seed=st.integers(0, 10**6),
)
def test_dimension_formula(q, rows, ca, cb, seed):
    rng = random.Random(seed)
    a = random_matrix(rng, q, rows, ca)
    b = random_matrix(rng, q, rows, cb)
    meet = column_space_intersection(a, b)
    assert meet.cols == rank(a) + rank(b) - rank(hstack(a, b))


@settings(max_examples=80, deadline=None)
@given(
    q=st.sampled_from([2, 3, 5]),
    rows=st.integers(0, 4),
    ca=st.integers(0, 4),
    cb=st.integers(0, 4),
    seed=st.integers(0, 10**6),
)
def test_intersection_is_canonical_basis_of_brute_force_meet(q, rows, ca, cb, seed):
    rng = random.Random(seed)
    a = random_matrix(rng, q, rows, ca)
    b = random_matrix(rng, q, rows, cb)
    meet = column_space_intersection(a, b)

    def span(m):
        return set(row_space(m.transpose()))

    assert meet.rows == rows
    assert span(meet) == span(a) & span(b)
    assert meet == reference_column_space_basis(meet)


def test_intersection_is_one_elimination(monkeypatch):
    import zerotalk.gf as gf_module

    shapes = []
    real_eliminate = gf_module._eliminate

    def counting_eliminate(q, vecs, size, start):
        vecs = list(vecs)
        shapes.append((len(vecs), size))
        return real_eliminate(q, vecs, size, start)

    monkeypatch.setattr(gf_module, "_eliminate", counting_eliminate)
    a = FiniteMatrix.from_rows(2, [[1, 0, 1], [0, 1, 1], [0, 0, 0]])
    b = FiniteMatrix.from_rows(2, [[0, 1], [0, 1], [1, 1]])
    meet = column_space_intersection(a, b)
    assert meet.col(0) == (1, 1, 0)
    # one block of a.cols + b.cols vectors of 2n coordinates
    assert shapes == [(5, 6)]


def test_intersect_all_is_order_invariant():
    rng = random.Random(4242)
    for _ in range(10):
        mats = [random_matrix(rng, 3, 4, rng.randrange(1, 4)) for _ in range(3)]
        results = {reduce(column_space_intersection, perm) for perm in permutations(mats)}
        assert len(results) == 1


# --- basis selection / extension ---


def test_reduce_keeps_leading_independent_columns():
    m = FiniteMatrix.from_rows(2, [[1, 0, 1], [0, 1, 1], [0, 0, 0]])
    reduced = reduce_to_full_column_rank(m)
    assert reduced == columns_subset(m, [0, 1])


def test_reduce_full_rank_passthrough():
    m = FiniteMatrix.from_rows(3, [[1, 2], [0, 1], [1, 1]])
    assert reduce_to_full_column_rank(m) == m


def test_reduce_preserves_span():
    rng = random.Random(11)
    for _ in range(20):
        base = random_matrix(rng, 3, 4, 2)
        # duplicate + combine columns to force rank deficiency
        fat = hstack(base, base, random_matrix(rng, 3, 4, 1))
        reduced = reduce_to_full_column_rank(fat)
        assert rank(reduced) == reduced.cols == rank(fat)
        assert spans_equal(reduced, fat)


def test_extend_basis_golden():
    base = FiniteMatrix.from_cols(2, [[1, 1, 0]])
    target = FiniteMatrix.from_rows(2, [[1, 0], [0, 1], [0, 0]])
    ext = extend_basis(base, target)
    assert ext.cols == 1
    joined = hstack(base, ext)
    assert rank(joined) == 2
    assert spans_equal(joined, target)


def test_extend_basis_with_base_equal_target():
    m = identity(5, 3)
    assert extend_basis(m, m).cols == 0


def test_extend_basis_random_nested_subspaces():
    rng = random.Random(5150)
    for _ in range(20):
        target = random_matrix(rng, 5, 4, 3)
        take = rng.randrange(0, rank(target) + 1)
        base = reference_column_space_basis(columns_subset(reduce_to_full_column_rank(target), range(take)))
        ext = extend_basis(base, target)
        joined = hstack(base, ext)
        assert rank(joined) == joined.cols == rank(target)
        assert spans_equal(joined, target)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_extend_basis_matches_greedy_reference(q):
    rng = random.Random(7000 + q)
    for _ in range(40):
        rows = rng.randrange(1, 6)
        target = random_matrix(rng, q, rows, rng.randrange(0, 6))
        take = rng.randrange(0, rank(target) + 1)  # zero base columns included
        base = reference_column_space_basis(matmul(target, random_matrix(rng, q, target.cols, take)))
        assert extend_basis(base, target) == greedy_extend_basis(base, target)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_extend_basis_errors_match_greedy_reference(q):
    rng = random.Random(7100 + q)
    for _ in range(40):
        rows = rng.randrange(1, 5)
        base = random_matrix(rng, q, rows, rng.randrange(0, 4))
        target = random_matrix(rng, q, rows, rng.randrange(0, 4))
        outcomes = []
        for fn in (extend_basis, greedy_extend_basis):
            try:
                outcomes.append(fn(base, target))
            except (ModelError, SubspaceNotContained) as exc:
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1]


def test_extend_basis_rejects_outside_vectors():
    base = FiniteMatrix.from_cols(2, [[0, 0, 1]])
    target = FiniteMatrix.from_rows(2, [[1, 0], [0, 1], [0, 0]])
    with pytest.raises(SubspaceNotContained):
        extend_basis(base, target)


def test_extend_basis_requires_independent_base():
    base = FiniteMatrix.from_cols(2, [[1, 0], [1, 0]])
    with pytest.raises(ModelError):
        extend_basis(base, identity(2, 2))


# --- solve ---


def test_solve_recovers_combination():
    rng = random.Random(303)
    for _ in range(20):
        q = rng.choice([2, 3, 7])
        a = random_matrix(rng, q, 4, 3)
        x = random_matrix(rng, q, 3, 2)
        b = matmul(a, x)
        got = solve(a, b)
        assert matmul(a, got) == b


def test_solve_rejects_outside_column():
    a = FiniteMatrix.from_cols(3, [[1, 0, 0]])
    b = FiniteMatrix.from_cols(3, [[0, 1, 0]])
    with pytest.raises(SubspaceNotContained):
        solve(a, b)


# --- canonicalization and determinism ---


def test_span_equal_inputs_share_canonical_basis():
    m = FiniteMatrix.from_rows(5, [[1, 2, 3], [0, 1, 4], [2, 0, 1]])
    shuffled = columns_subset(m, [2, 0, 1])
    scaled = FiniteMatrix.from_cols(5, [[(3 * x) % 5 for x in m.col(j)] for j in range(3)])
    assert column_space_intersection(m, m) == column_space_intersection(shuffled, scaled)
    assert column_space_intersection(m, m) == reference_column_space_basis(m)


def test_operations_are_deterministic():
    rng = random.Random(808)
    a = random_matrix(rng, 3, 4, 3)
    b = random_matrix(rng, 3, 4, 2)
    assert rref(a) == rref(a)
    assert column_space_intersection(a, b) == column_space_intersection(a, b)


@pytest.mark.parametrize("q", [2, 3, 5, 17, 127, 131, 65521])
def test_cols_mat_is_vec_mat_row_by_row(q):
    # 20 rows of nonzero entries overflow a byte's sum for q = 17 and 127,
    # so the running reduction is exercised; q > 127 takes the list path
    rng = random.Random(q)
    n = 40
    for rows, cols in ((20, 3), (3, 0), (0, 2), (4, 5)):
        a = FiniteMatrix(q, rows, cols, tuple(rng.randrange(1, q) for _ in range(rows * cols)))
        xs = [[rng.randrange(q) for _ in range(rows)] for _ in range(n)]
        x_cols = [[x[k] for x in xs] for k in range(rows)]
        products = [vec_mat(x, a) for x in xs]
        assert cols_mat(x_cols, a, n) == [[p[j] for p in products] for j in range(cols)]


def test_cols_mat_rejects_wrong_column_count():
    with pytest.raises(ValueError):
        cols_mat([[0, 1]], identity(2, 2), 2)


# radix products 1 (no columns), 255 and 256 take the byte path; 257 and 272 the list path
@pytest.mark.parametrize("radices", [(), (3, 5, 17), (2,) * 8, (257,), (16, 17)])
@pytest.mark.parametrize("n", [1, 1000])
def test_codes_is_the_mixed_radix_index_most_significant_first(radices, n):
    rng = random.Random(f"{radices}-{n}")
    cols = [[rng.randrange(r) for _ in range(n)] for r in radices]
    cols = [[r - 1] + col[1:] for r, col in zip(radices, cols)]  # the largest code in round 0
    want = [_digits([col[i] for col in cols], radices) for i in range(n)]
    assert codes(cols, radices, n) == want
    assert want[0] == math.prod(radices) - 1


GF2_2x2, GF2_3x1, GF3_2x2 = identity(2, 2), zeros(2, 3, 1), identity(3, 2)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: matmul(GF2_2x2, GF3_2x2), "field mismatch: GF(2) vs GF(3)", id="matmul-field"),
        pytest.param(lambda: matmul(GF2_2x2, GF2_3x1), "shape mismatch: 2x2 times 3x1", id="matmul-shape"),
        pytest.param(lambda: vec_mat((1, 0, 1), GF2_2x2), "vector length 3 does not match 2 rows",
                     id="vec_mat-length"),
        pytest.param(lambda: hstack(), "hstack needs at least one matrix", id="hstack-empty"),
        pytest.param(lambda: hstack(GF2_2x2, GF3_2x2), "hstack requires equal row counts and a common field",
                     id="hstack-field"),
        pytest.param(lambda: hstack(GF2_2x2, GF2_3x1), "hstack requires equal row counts and a common field",
                     id="hstack-rows"),
        pytest.param(lambda: column_space_intersection(GF2_2x2, GF3_2x2), "field mismatch: GF(2) vs GF(3)",
                     id="intersection-field"),
        pytest.param(lambda: column_space_intersection(GF2_2x2, GF2_3x1), "row-count mismatch: 2 vs 3",
                     id="intersection-rows"),
        pytest.param(lambda: extend_basis(GF2_2x2, GF3_2x2), "base and target must share field and row count",
                     id="extend_basis-field"),
        pytest.param(lambda: extend_basis(GF2_2x2, GF2_3x1), "base and target must share field and row count",
                     id="extend_basis-rows"),
        pytest.param(lambda: solve(GF2_2x2, GF3_2x2), "a and b must share field and row count", id="solve-field"),
        pytest.param(lambda: solve(GF2_2x2, GF2_3x1), "a and b must share field and row count", id="solve-rows"),
    ],
)
def test_operations_reject_mismatched_fields_and_shapes(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# --- packed rows and unchecked builds against the list-row references ---


def differential_cases(seed: int):
    """Seeded matrices over GF(2), GF(3), GF(5), GF(7) and GF(127), the
    last field packed a byte per entry, and GF(131), the first kept in list
    rows: dense, sparse and rank-deficient, empty shapes included."""
    rng = random.Random(seed)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (4, 4), (6, 9), (9, 6), (12, 12)]
    for q in (2, 3, 5, 7, 127, 131):
        for rows, cols in shapes:
            yield random_matrix(rng, q, rows, cols)
            sparse = tuple(rng.randrange(1, q) if rng.random() < 0.2 else 0 for _ in range(rows * cols))
            yield FiniteMatrix(q, rows, cols, sparse)
            inner = rng.randrange(0, 3)
            yield matmul(random_matrix(rng, q, rows, inner), random_matrix(rng, q, inner, cols))


def plain(m: FiniteMatrix) -> bool:
    return type(m.q) is FieldOrder and all(type(e) is int for e in m.entries)


@pytest.mark.parametrize("seed", range(4))
def test_rref_transpose_and_bases_match_the_list_references(seed):
    for m in differential_cases(900 + seed):
        reduced, pivots = rref(m)
        assert (reduced, pivots) == list_rref(m)
        assert plain(reduced)
        t = m.transpose()
        assert t == reference_transpose(m) and plain(t)
        basis = column_space_intersection(m, m)
        assert basis == reference_column_space_basis(m) and plain(basis)


@pytest.mark.parametrize("seed", range(4))
def test_rank_is_the_pivot_count_of_the_list_reference(seed):
    for m in differential_cases(930 + seed):
        assert rank(m) == len(list_rref(m)[1])


@pytest.mark.parametrize("seed", range(4))
def test_hstack_intersection_and_solve_match_the_list_references(seed):
    rng = random.Random(950 + seed)
    cases = list(differential_cases(950 + seed))
    for a in cases:
        b = rng.choice([c for c in cases if c.q == a.q and c.rows == a.rows])
        assert hstack(a, b) == reference_hstack(a, b)
        meet = column_space_intersection(a, b)
        assert meet == reference_intersection(a, b)
        assert plain(meet)
        for rhs in (b, matmul(a, random_matrix(rng, a.q, a.cols, 2))):
            try:
                expected = reference_solve(a, rhs)
            except SubspaceNotContained:
                with pytest.raises(SubspaceNotContained):
                    solve(a, rhs)
            else:
                assert solve(a, rhs) == expected


def random_widths(rng: random.Random, cols: int) -> list:
    cuts = sorted(rng.randrange(cols + 1) for _ in range(rng.randrange(1, 4)))
    return [hi - lo for lo, hi in zip([0] + cuts, cuts + [cols])]


@pytest.mark.parametrize("seed", range(4))
def test_row_space_keys_is_the_row_space_encoded_digit_by_digit(seed):
    rng = random.Random(970 + seed)
    for m in differential_cases(970 + seed):
        basis = row_space_basis(m)
        if int(m.q) ** basis.rows > 5000:
            continue
        widths = random_widths(rng, m.cols)
        assert list(row_space_keys(basis, widths)) == reference_row_space_keys(basis, widths)


@pytest.mark.parametrize("q, rows", [(2, 12), (3, 7), (7, 4), (131, 2), (2053, 1)])
def test_row_space_keys_past_one_chunk(q, rows):
    # more points than one chunk of the walk holds, and q past the byte
    # packing of cols_mat (131) and past one chunk (2053)
    rng = random.Random(q)
    basis = FiniteMatrix.from_rows(  # in RREF: [I | random]
        q, [[int(i == j) for j in range(rows)] + [rng.randrange(q) for _ in range(3)] for i in range(rows)]
    )
    widths = [2, rows - 1, 1, 1]
    assert list(row_space_keys(basis, widths)) == reference_row_space_keys(basis, widths)


def test_row_space_keys_of_no_rows_is_the_zero_point():
    assert list(row_space_keys(zeros(5, 0, 3), [1, 2])) == [(0, 0)]
    assert list(row_space_keys(zeros(2, 0, 0), [0, 0])) == [(0, 0)]


def test_row_space_keys_widths_must_cover_the_columns():
    for widths in ([], [1, 1], [2, 2]):
        with pytest.raises(ValueError):
            list(row_space_keys(identity(3, 3), widths))
