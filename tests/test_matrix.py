"""Exact linear algebra: solving, invariant factors, similarity."""

import itertools

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from adjreal.errors import InconsistentSystem, SingularMatrix, SizeMismatch
from adjreal.gaussian import I, ONE, ZERO, GaussRat, gr, rational
from adjreal.matrix import (
    ExactMatrix,
    PolyMatrix,
    _signed_conjugate,
    char_poly,
    det,
    eval_poly,
    hessenberg,
    invariant_factors,
    inverse,
    is_semisimple,
    kernel,
    minimal_polynomial,
    rank,
    similar_to_negative,
    smith_invariant_factors,
    solve_linear,
)
from adjreal.oracle import rcf_similar
from adjreal.polynomial import ExactPoly, poly_gcd

from conftest import SMALL_SCALARS, conjugated_jordan_matrices


def test_solve_identity():
    a = ExactMatrix.identity(2)
    part, ker = solve_linear(a, [ONE, I])
    assert part == [ONE, I]
    assert ker == []


def test_solve_zero_matrix():
    a = ExactMatrix.zeros(2)
    part, ker = solve_linear(a, [ZERO, ZERO])
    assert part == [ZERO, ZERO]
    assert len(ker) == 2


def test_solve_rank_one():
    a = ExactMatrix.from_rows([[1, 1], [1, 1]])
    part, ker = solve_linear(a, [gr(2), gr(2)])
    assert part == [gr(2), gr(0)]
    assert len(ker) == 1
    # the kernel spans (1, -1)
    v = ker[0]
    assert v[0] == -v[1]


def test_solve_inconsistent():
    a = ExactMatrix.from_rows([[1, 1], [1, 1]])
    with pytest.raises(InconsistentSystem):
        solve_linear(a, [ONE, ZERO])


def _reference_rref(rows, width):
    """Dense Gauss-Jordan elimination, first nonzero pivot in column
    order: the reference the sparse engine must match.  Reduces rows in
    place and returns the pivot columns."""
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(width):
        pivot_row = None
        for i in range(r, nrows):
            if not rows[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [e * inv for e in rows[r]]
        prow = rows[r]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if f.is_zero():
                continue
            rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _reference_kernel(rows, pivots, ncols):
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [ZERO] * ncols
        vec[free] = ONE
        for r, c in enumerate(pivots):
            vec[c] = -rows[r][free]
        basis.append(vec)
    return basis


def _random_system_matrix(rng, rows, cols, dense):
    pool = list(SMALL_SCALARS[1:]) if dense else [ZERO] * 6 + list(SMALL_SCALARS[1:])
    return ExactMatrix.from_rows(
        [[rng.choice(pool) for _ in range(cols)] for _ in range(rows)]
    )


def _random_system(rng):
    """Sparse or dense, often rank-deficient (a product through a
    narrower inner dimension); b consistent by construction half the
    time and random otherwise."""
    rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
    dense = rng.random() < 0.5
    if rng.random() < 0.4:
        inner = rng.randrange(1, min(rows, cols) + 1)
        a = _random_system_matrix(rng, rows, inner, dense) * _random_system_matrix(
            rng, inner, cols, dense
        )
    else:
        a = _random_system_matrix(rng, rows, cols, dense)
    pool = [ZERO] * 3 + list(SMALL_SCALARS[1:])
    if rng.random() < 0.5:
        b = a.mul_vector([rng.choice(pool) for _ in range(cols)])
    else:
        b = [rng.choice(pool) for _ in range(rows)]
    return a, b


def test_solve_linear_matches_dense_particular_solution(rng):
    """On random sparse and dense, rank-deficient and inconsistent
    systems, solve_linear (particular solution and kernel), kernel and
    rank all give what the dense reference elimination gives."""
    for _ in range(200):
        a, b = _random_system(rng)
        aug = [a.row_list(i) + [b[i]] for i in range(a.rows)]
        pivots = _reference_rref(aug, a.cols + 1)
        if a.cols in pivots:
            with pytest.raises(InconsistentSystem):
                solve_linear(a, b)
        else:
            particular = [ZERO] * a.cols
            for r, c in enumerate(pivots):
                particular[c] = aug[r][a.cols]
            expected = (particular, _reference_kernel(aug, pivots, a.cols))
            assert solve_linear(a, b) == expected
        plain = a.to_lists()
        pivots = _reference_rref(plain, a.cols)
        assert kernel(a) == _reference_kernel(plain, pivots, a.cols)
        assert rank(a) == len(pivots)


def test_inverse_matches_dense_reference(rng):
    """Random sparse and dense square matrices, some singular."""
    for _ in range(120):
        n = rng.randrange(1, 7)
        a = _random_system_matrix(rng, n, n, rng.random() < 0.5)
        rows = [
            a.row_list(i) + [ONE if i == j else ZERO for j in range(n)] for i in range(n)
        ]
        pivots = _reference_rref(rows, 2 * n)
        if pivots[:n] != list(range(n)):
            with pytest.raises(SingularMatrix):
                inverse(a)
        else:
            assert inverse(a) == ExactMatrix.from_rows([r[n:] for r in rows])


def test_invariant_factors_distinct_diag():
    facs = invariant_factors(ExactMatrix.diagonal([1, -1]))
    x = ExactPoly.x_power(1)
    assert facs == [ExactPoly.one(), x * x - ExactPoly.one()]


def test_invariant_factors_zero_matrix():
    facs = invariant_factors(ExactMatrix.zeros(2))
    x = ExactPoly.x_power(1)
    assert facs == [x, x]


def test_invariant_factors_nilpotent_block():
    n = ExactMatrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    facs = invariant_factors(n)
    assert facs == [ExactPoly.one(), ExactPoly.one(), ExactPoly.x_power(3)]
    # companion-form cross-check: the shift matrix is cyclic, so its
    # minimal polynomial must equal its characteristic polynomial
    assert minimal_polynomial(n) == char_poly(n)


def test_similar_to_negative_examples():
    assert similar_to_negative(ExactMatrix.diagonal([1, -1]))
    assert not similar_to_negative(ExactMatrix.diagonal([1, 1, -1]))
    assert similar_to_negative(ExactMatrix.diagonal([1, 2, -1, -2]))


def test_semisimple_and_nilpotent_predicates():
    assert is_semisimple(ExactMatrix.diagonal([1, 1]))
    jordan = ExactMatrix.from_rows([[1, 1], [0, 1]])
    assert not is_semisimple(jordan)
    # its minimal polynomial is (x-1)^2
    m = minimal_polynomial(jordan)
    x = ExactPoly.x_power(1)
    assert m == (x - ExactPoly.one()) * (x - ExactPoly.one())


def test_semisimple_matches_minimal_polynomial_definition(rng):
    for _ in range(25):
        n = rng.randrange(2, 5)
        m = ExactMatrix(n, n, [rng.choice(SMALL_SCALARS) for _ in range(n * n)])
        mp = minimal_polynomial(m)
        squarefree = poly_gcd(mp, mp.derivative()).degree() == 0
        assert is_semisimple(m) == squarefree


def _random_matrix(rng, n):
    return ExactMatrix(n, n, [rng.choice(SMALL_SCALARS) for _ in range(n * n)])


def test_det_is_multiplicative(rng):
    for _ in range(30):
        n = rng.randrange(2, 5)
        a = _random_matrix(rng, n)
        b = _random_matrix(rng, n)
        assert det(a * b) == det(a) * det(b)


# Gaussian-integer kernel: products and determinants must equal the plain
# GaussRat sums and elimination they replace, on every shape 0..8 and on
# entries with mixed, large, imaginary and zero parts.

_NUMERATORS = st.one_of(st.integers(-9, 9), st.integers(-(2**80), 2**80))
_DENOMINATORS = st.one_of(
    st.sampled_from([1, 2, 3, 4, 6, 12]), st.integers(1, 2**70)
)


@st.composite
def _kernel_scalars(draw):
    def part():
        return rational(draw(_NUMERATORS), draw(_DENOMINATORS))

    kind = draw(st.sampled_from(["zero", "real", "imaginary", "complex"]))
    if kind == "zero":
        return ZERO
    return GaussRat(
        part() if kind != "imaginary" else rational(0),
        part() if kind != "real" else rational(0),
    )


@st.composite
def _kernel_matrices(draw, rows, cols, scalars=_kernel_scalars):
    """rows x cols, with some zero rows and columns, and some rows made
    multiples of others so that square ones are often singular."""
    grid = [[draw(scalars()) for _ in range(cols)] for _ in range(rows)]
    if rows and cols:
        for i in draw(st.lists(st.integers(0, rows - 1), max_size=2)):
            grid[i] = [ZERO] * cols
        for j in draw(st.lists(st.integers(0, cols - 1), max_size=2)):
            for row in grid:
                row[j] = ZERO
        for i in draw(st.lists(st.integers(0, rows - 1), max_size=2)):
            src, f = draw(st.integers(0, rows - 1)), draw(scalars())
            grid[i] = [f * e for e in grid[src]]
    return ExactMatrix(rows, cols, [e for row in grid for e in row])


_SHAPE = st.integers(0, 8)


def _naive_product(a, b):
    flat = []
    for i in range(a.rows):
        for j in range(b.cols):
            s = ZERO
            for t in range(a.cols):
                s = s + a[i, t] * b[t, j]
            flat.append(s)
    return ExactMatrix(a.rows, b.cols, flat)


def _reference_det(a):
    """Elimination over GaussRat with first-nonzero pivoting: the
    determinant the echelon must match."""
    n = a.rows
    rows = [a.row_list(i) for i in range(n)]
    out = ONE
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if not rows[i][c].is_zero()), None)
        if pivot_row is None:
            return ZERO
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            out = -out
        pv = rows[c][c]
        out = out * pv
        inv = pv.inverse()
        for i in range(c + 1, n):
            f = rows[i][c]
            if not f.is_zero():
                f = f * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return out


@settings(max_examples=120, deadline=None)
@given(st.data(), _SHAPE, _SHAPE, _SHAPE)
def test_product_matches_naive_gaussrat_sums(data, n, k, m):
    a = data.draw(_kernel_matrices(n, k))
    b = data.draw(_kernel_matrices(k, m))
    assert a * b == _naive_product(a, b)
    vec = list(data.draw(_kernel_matrices(k, 1)).entries)
    assert a.mul_vector(vec) == list(_naive_product(a, ExactMatrix(k, 1, vec)).entries)


@settings(max_examples=120, deadline=None)
@given(st.data(), _SHAPE)
def test_det_matches_reference_elimination(data, n):
    a = data.draw(_kernel_matrices(n, n))
    assert det(a) == _reference_det(a)


def _signed_permutation(images):
    """The dense T with T e_k = s_k e_{i_k}, images[k] = (i_k, s_k)."""
    n = len(images)
    flat = [ZERO] * (n * n)
    for k, (i, sign) in enumerate(images):
        flat[i * n + k] = gr(sign)
    return ExactMatrix(n, n, flat)


@st.composite
def _signed_conjugations(draw):
    n = draw(st.integers(1, 8))
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    entries = draw(st.lists(st.sampled_from(SMALL_SCALARS), min_size=n * n, max_size=n * n))
    return ExactMatrix(n, n, entries), list(zip(perm, signs))


@settings(max_examples=100, deadline=None)
@given(_signed_conjugations())
def test_signed_conjugate_matches_dense_conjugation(case):
    m, images = case
    t = _signed_permutation(images)
    assert _signed_conjugate(m, images) == t * m * inverse(t)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.permutations(range(n)),
    st.lists(st.sampled_from((1, -1, I, -I)), min_size=n, max_size=n),
)))
def test_monomial_matches_dense_build(case):
    perm, units = case
    images = list(zip(perm, units))
    n = len(images)
    rows = [[ZERO] * n for _ in range(n)]
    for k, (i, s) in enumerate(images):
        rows[i][k] = s if isinstance(s, GaussRat) else gr(s)
    g = ExactMatrix.monomial(images)
    assert g == ExactMatrix.from_rows(rows)
    for k, (i, s) in enumerate(images):  # g e_k = s_k e_{i_k}
        assert g.column(k) == [s if r == i else ZERO for r in range(n)]


def test_signed_conjugate_identity_signs_and_permutation():
    m = ExactMatrix.from_rows([[1, I, gr("1/2")], [0, gr(1, -1), 2], [-1, 0, I]])
    assert _signed_conjugate(m, [(0, 1), (1, 1), (2, 1)]) == m
    # D M D with D = diag(-1, 1, -1)
    assert _signed_conjugate(m, [(0, -1), (1, 1), (2, -1)]) == ExactMatrix.from_rows(
        [[1, -I, gr("1/2")], [0, gr(1, -1), -2], [-1, 0, I]]
    )
    # e_0 -> e_2, e_1 -> e_0, e_2 -> e_1: entry (k, l) moves to (i_k, i_l)
    assert _signed_conjugate(m, [(2, 1), (0, 1), (1, 1)]) == ExactMatrix.from_rows(
        [[gr(1, -1), 2, 0], [0, I, -1], [I, gr("1/2"), 1]]
    )


def test_det_row_swaps_and_imaginary_pivots():
    # a zero leading entry forces a swap; imaginary pivots make the
    # echelon's divisions non-real
    a = ExactMatrix.from_rows([
        [ZERO, I, gr("1/2")],
        [gr(0, 2), ONE, gr(3, -1)],
        [gr("1/3"), gr(0, -5), I],
    ])
    assert det(a) == _reference_det(a)
    assert det(ExactMatrix.zeros(0)) == ONE
    assert det(ExactMatrix.from_rows([[ZERO, ONE], [ONE, ZERO]])) == gr(-1)


def _cycle_sign(perm):
    """(-1)^(n - number of cycles) of i -> perm[i]."""
    sign, seen = 1, set()
    for start in range(len(perm)):
        i = start
        while i not in seen:
            seen.add(i)
            i = perm[i]
            if i not in seen:
                sign = -sign
    return sign


def test_det_of_scaled_permutations_pins_both_orders(rng):
    """Every permutation matrix P up to 5x5, as D U P: rows scaled by
    nonzero Gaussian rationals (D) and some rows given extra entries by a
    unit upper triangular U, so that short rows are not all first and the
    echelon takes the rows in another order than given.  det = sign(P)
    times the product of the scales, whatever the two orders."""
    scales = [s for s in SMALL_SCALARS if not s.is_zero()] + [gr("-2/3", "5/7")]
    parities = set()
    for n in range(6):
        for perm in itertools.permutations(range(n)):
            d = [rng.choice(scales) for _ in range(n)]
            rows = []
            for i in range(n):
                row = [ZERO] * n
                row[perm[i]] = d[i]
                if rng.random() < 0.5:
                    for j in range(i + 1, n):  # d_i times row j of P
                        row[perm[j]] = d[i] * rng.choice(scales)
                rows.append(row)
            expected = ONE * _cycle_sign(perm)
            for s in d:
                expected = expected * s
            assert det(ExactMatrix.from_rows(rows)) == expected
            lengths = [sum(not e.is_zero() for e in row) for row in rows]
            order = sorted(range(n), key=lambda i: lengths[i])
            parities.add(_cycle_sign(order))
    assert parities == {1, -1}  # the row order was odd and even


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 2, I], [0, I, 4], [1, gr(2, 2), gr(8, 1)]],  # row 3 = row 1 + 2 row 2
        [[1, gr(2, 2), gr(8, 1)], [1, 2, I], [0, I, 4]],  # row 1 = row 2 + 2 row 3
        [[1, 2, I], [0, I, 4], [0, 0, 0]],  # a zero row, taken first
        [[0, 0, 0], [1, 2, I], [0, I, 4]],
        [[1, 2], [gr("1/2"), 1]],  # rows that clear to the same one
    ],
    ids=["dependent-last", "dependent-first", "zero-last", "zero-first", "scaled"],
)
def test_det_of_singular_matrices(rows):
    a = ExactMatrix.from_rows(rows)
    assert det(a) == ZERO
    assert det(a) == _reference_det(a)


# The fraction-free engine against the Gauss-Jordan elimination over
# GaussRat that it replaced: the reduced row echelon form is unique, so
# every solver must give the same exact values.


def _reference_sparse_rref(rows):
    """Sparse Gauss-Jordan over GaussRat on {column: value} rows
    (consumed): {pivot column: row with 1 there and no entry in the other
    pivot columns}."""
    pivots = {}

    def eliminate(row, c, prow):
        f = row.pop(c)
        for k, v in prow.items():
            if k != c:
                new = row.get(k, ZERO) - f * v
                if new.is_zero():
                    row.pop(k, None)
                else:
                    row[k] = new

    for row in sorted(rows, key=len):
        for c in [c for c in row if c in pivots]:
            eliminate(row, c, pivots[c])
        if not row:
            continue
        p = min(row)
        inv = row.pop(p).inverse()
        row = {k: v * inv for k, v in row.items()}
        for prow in pivots.values():
            if p in prow:
                eliminate(prow, p, row)
        row[p] = ONE
        pivots[p] = row
    return pivots


def _reference_rows(a, extra=()):
    """The rows of a as {column: value} maps, with extra[i] appended to
    row i as further columns."""
    out = []
    for i in range(a.rows):
        values = a.row_list(i) + (list(extra[i]) if extra else [])
        out.append({j: v for j, v in enumerate(values) if not v.is_zero()})
    return out


_WIDE_PARTS = st.one_of(
    st.integers(-9, 9),
    st.integers(2**70, 2**80),
    st.integers(-(2**80), -(2**70)),
)


@st.composite
def _wide_scalars(draw):
    """Zero, real, imaginary or complex, with small or 70-80-bit
    numerators and denominators."""
    def part():
        return rational(draw(_WIDE_PARTS), abs(draw(_WIDE_PARTS)) or 1)

    kind = draw(st.sampled_from(["zero", "real", "imaginary", "complex"]))
    if kind == "zero":
        return ZERO
    return GaussRat(
        part() if kind != "imaginary" else rational(0),
        part() if kind != "real" else rational(0),
    )


@st.composite
def _systems(draw):
    """(a, b): a of shape 0..10 x 0..10 with zero, duplicate and multiple
    rows; b = a x for a random x, or random (then often inconsistent)."""
    rows, cols = draw(st.integers(0, 10)), draw(st.integers(0, 10))
    a = draw(_kernel_matrices(rows, cols, _wide_scalars))
    if rows > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        grid = a.to_lists()
        grid[i] = list(grid[j])
        a = ExactMatrix(rows, cols, [e for row in grid for e in row])
    if draw(st.booleans()):
        b = a.mul_vector([draw(_wide_scalars()) for _ in range(cols)])
    else:
        b = [draw(_wide_scalars()) for _ in range(rows)]
    return a, b


@settings(max_examples=120, deadline=None)
@given(_systems())
def test_solvers_match_gaussrat_gauss_jordan(system):
    a, b = system
    n = a.cols
    pivots = _reference_sparse_rref(_reference_rows(a, [[v] for v in b]))
    if n in pivots:
        with pytest.raises(InconsistentSystem):
            solve_linear(a, b)
    else:
        particular = [ZERO] * n
        for p, row in pivots.items():
            particular[p] = row.get(n, ZERO)
        part, ker = solve_linear(a, b)
        assert part == particular
        assert ker == kernel(a)
    pivots = _reference_sparse_rref(_reference_rows(a))
    free = [f for f in range(n) if f not in pivots]
    expected = []
    for f in free:
        vec = [ZERO] * n
        vec[f] = ONE
        for p, row in pivots.items():
            vec[p] = -row.get(f, ZERO)
        expected.append(vec)
    assert kernel(a) == expected
    assert rank(a) == len(pivots)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(0, 10))
def test_inverse_matches_gaussrat_gauss_jordan(data, n):
    a = data.draw(_kernel_matrices(n, n, _wide_scalars))
    identity = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    pivots = _reference_sparse_rref(_reference_rows(a, identity))
    if any(c not in pivots for c in range(n)):
        with pytest.raises(SingularMatrix):
            inverse(a)
    else:
        expected = [pivots[i].get(n + j, ZERO) for i in range(n) for j in range(n)]
        assert inverse(a) == ExactMatrix(n, n, expected)


# A product keeps its rows over Z[i] and builds GaussRat entries only when
# they are read.  Every operation that reads or returns that form is
# compared with GaussRat arithmetic on plain lists, on matrices whose
# rows and columns carry different denominators.

_ROW_DENS = st.sampled_from([1, 2, 3, 5, 2**61 - 1])
_COL_DENS = st.sampled_from([1, 4, 9, 7, 3**40])
_PARTS = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(2**70), 2**70))


@st.composite
def _grids(draw, rows, cols):
    """A rows x cols list of lists of GaussRat: entry (i, j) is
    a / (r_i c_j) + b / r_i * i for row and column denominators r_i and
    c_j, with one row and one column often zero."""
    r = [draw(_ROW_DENS) for _ in range(rows)]
    c = [draw(_COL_DENS) for _ in range(cols)]
    zero_row = draw(st.integers(-1, rows - 1))
    zero_col = draw(st.integers(-1, cols - 1))
    return [
        [
            ZERO if zero_row == i or zero_col == j
            else GaussRat(rational(draw(_PARTS), r[i] * c[j]), rational(draw(_PARTS), r[i]))
            for j in range(cols)
        ]
        for i in range(rows)
    ]


def _grid_product(a, b, cols):
    inner = len(b)
    return [
        [sum((row[t] * b[t][j] for t in range(inner)), ZERO) for j in range(cols)]
        for row in a
    ]


def _as_matrix(grid, cols):
    return ExactMatrix(len(grid), cols, [e for row in grid for e in row])


def _check_against_grid(got, grid, cols):
    """got (from products) holds the values of grid: entries, equality and
    hash, transpose and negation in both forms."""
    flat = tuple(e for row in grid for e in row)
    built = _as_matrix(grid, cols)
    assert got.entries == flat
    assert got == built and hash(got) == hash(built)
    assert got.is_zero() == built.is_zero() == all(e.is_zero() for e in flat)
    transposed = tuple(grid[i][j] for j in range(cols) for i in range(len(grid)))
    assert got.transpose().entries == built.transpose().entries == transposed
    assert (-got).entries == (-built).entries == tuple(-e for e in flat)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
def test_cleared_rows_match_gaussrat_reference(data, n, k, l, m):
    a, b, c = data.draw(_grids(n, k)), data.draw(_grids(k, l)), data.draw(_grids(l, m))
    ma, mb, mc = _as_matrix(a, k), _as_matrix(b, l), _as_matrix(c, m)
    ab = _grid_product(a, b, l)
    abc = _grid_product(ab, c, m)
    _check_against_grid(ma * mb, ab, l)
    _check_against_grid(ma * mb * mc, abc, m)
    _check_against_grid(ma * (mb * mc), abc, m)
    if n and l:  # 1 x k and k x 1 factors
        _check_against_grid(_as_matrix(a[:1], k) * mb, ab[:1], l)
        column = [[row[0]] for row in b]
        _check_against_grid(ma * _as_matrix(column, 1), _grid_product(a, column, 1), 1)
    vec = data.draw(_grids(1, l))[0]
    expected = [e for row in _grid_product(ab, [[v] for v in vec], 1) for e in row]
    assert (ma * mb).mul_vector(vec) == expected


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(0, 6))
def test_eliminations_read_cleared_rows(data, n):
    """det, inverse and kernel give the reference's values whether their
    input holds entries or only the cleared rows of a product."""
    a = _as_matrix(data.draw(_grids(n, n)), n)
    product = a * ExactMatrix.identity(n)
    assert det(product) == det(a) == _reference_det(a)
    pivots = _reference_sparse_rref(_reference_rows(a))
    expected = []
    for f in (f for f in range(n) if f not in pivots):
        vec = [ZERO] * n
        vec[f] = ONE
        for p, row in pivots.items():
            vec[p] = -row.get(f, ZERO)
        expected.append(vec)
    assert kernel(product) == kernel(a) == expected
    if len(pivots) < n:
        with pytest.raises(SingularMatrix):
            inverse(product)
        return
    identity = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    pivots = _reference_sparse_rref(_reference_rows(a, identity))
    flat = tuple(pivots[i].get(n + j, ZERO) for i in range(n) for j in range(n))
    assert inverse(product).entries == inverse(a).entries == flat


def test_product_chain_clears_each_factor_once(monkeypatch):
    """In x * (x * (x * y)) the rows of x and of y are cleared once each,
    and no product is cleared again: the products read one another's
    Gaussian-integer rows."""
    from adjreal import matrix

    calls = []
    original = matrix._cleared

    def spy(values):
        calls.append(tuple(values))
        return original(values)

    monkeypatch.setattr(matrix, "_cleared", spy)
    x = ExactMatrix.from_rows([[gr("1/2"), I], [gr(3, "2/3"), gr(-1)]])
    y = ExactMatrix.from_rows([[gr("5/7"), ZERO], [gr(0, "1/3"), gr(4)]])
    out = x * (x * (x * y))
    assert sorted(calls, key=repr) == sorted(
        [tuple(x.row_list(i)) for i in range(2)] + [tuple(y.row_list(i)) for i in range(2)],
        key=repr,
    )
    calls.clear()
    transposed = out.transpose()
    assert (out.entries, transposed.entries, calls) == (
        tuple(_naive_product(x, _naive_product(x, _naive_product(x, y))).entries),
        tuple(e for j in range(2) for e in out.column(j)),
        [],
    )


_RESCALE = [gr(1), gr(2), gr("1/3"), gr("5/7"), gr(1, 1), gr("1/2", "-3/4")]


@st.composite
def _square_matrices(draw):
    """Derogatory conjugated Jordan forms (scalar, zero, 1 x 1 and 0 x 0
    among them) or dense matrices, with real, imaginary and mixed entries,
    then conjugated by a diagonal D (X -> D X D^-1) so that the rows carry
    distinct denominators."""
    if draw(st.booleans()):
        x = draw(conjugated_jordan_matrices(max_size=6))
    else:
        n = draw(st.integers(0, 6))
        x = ExactMatrix(n, n, draw(st.lists(
            st.sampled_from(SMALL_SCALARS), min_size=n * n, max_size=n * n
        )))
    n = x.rows
    d = [draw(st.sampled_from(_RESCALE)) for _ in range(n)]
    return ExactMatrix(n, n, [x[i, j] * d[i] / d[j] for i in range(n) for j in range(n)])


_EDGE_MATRICES = [
    ExactMatrix.zeros(0),
    ExactMatrix.zeros(1),
    ExactMatrix.from_rows([[gr("5/3", -2)]]),
    ExactMatrix.zeros(3),
    ExactMatrix.diagonal([gr("1/2", 1)] * 4),
]


def _with_edge_examples(test):
    for x in _EDGE_MATRICES:
        test = example(x)(test)
    return test


_COUNTED_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__truediv__", "__rtruediv__", "inverse")


@settings(max_examples=120, deadline=None)
@_with_edge_examples
@given(_square_matrices())
def test_hessenberg_input_needs_no_inverse(x):
    """hessenberg makes no scalar inverse and no other GaussRat
    arithmetic, and returns an upper Hessenberg matrix whose subdiagonal
    holds only 0 and 1."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in _COUNTED_OPS:
            original = getattr(GaussRat, name)

            def counting(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            mp.setattr(GaussRat, name, counting)
        h = hessenberg(x)
    assert calls == []
    n = x.rows
    assert (h.rows, h.cols) == (n, n)
    assert all(h[i, j].is_zero() for i in range(n) for j in range(i - 1))
    assert all(h[i + 1, i] in (ZERO, ONE) for i in range(n - 1))


def _krylov_basis(x):
    """The columns e_s, X e_s, ... up to the first dependence, for each
    unit vector e_s not yet in their span, found by rank tests."""
    n, span = x.rows, []
    for s in range(n):
        v = [ONE if i == s else ZERO for i in range(n)]
        while rank(ExactMatrix.from_rows(span + [v])) > len(span):
            span.append(v)
            v = x.mul_vector(v)
    return ExactMatrix.from_columns(span)


@settings(max_examples=120, deadline=None)
@_with_edge_examples
@given(_square_matrices())
def test_hessenberg_is_similar_through_the_krylov_basis(x):
    """X P = P H with det P != 0: H = P^-1 X P."""
    p = _krylov_basis(x)
    assert not det(p).is_zero()
    assert x * p == p * hessenberg(x)


def _elimination_char_poly(x):
    """det(tI - X) by elementary similarities to upper Hessenberg form
    over Q(i), then the recurrence over its leading blocks."""
    n, h = x.rows, x.to_lists()
    for k in range(n - 2):
        p = next((i for i in range(k + 1, n) if not h[i][k].is_zero()), None)
        if p is None:
            continue
        h[p], h[k + 1] = h[k + 1], h[p]
        for row in h:
            row[p], row[k + 1] = row[k + 1], row[p]
        inv = h[k + 1][k].inverse()
        for i in range(k + 2, n):
            u = h[i][k] * inv
            for j in range(n):
                h[i][j] = h[i][j] - u * h[k + 1][j]
            for row in h:
                row[k + 1] = row[k + 1] + u * row[i]
    polys = [[ONE]]
    for k in range(n):
        nxt = [ZERO] + polys[k]
        for j, c in enumerate(polys[k]):
            nxt[j] = nxt[j] - h[k][k] * c
        sub = ONE
        for i in range(k - 1, -1, -1):
            sub = sub * h[i + 1][i]
            for j, c in enumerate(polys[i]):
                nxt[j] = nxt[j] - h[i][k] * sub * c
        polys.append(nxt)
    return ExactPoly(polys[n])


@settings(max_examples=120, deadline=None)
@_with_edge_examples
@given(_square_matrices())
def test_char_poly_matches_elimination(x):
    assert char_poly(x) == _elimination_char_poly(x)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_hessenberg_and_char_poly_refuse_non_square(rows, cols, data):
    assume(rows != cols)
    x = ExactMatrix(rows, cols, data.draw(st.lists(
        st.sampled_from(SMALL_SCALARS), min_size=rows * cols, max_size=rows * cols
    )))
    with pytest.raises(SizeMismatch):
        hessenberg(x)
    with pytest.raises(SizeMismatch):
        char_poly(x)


def test_kernel_shape_errors():
    a, b = ExactMatrix.zeros(2, 3), ExactMatrix.zeros(2, 3)
    with pytest.raises(SizeMismatch):
        a * b
    with pytest.raises(SizeMismatch):
        a.mul_vector([ONE, ONE])
    with pytest.raises(SizeMismatch):
        det(a)
    for chi in (None, ExactPoly.one()):
        with pytest.raises(SizeMismatch):
            is_semisimple(a, chi)
        with pytest.raises(SizeMismatch):
            is_semisimple(a.transpose(), chi)


def test_invariant_factor_chain_and_product(rng):
    for _ in range(30):
        n = rng.randrange(2, 5)
        m = _random_matrix(rng, n)
        facs = invariant_factors(m)
        assert len(facs) == n
        prod = ExactPoly.one()
        for k in range(n - 1):
            assert (facs[k + 1] % facs[k]).is_zero()
        for f in facs:
            assert f.leading() == ONE
            prod = prod * f
        assert prod == char_poly(m)


def test_similarity_agrees_with_cyclic_oracle(rng):
    agree = 0
    for _ in range(60):
        m = _random_matrix(rng, 4)
        assert similar_to_negative(m) == rcf_similar(m, -m)
        agree += 1
    assert agree == 60


def test_inverse_and_kernel():
    a = ExactMatrix.from_rows([[1, 2], [3, 4]])
    assert a * inverse(a) == ExactMatrix.identity(2)
    b = ExactMatrix.from_rows([[1, 2], [2, 4]])
    ker = kernel(b)
    assert len(ker) == 1
    assert b.mul_vector(ker[0]) == [ZERO, ZERO]


def test_eval_poly_cayley_hamilton(rng):
    for _ in range(10):
        m = _random_matrix(rng, 3)
        assert eval_poly(char_poly(m), m).is_zero()


def test_poly_matrix_smith_on_characteristic_matrix():
    m = ExactMatrix.from_rows([[1, 1], [0, 1]])
    facs = smith_invariant_factors(PolyMatrix.characteristic(m))
    x = ExactPoly.x_power(1)
    assert facs == [ExactPoly.one(), (x - ExactPoly.one()) * (x - ExactPoly.one())]


def test_matrix_json_round_trip():
    m = ExactMatrix.from_rows([[gr("1/2"), I], [-I, gr(3)]])
    assert ExactMatrix.from_json(m.to_json()) == m
