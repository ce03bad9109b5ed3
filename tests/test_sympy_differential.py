"""Differential checks against an independent exact oracle: sympy's
DomainMatrix over QQ_I.  Skipped when sympy is not installed."""

import pytest

sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy import QQ, QQ_I, Poly, Symbol  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.matrices.normalforms import (  # noqa: E402
    invariant_factors as sympy_invariant_factors,
)

from adjreal.gaussian import ONE, ZERO, GaussRat, gr, rational  # noqa: E402
from adjreal.liecore import LieContext, algebra_member  # noqa: E402
from adjreal.matrix import (  # noqa: E402
    ExactMatrix,
    _rref,
    _sparse_rows,
    char_poly,
    det,
    eval_poly,
    hessenberg,
    invariant_factors,
    is_semisimple,
    kernel,
    rank,
)
from adjreal.oracle import rcf_invariant_factors  # noqa: E402
from adjreal.polynomial import (  # noqa: E402
    ExactPoly,
    linear_roots,
    poly_gcd,
    squarefree_part,
)
from adjreal.symplectic import (  # noqa: E402
    chain_decomposition,
    nilpotent_from_partition,
    symplectic_partitions,
)
from conftest import conjugated_jordan_matrices  # noqa: E402

# zero, real, purely imaginary and mixed entries of low height
ENTRIES = [
    gr(0), gr(1), gr(-1), gr(2), gr(0, 1), gr(0, -1), gr(0, 3),
    gr("1/2"), gr("-3/2"), gr(1, -1), gr(rational(1, 3), rational(-2)),
]


@st.composite
def matrices(draw, max_size=8):
    n = draw(st.integers(1, max_size))
    rows = [
        [draw(st.sampled_from(ENTRIES)) for _ in range(n)] for _ in range(n)
    ]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        rows[i] = [gr(0)] * n
    return ExactMatrix.from_rows(rows)


@st.composite
def rectangular_matrices(draw):
    """Any shape up to 7x7, with some rows replaced by multiples of others
    so that the rank often falls below min(rows, cols)."""
    r, c = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    rows = [[draw(st.sampled_from(ENTRIES)) for _ in range(c)] for _ in range(r)]
    for i in draw(st.lists(st.integers(0, r - 1), max_size=3)):
        j = draw(st.integers(0, r - 1))
        f = draw(st.sampled_from(ENTRIES))
        rows[i] = [f * e for e in rows[j]]
    return ExactMatrix.from_rows(rows)


def _to_qqi(v: GaussRat):
    return QQ_I(
        QQ(v.re.numerator, v.re.denominator), QQ(v.im.numerator, v.im.denominator)
    )


def _from_qqi(c) -> GaussRat:
    return GaussRat(
        rational(int(c.x.numerator), int(c.x.denominator)),
        rational(int(c.y.numerator), int(c.y.denominator)),
    )


def _domain_matrix(m: ExactMatrix):
    rows = [[_to_qqi(e) for e in m.row_list(i)] for i in range(m.rows)]
    return DomainMatrix(rows, (m.rows, m.cols), QQ_I)


@settings(max_examples=80, deadline=None)
@given(rectangular_matrices())
def test_rank_and_nullity_match_sympy(m):
    expected = _domain_matrix(m).rank()
    assert rank(m) == expected
    basis = kernel(m)
    assert len(basis) == m.cols - expected
    assert all(e.is_zero() for v in basis for e in m.mul_vector(v))


@settings(max_examples=80, deadline=None)
@given(rectangular_matrices())
def test_rref_matches_sympy(m):
    """The fraction-free Gaussian-integer RREF, each stored entry divided
    by the common denominator, is sympy's RREF over QQ_I."""
    expected, pivots = _domain_matrix(m).rref()
    echelon = _rref(_sparse_rows(m))
    assert sorted(echelon.pivots) == list(pivots)
    rows = []
    for p in sorted(echelon.pivots):
        row = [ZERO] * m.cols
        row[p] = ONE
        for k, z in echelon.pivots[p].items():
            row[k] = echelon.value(z)
        rows.append(row)
    rows.extend([ZERO] * m.cols for _ in range(m.rows - len(rows)))
    assert rows == [[_from_qqi(c) for c in row] for row in expected.to_list()]


# Gaussian rationals with up to 8-bit parts and denominators up to 12
GAUSS_RATS = st.builds(
    lambda a, b, d: GaussRat(rational(a, d), rational(b, d)),
    st.integers(-200, 200), st.integers(-200, 200), st.integers(1, 12),
)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(GAUSS_RATS, max_size=4),
    st.lists(st.sampled_from(ENTRIES), min_size=1, max_size=3),
    GAUSS_RATS.filter(bool),
)
def test_linear_roots_match_sympy_linear_factors(roots, cofactor, lead):
    """The roots of a non-monic product, with multiplicity, are those of
    sympy's linear factors over QQ_I, and the cofactor is its leading
    coefficient times the other factors."""
    cofactor = ExactPoly(cofactor)
    p = ExactPoly.from_roots(roots) * (cofactor if cofactor.coeffs else ExactPoly.one()).scale(lead)
    coeff, factors = Poly.from_list(
        [_to_qqi(c) for c in reversed(p.coeffs)], Symbol("t"), domain=QQ_I
    ).factor_list()
    expected, rest = [], ExactPoly.constant(_from_qqi(QQ_I.from_sympy(coeff)))
    for f, mult in factors:
        g = ExactPoly([_from_qqi(c) for c in reversed(f.rep.to_list())])
        for _ in range(mult):
            if g.degree() == 1:
                expected.append(-g[0] / g[1])
            else:
                rest = rest * g
    assert linear_roots(p) == (sorted(expected, key=GaussRat.lex_key), rest)


def _sympy_poly(p: ExactPoly):
    return Poly.from_list([_to_qqi(c) for c in reversed(p.coeffs)], Symbol("t"), domain=QQ_I)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(ENTRIES), min_size=1, max_size=4),
    st.lists(st.sampled_from(ENTRIES), min_size=1, max_size=4),
    st.lists(st.sampled_from(ENTRIES), min_size=1, max_size=4),
    st.sampled_from([gr(1), gr(1, 1) ** 5, gr(2, 1) ** 4, gr(rational(3, 7), -2)]),
)
def test_poly_gcd_matches_sympy(shared, a, b, content):
    """poly_gcd of products sharing a factor equals sympy's monic gcd over
    QQ_I."""
    f, a, b = ExactPoly(shared), ExactPoly(a), ExactPoly(b)
    p, q = (f * a).scale(content), f * f * b
    expected = _sympy_poly(p).gcd(_sympy_poly(q))
    if not expected.is_zero:
        expected = expected.monic()
    assert poly_gcd(p, q) == ExactPoly([_from_qqi(c) for c in reversed(expected.rep.to_list())])


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_char_poly_matches_sympy(m):
    expected = [_from_qqi(c) for c in reversed(_domain_matrix(m).charpoly())]
    assert list(char_poly(m).coeffs) == expected


@settings(max_examples=40, deadline=None)
@given(matrices(max_size=6), st.lists(st.sampled_from(ENTRIES), max_size=6))
def test_eval_poly_matches_sympy_powers(m, coeffs):
    dm = _domain_matrix(m)
    total = dm * QQ_I(0)
    for k, c in enumerate(coeffs):
        total = total + dm**k * _to_qqi(c)
    expected = [[_from_qqi(e) for e in row] for row in total.to_list()]
    assert eval_poly(ExactPoly(coeffs), m).to_lists() == expected


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_eval_poly_annihilates_by_cayley_hamilton(m):
    assert eval_poly(char_poly(m), m).is_zero()


@st.composite
def split_matrices(draw):
    """Block-diagonal matrices, so the Hessenberg form splits into several
    blocks: dense blocks, Jordan blocks (upper or lower) with eigenvalues
    repeated across blocks, and zeroed columns."""
    eigen = draw(st.lists(st.sampled_from(ENTRIES[:7]), min_size=1, max_size=2))
    blocks = []
    for _ in range(draw(st.integers(2, 4))):
        kind = draw(st.sampled_from(["dense", "jordan", "jordan-lower"]))
        if kind == "dense":
            blocks.append(draw(matrices(max_size=3)))
            continue
        size = draw(st.integers(1, 3))
        lam = draw(st.sampled_from(eigen))
        rows = [[gr(0)] * size for _ in range(size)]
        for k in range(size):
            rows[k][k] = lam
            if k + 1 < size:
                if kind == "jordan":
                    rows[k][k + 1] = gr(1)
                else:
                    rows[k + 1][k] = gr(1)
        blocks.append(ExactMatrix.from_rows(rows))
    x = ExactMatrix.block_diagonal(blocks)
    rows = x.to_lists()
    for j in draw(st.lists(st.integers(0, x.rows - 1), max_size=2)):
        for row in rows:
            row[j] = gr(0)
    return ExactMatrix.from_rows(rows)


@settings(max_examples=80, deadline=None)
@given(split_matrices())
def test_block_start_semisimplicity_and_hessenberg_form(m):
    assert is_semisimple(m) == eval_poly(squarefree_part(char_poly(m)), m).is_zero()
    h = hessenberg(m)
    assert all(h[i, j].is_zero() for i in range(h.rows) for j in range(i - 1))
    expected = [_from_qqi(c) for c in reversed(_domain_matrix(m).charpoly())]
    assert list(char_poly(h).coeffs) == expected


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_det_matches_sympy(m):
    assert det(m) == _from_qqi(_domain_matrix(m).det())


@settings(max_examples=40, deadline=None)
@given(split_matrices())
def test_invariant_factors_match_sympy(m):
    """The invariant factors of tI - X, against sympy's Smith form over
    QQ_I[t]; split matrices give nontrivial ones."""
    assert invariant_factors(m) == _sympy_invariant_factors(m)


@settings(max_examples=60, deadline=None)
@given(conjugated_jordan_matrices(min_size=1))
def test_krylov_invariant_factors_match_sympy(m):
    """The cyclic-decomposition route on derogatory matrices (shared
    eigenvalues, scalar and zero matrices, imaginary entries)."""
    assert rcf_invariant_factors(m) == _sympy_invariant_factors(m)


def _sympy_invariant_factors(m: ExactMatrix):
    """sympy's invariant factors of tI - X over QQ_I[t], monic."""
    ring = QQ_I[Symbol("t")]
    t = ring.gens[0]
    char = [
        [(t if i == j else ring.zero) - ring.convert(_to_qqi(m[i, j]))
         for j in range(m.cols)]
        for i in range(m.rows)
    ]
    theirs = sympy_invariant_factors(DomainMatrix(char, (m.rows, m.rows), ring))
    return [
        ExactPoly([_from_qqi(c) for c in reversed(f.monic().to_dense())])
        for f in theirs
    ]


def _symplectic_transvection(n, v, c):
    """I + c v (v^T J) for the standard form J, which preserves J."""
    vj = [v[k + n] if k < n else -v[k - n] for k in range(2 * n)]
    return ExactMatrix.from_rows(
        [[(ONE if i == j else ZERO) + c * v[i] * vj[j] for j in range(2 * n)]
         for i in range(2 * n)]
    )


@st.composite
def conjugated_nilpotents(draw):
    """(partition, X): nilpotent_from_partition conjugated by one or two
    symplectic transvections (one from 2n = 8 on), so X stays in sp(n)
    but is not in model form.  Partitions of 2n <= 12 with a part above 1
    (X = 0 has no chains)."""
    parts = draw(st.sampled_from([
        p for total in (2, 4, 6, 8, 10, 12) for p in symplectic_partitions(total)
        if p[0] > 1
    ]))
    x = nilpotent_from_partition(parts)
    n = x.rows // 2
    for _ in range(1 if n >= 4 else draw(st.integers(1, 2))):
        v = [draw(st.sampled_from(ENTRIES)) for _ in range(2 * n)]
        x = (_symplectic_transvection(n, v, ONE) * x
             * _symplectic_transvection(n, v, -ONE))
    return parts, x


@settings(max_examples=25, deadline=None)
@given(conjugated_nilpotents())
def test_chain_partition_matches_sympy_jordan_blocks(case):
    """The chain lengths are the Jordan block sizes, which sympy's ranks
    of X^k give: rank X^(k-1) - rank X^k blocks have size at least k."""
    parts, x = case
    assert algebra_member(x, LieContext("sp", "Sp", x.rows // 2))
    dm = _domain_matrix(x)
    ranks = [x.rows]
    power = DomainMatrix.eye(x.rows, QQ_I)
    while ranks[-1]:
        power = power * dm
        ranks.append(power.rank())
    at_least = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    blocks = []
    for k, count in enumerate(at_least, start=1):
        following = at_least[k] if k < len(at_least) else 0
        blocks.extend([k] * (count - following))
    assert sorted(blocks, reverse=True) == list(parts)
    chains = chain_decomposition(x).partition()
    assert sorted(chains, reverse=True) == sorted(blocks, reverse=True)
