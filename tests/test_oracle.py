"""Cross-checks: cyclic canonical forms, bounded search, obstruction
identities checked on exact matrices over a grid."""

import time

import pytest
from hypothesis import given, settings

from adjreal.certificates import verify_certificate
from adjreal.errors import InconsistentSystem, SearchSpaceTooLarge
from adjreal.gaussian import GaussRat, I, ONE, ZERO, gr
from adjreal.liecore import LieContext, so_block
from adjreal.matrix import (
    ExactMatrix,
    _krylov_echelon,
    char_poly,
    det,
    eigenspaces,
    invariant_factors,
    inverse,
    solve_linear,
)
from adjreal import matrix
from adjreal.oracle import (
    _StructuredInapplicable,
    _cleared_columns,
    _coprime_split,
    _poly_on_vector,
    _structured_involutions,
    enumerate_involutive_reversers,
    height_pool,
    height_pool_size,
    involution_determinant_census,
    rcf_invariant_factors,
    rcf_similar,
    search_reverser,
    sp1_involution_obstruction,
)
from adjreal.polynomial import ExactPoly, poly_gcd, poly_lcm

from conftest import SMALL_SCALARS, conjugated_jordan_matrices
from test_semisimple import _J2, _ROOT2, _companion, _dense_sl


def test_rcf_similar_diagonal_permutation():
    assert rcf_similar(ExactMatrix.diagonal([1, -1]), ExactMatrix.diagonal([-1, 1]))


def test_rcf_distinguishes_nilpotent_types():
    n2 = ExactMatrix.from_rows([[0, 1], [0, 0]])
    assert not rcf_similar(n2, ExactMatrix.zeros(2))


def test_rcf_conjugation_invariance(rng):
    for _ in range(15):
        n = rng.randrange(2, 5)
        a = ExactMatrix(n, n, [rng.choice(SMALL_SCALARS) for _ in range(n * n)])
        p = ExactMatrix.identity(n)
        for _ in range(3):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                p = p * ExactMatrix.identity(n).with_entry(i, j, rng.choice([ONE, -ONE, I]))
        assert rcf_similar(p * a * inverse(p), a)


def test_rcf_agrees_with_smith_factors(rng):
    for _ in range(40):
        n = rng.randrange(2, 6)
        a = ExactMatrix(n, n, [rng.choice(SMALL_SCALARS) for _ in range(n * n)])
        assert rcf_invariant_factors(a) == invariant_factors(a)


def _local_min_poly(a, v):
    """Minimal monic p with p(a) v = 0: the first Krylov dependence."""
    return _krylov_echelon(_cleared_columns(a), v)[1]


def _reference_local_min_poly(a, v):
    """The earlier local minimal polynomial: one full solve of the Krylov
    system per step.  For v = 0 it returns t, which is not minimal."""
    vecs = [list(v)]
    while True:
        nxt = a.mul_vector(vecs[-1])
        try:
            coeffs, _ = solve_linear(ExactMatrix.from_columns(vecs), nxt)
        except InconsistentSystem:
            vecs.append(nxt)
            continue
        return ExactPoly([-c for c in coeffs] + [ONE])


def _apply_poly(p, a, v):
    """p(a) v by Horner."""
    out = [ZERO] * len(v)
    for c in reversed(p.coeffs):
        out = [x + c * y for x, y in zip(a.mul_vector(out), v)]
    return out


def test_local_min_poly_matches_reference(rng):
    """On nonzero random vectors and on eigenvectors (local polynomial
    t - lambda); v = 0, where the reference is wrong, is tested below."""
    x = ExactMatrix.diagonal([gr(2), gr(2), -I, gr(0)])
    cases = [(x, v) for _, basis in eigenspaces(x, char_poly(x)) for v in basis]
    for _ in range(40):
        n = rng.randrange(1, 7)
        # a shared eigenvalue and a Jordan block make many vectors non-cyclic
        a = ExactMatrix.block_diagonal([
            ExactMatrix.from_rows([[ONE, ONE], [ZERO, ONE]]),
            ExactMatrix.diagonal([ONE] + [rng.choice(SMALL_SCALARS) for _ in range(n - 1)]),
        ])
        cases.append((a, [rng.choice(SMALL_SCALARS) for _ in range(n + 2)]))
        cases.extend((a, v) for _, basis in eigenspaces(a, char_poly(a)) for v in basis)
    for a, v in cases:
        if all(e.is_zero() for e in v):
            continue
        p = _local_min_poly(a, v)
        assert p == _reference_local_min_poly(a, v)
        assert all(e.is_zero() for e in _apply_poly(p, a, v))


def test_poly_on_vector_matches_gaussrat_horner(rng):
    """p(A) v by Horner on cleared Gaussian-integer vectors equals Horner
    over GaussRat, with fractional and imaginary entries and
    coefficients."""
    pool = SMALL_SCALARS + [gr("1/3"), gr(0, "2/5"), gr("-7/4", "1/6")]
    for _ in range(40):
        n = rng.randrange(1, 6)
        a = ExactMatrix(n, n, [rng.choice(pool) for _ in range(n * n)])
        v = [rng.choice(pool) for _ in range(n)]
        p = ExactPoly([rng.choice(pool) for _ in range(rng.randrange(0, 5))] + [ONE])
        assert _poly_on_vector(p, _cleared_columns(a), v) == _apply_poly(p, a, v)


def test_local_min_poly_of_zero_vector_is_one():
    a = ExactMatrix.from_rows([[1, 2], [3, 4]])
    assert _local_min_poly(a, [ZERO, ZERO]) == ExactPoly.one()


@settings(max_examples=150, deadline=None)
@given(conjugated_jordan_matrices())
def test_rcf_agrees_with_smith_on_derogatory_matrices(x):
    assert rcf_invariant_factors(x) == invariant_factors(x)


def test_rcf_dense_sl16_is_cyclic():
    x = _dense_sl(16)
    assert rcf_invariant_factors(x) == [ExactPoly.one()] * 15 + [char_poly(x)]


def test_coprime_split():
    x = ExactPoly.x_power(1)
    one = ExactPoly.one()
    a = (x - one) * (x - one) * (x + one)
    b = (x - one) * (x + one) * (x + one) * (x + one)
    a1, b1 = _coprime_split(a, b)
    assert poly_gcd(a1, b1).degree() == 0
    assert (a % a1).is_zero()
    assert (b % b1).is_zero()
    assert (a1 * b1).monic() == poly_lcm(a, b)


def test_height_pool_counts_and_order():
    p1 = height_pool(1)
    assert len(p1) == 9
    assert p1[0].is_zero()
    assert p1[1] == ONE
    p2 = height_pool(2)
    assert len(p2) == 49
    assert all(v in p2 for v in p1)
    assert [height_pool_size(h) for h in range(1, 6)] == [
        len(height_pool(h)) for h in range(1, 6)
    ]


@pytest.mark.parametrize("involution", [False, True])
def test_search_limit_is_checked_before_the_pool_is_built(involution):
    """At height 200 the pool would hold about 2.4e9 scalars; the search
    must refuse from its size alone."""
    x = ExactMatrix.diagonal([1, -1])
    start = time.perf_counter()
    with pytest.raises(SearchSpaceTooLarge):
        search_reverser(x, LieContext("sl", "SL", 2), 200, involution)
    assert time.perf_counter() - start < 1.0


def test_search_finds_plain_reverser_rank_two():
    x = ExactMatrix.diagonal([gr(3), gr(-3)])
    out = search_reverser(x, LieContext("sl", "SL", 2), 1, False)
    assert out.found
    g = out.certificate.reverser
    assert g[0, 0].is_zero() and g[1, 1].is_zero()
    assert verify_certificate(out.certificate).ok


def test_search_involution_exhausts_in_rank_one_symplectic():
    x = ExactMatrix.diagonal([gr(3), gr(-3)])
    out = search_reverser(x, LieContext("sp", "Sp", 1), 3, True)
    assert not out.found
    assert out.note.startswith("exhausted")
    assert out.candidates_checked > 0


def test_search_finds_orthogonal_involution():
    x = so_block(gr(2))
    out = search_reverser(x, LieContext("so", "O", 2), 2, True)
    assert out.found
    assert det(out.certificate.reverser) == -ONE
    assert verify_certificate(out.certificate).ok
    # the classical diagonal witness is in the enumerated family
    assert any(
        r == ExactMatrix.diagonal([1, -1])
        for r in enumerate_involutive_reversers(x, 2)
    )


def test_search_special_orthogonal_exhausts():
    x = so_block(gr(2))
    out = search_reverser(x, LieContext("so", "SO", 2), 2, True)
    assert not out.found


def test_search_space_guard():
    x = ExactMatrix.zeros(3)  # anticommutant is all of gl(3): 9 dims
    with pytest.raises(SearchSpaceTooLarge):
        search_reverser(x, LieContext("gl", "GL", 3), 2, False)


@pytest.mark.parametrize(
    "x, checked",
    [
        (ExactMatrix.block_diagonal([_J2, -_J2]), 83),
        (ExactMatrix.block_diagonal([ExactMatrix.diagonal([1, -1]), _ROOT2]), 812),
        (_companion([4, 0, -4, 0]), 2),
    ],
    ids=["not-diagonalizable", "not-split", "neither"],
)
def test_structured_search_refuses_without_horner(monkeypatch, x, checked):
    """A non-diagonalizable X or an irrational spectrum sends the involution
    search from the eigenspace enumeration to the general scan; the
    eigenspaces decide both, and the Horner test never runs."""
    def horner(*args):
        raise AssertionError("is_semisimple called")

    monkeypatch.setattr(matrix, "is_semisimple", horner)
    with pytest.raises(_StructuredInapplicable):
        next(_structured_involutions(x, 1, 300000))
    out = search_reverser(x, LieContext("sl", "SL", 4), 1, True)
    assert out.found and out.candidates_checked == checked
    assert verify_certificate(out.certificate).ok


def test_census_rank_two():
    x = ExactMatrix.diagonal([gr(3), gr(-3)])
    count, dets, samples = involution_determinant_census(x, 2)
    assert count == 48  # nonzero pool elements at height 2
    assert dets == {GaussRat.from_int(-1)}
    assert samples >= 1


def test_census_covers_multiplicity_blocks():
    x = ExactMatrix.diagonal([gr(3), gr(3), gr(-3), gr(-3)])
    count, dets, samples = involution_determinant_census(x, 1)
    assert count > 0
    assert dets == {GaussRat.from_int(1)}  # two pair dimensions: (-1)^2


def test_sp1_obstruction_record():
    rec = sp1_involution_obstruction()
    assert rec.passed
    names = [name for name, _ in rec.checks]
    assert any("det g = -bc" in n for n in names)
    assert any("g^2 + det(g) I" in n for n in names)


def test_sp1_obstruction_json_is_pinned():
    assert sp1_involution_obstruction().to_json() == {
        "name": "sp1-involution-obstruction",
        "passed": True,
        "checks": [
            {"check": "det g = -bc as a polynomial identity", "ok": True},
            {"check": "g^2 = bc * I as a polynomial identity", "ok": True},
            {"check": "g^2 + det(g) I = 0 on the whole family", "ok": True},
            {"check": "at (b,c) = (1,-1): det 1 and g^2 = -I", "ok": True},
            {"check": "at (b,c) = (2,1): det -2, outside the group", "ok": True},
        ],
    }


def test_so2_obstruction_record():
    """The rank-two rotation dichotomy: on the family
    g = a diag(1,-1) + b (E12 + E21) (the anticommutant of the canonical
    rotation block), g^t g = (a^2 + b^2) I and det g = -(a^2 + b^2); an
    orthogonal member therefore always has determinant -1, so none lies
    in the special orthogonal group.

    Both identities are checked on exact matrices at the nine points
    (a, b) of {0, 1, 2}^2.  Every entry of g^t g, det g and a^2 + b^2 has
    degree at most 2 in a and in b, and a polynomial of degree at most 2
    in each variable that vanishes on a 3 x 3 grid is zero, so the grid
    proves them on the whole family."""
    for a in range(3):
        for b in range(3):
            g = ExactMatrix(2, 2, [a, b, b, -a])
            norm = a * a + b * b
            assert g.transpose() * g == ExactMatrix.identity(2).scale(norm)
            assert det(g) == -norm


def test_search_certificates_always_verify(rng):
    x = ExactMatrix.diagonal([gr(1), gr(-1)])
    for ctx in (LieContext("gl", "GL", 2), LieContext("sl", "SL", 2)):
        out = search_reverser(x, ctx, 1, False)
        if out.found:
            assert verify_certificate(out.certificate).ok


def test_search_never_contradicts_decisions():
    """Differential check on every feasible rank-two configuration: a
    negative verdict must never be contradicted by a found certificate,
    and affirmative verdicts are confirmed at height two."""
    from adjreal.semisimple import NO, YES, decide_semisimple

    small = [gr(1), gr(2), I, gr(1, 1), gr("1/2")]
    for a in small:
        for b in (-a, a):
            x = ExactMatrix.diagonal([a, b])
            for alg, grp, n in (("gl", "GL", 2), ("sl", "SL", 2), ("sp", "Sp", 1)):
                if alg in ("sl", "sp") and not (a + b).is_zero():
                    continue
                ctx = LieContext(alg, grp, n)
                v = decide_semisimple(x, ctx)
                plain = search_reverser(x, ctx, 2, False)
                inv = search_reverser(x, ctx, 2, True)
                if v.is_real == NO:
                    assert not plain.found and not inv.found
                if v.is_strongly_real == NO:
                    assert not inv.found
                if v.is_real == YES:
                    assert plain.found
                if v.is_strongly_real == YES:
                    assert inv.found
