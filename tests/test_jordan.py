"""Jordan-Chevalley decomposition: exactness, uniqueness, closure."""

import json
import random

import pytest

from adjreal import jordan
from adjreal.cli import main
from adjreal.gaussian import I, ONE, ZERO, GaussRat
from adjreal.jordan import jordan_chevalley
from adjreal.liecore import LieContext, algebra_member
from adjreal.matrix import (
    ExactMatrix,
    eval_poly,
    is_semisimple,
)
from adjreal.oracle import height_pool
from adjreal.polynomial import ExactPoly
from adjreal.symplectic import mixed_from_partition, symplectic_partitions


def test_unipotent_block():
    x = ExactMatrix.from_rows([[1, 1], [0, 1]])
    pair = jordan_chevalley(x)
    assert pair.semisimple_part == ExactMatrix.identity(2)
    assert pair.nilpotent_part == ExactMatrix.from_rows([[0, 1], [0, 0]])


def test_already_semisimple():
    x = ExactMatrix.diagonal([1, -1])
    pair = jordan_chevalley(x)
    assert pair.semisimple_part == x
    assert pair.nilpotent_part.is_zero()


def test_gaussian_eigenvalue_block():
    x = ExactMatrix.from_rows([[I, ONE], [ZERO, I]])
    pair = jordan_chevalley(x)
    assert pair.semisimple_part == ExactMatrix.diagonal([I, I])
    assert pair.nilpotent_part == ExactMatrix.from_rows([[0, 1], [0, 0]])
    _check_invariants(x, pair)


def _check_invariants(x, pair):
    xs, xn = pair.semisimple_part, pair.nilpotent_part
    assert xs + xn == x
    assert xs * xn == xn * xs
    assert is_semisimple(xs)
    assert xn.power(xn.rows).is_zero()
    assert eval_poly(pair.witness_poly, x) == xs


def test_invariants_on_dense_matrix():
    x = ExactMatrix.from_rows(
        [[2, 1, 0, 0], [0, 2, 1, 0], [0, 0, 2, 0], [0, 0, 0, 3]]
    )
    pair = jordan_chevalley(x)
    _check_invariants(x, pair)
    assert pair.semisimple_part == ExactMatrix.diagonal([2, 2, 2, 3])


def test_uniqueness_idempotence():
    x = ExactMatrix.from_rows([[I, 1, 0], [0, I, 1], [0, 0, I]])
    pair = jordan_chevalley(x)
    again = jordan_chevalley(pair.semisimple_part)
    assert again.semisimple_part == pair.semisimple_part
    assert again.nilpotent_part.is_zero()
    third = jordan_chevalley(pair.nilpotent_part)
    assert third.semisimple_part.is_zero()
    assert third.nilpotent_part == pair.nilpotent_part


def test_irrational_spectrum_still_decomposes():
    # eigenvalues +-sqrt(2), not in Q(i); the decomposition stays rational
    x = ExactMatrix.from_rows([[0, 1, 1, 0], [2, 0, 0, 1], [0, 0, 0, 1], [0, 0, 2, 0]])
    pair = jordan_chevalley(x)
    _check_invariants(x, pair)
    assert not pair.nilpotent_part.is_zero()


def test_algebra_closure_on_symplectic_elements():
    """Both parts of an sp(n) element stay in sp(n): 200 random mixed
    elements assembled from chain nilpotents plus commuting semisimple
    parts, n <= 3."""
    rng = random.Random(7)
    pool = [v for v in height_pool(2) if not v.is_zero()]
    configs = []
    for total in (2, 4, 6):
        for parts in symplectic_partitions(total):
            counts = {}
            for p in parts:
                counts[p] = counts.get(p, 0) + 1
            if any(c >= 2 for c in counts.values()):
                configs.append((parts, counts))
    done = 0
    while done < 200:
        parts, counts = configs[rng.randrange(len(configs))]
        params = {}
        for d, c in counts.items():
            if c >= 2:
                params[d] = [rng.choice(pool) for _ in range(c // 2)]
        x, xs, xn = mixed_from_partition(parts, params)
        ctx = LieContext("sp", "Sp", x.rows // 2)
        pair = jordan_chevalley(x)
        assert algebra_member(pair.semisimple_part, ctx)
        assert algebra_member(pair.nilpotent_part, ctx)
        assert pair.semisimple_part == xs
        assert pair.nilpotent_part == xn
        done += 1


def test_algebra_closure_special_linear_and_orthogonal():
    # traceless input: both parts stay traceless
    x = ExactMatrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, -2]])
    pair = jordan_chevalley(x)
    sl3 = LieContext("sl", "SL", 3)
    assert algebra_member(pair.semisimple_part, sl3)
    assert algebra_member(pair.nilpotent_part, sl3)
    # antisymmetric input: both parts stay antisymmetric
    y = ExactMatrix.from_rows(
        [[0, 2, 1, 0], [-2, 0, 0, 1], [-1, 0, 0, 2], [0, -1, -2, 0]]
    )
    so4 = LieContext("so", "SO", 4)
    assert algebra_member(y, so4)
    pair = jordan_chevalley(y)
    assert algebra_member(pair.semisimple_part, so4)
    assert algebra_member(pair.nilpotent_part, so4)


def test_newton_converges_on_high_multiplicity():
    # a single 8x8 shift block plus identity: multiplicity 8, but q = t - 1
    # is linear, so one Newton step lands on the identity (``_newton_cases``
    # below has inputs that need two and three)
    n = 8
    rows = [[ZERO] * n for _ in range(n)]
    for k in range(n):
        rows[k][k] = ONE
        if k + 1 < n:
            rows[k][k + 1] = ONE
    x = ExactMatrix.from_rows(rows)
    pair = jordan_chevalley(x)
    _check_invariants(x, pair)
    assert pair.semisimple_part == ExactMatrix.identity(n)


@pytest.mark.parametrize(
    "target, replacement",
    [
        # a gcd of degree one: q'(a) looks non-invertible modulo chi
        ("poly_xgcd", lambda p, m: (ExactPoly.x_power(1), ExactPoly.one(), ExactPoly.one())),
        # a zero inverse of q' modulo q: the iteration never converges
        ("_inverse_mod", lambda p, m: ExactPoly.zero()),
    ],
    ids=["non-unit-gcd", "no-convergence"],
)
def test_jordan_self_check_failures_are_json_errors(monkeypatch, capsys, target, replacement):
    """A failed self-check in the Newton iteration ends in JSON and exit 2,
    not in a traceback."""
    monkeypatch.setattr(jordan, target, replacement)
    code = main(["jordan", "--matrix", '{"rows":2,"cols":2,"entries":[["1","1"],["0","1"]]}'])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["error"] == "SelfCheckFailed"


# -- the once-inverted Newton iteration against a per-step inverse ---------------


def _per_step_inverse_newton(x):
    """(witness polynomial, Newton steps) by Newton's iteration over
    ``ExactPoly`` that inverts q'(s) modulo chi afresh at every step."""
    from adjreal.matrix import char_poly
    from adjreal.polynomial import poly_xgcd, squarefree_part

    def compose(p, a, modulus):
        out = ExactPoly.zero()
        for c in reversed(p.coeffs):
            out = (out * a + ExactPoly.constant(c)) % modulus
        return out

    def inverse(p, modulus):
        g, u, _ = poly_xgcd(p, modulus)
        assert g.degree() == 0
        return u.scale(g.leading().inverse()) % modulus

    chi = char_poly(x)
    q = squarefree_part(chi)
    a = ExactPoly.x_power(1) % chi
    steps = 0
    while not (qa := compose(q, a, chi)).is_zero():
        a = (a - qa * inverse(compose(q.derivative(), a, chi), chi)) % chi
        steps += 1
    return a, steps


def _conjugated(x, rng, coefficients=(ONE, -ONE, I)):
    """x conjugated by n transvections I + c E_ij, inverse I - c E_ij."""
    n = x.rows
    for _ in range(n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice(coefficients)
        t = ExactMatrix.identity(n).with_entry(i, j, c)
        x = t * x * ExactMatrix.identity(n).with_entry(i, j, -c)
    return x


def _newton_cases():
    rng = random.Random(11)
    half, third = GaussRat.parse("1/2"), GaussRat.parse("1/3*i")
    mixed = [
        ([2, 2], {2: [ONE]}),
        ([3, 3, 1, 1], {3: [ONE], 1: [I]}),
        ([4, 4, 2, 2], {4: [ONE], 2: [GaussRat.parse("1+i")]}),
        ([3, 3, 3, 3], {3: [ONE, ONE]}),
        ([5, 5, 1, 1], {5: [I], 1: [ONE]}),
    ]
    cases = {}
    for parts, params in mixed:
        name = "mixed-" + "-".join(map(str, parts))
        cases[name] = _conjugated(mixed_from_partition(parts, params)[0], rng)
    # characteristic polynomials with denominators 2, 3 and 6
    jordan_half = ExactMatrix.from_rows(
        [[half, ONE, ZERO, ZERO], [ZERO, half, ONE, ZERO],
         [ZERO, ZERO, half, ZERO], [ZERO, ZERO, ZERO, third]]
    )
    cases["nonintegral-4"] = _conjugated(jordan_half, rng, (half, third, I))
    block_third = ExactMatrix.from_rows([[third, ONE], [ZERO, third]])
    cases["nonintegral-6"] = _conjugated(
        ExactMatrix.block_diagonal([jordan_half, block_third]), rng, (half, GaussRat.parse("1/3"), I)
    )
    # companion matrix of (t^2 - 2)^2 = t^4 - 4 t^2 + 4
    cases["companion-(t^2-2)^2"] = ExactMatrix.from_rows(
        [[0, 0, 0, -4], [1, 0, 0, 0], [0, 1, 0, 4], [0, 0, 1, 0]]
    )
    cases["1x1"] = ExactMatrix.from_rows([[half]])
    cases["zero-3"] = ExactMatrix.zeros(3)
    cases["scalar-3"] = ExactMatrix.diagonal([third] * 3)
    return cases


_NEWTON_CASES = _newton_cases()


@pytest.mark.parametrize("name", sorted(_NEWTON_CASES))
def test_newton_matches_per_step_inverse(name):
    x = _NEWTON_CASES[name]
    witness, _ = _per_step_inverse_newton(x)
    pair = jordan_chevalley(x)
    assert pair.witness_poly == witness
    assert pair.semisimple_part == eval_poly(witness, x)
    assert pair.nilpotent_part == x - pair.semisimple_part


def test_newton_cases_need_zero_to_three_steps():
    steps = {_per_step_inverse_newton(x)[1] for x in _NEWTON_CASES.values()}
    assert steps == {0, 1, 2, 3}


def test_derivative_inverted_once_modulo_q(monkeypatch):
    """One extended gcd per decomposition, of q' and q, and none when t
    is already semisimple modulo chi."""
    from adjreal.matrix import char_poly
    from adjreal.polynomial import poly_xgcd, squarefree_part

    degrees = []

    def counted(p, m):
        degrees.append((p.degree(), m.degree()))
        return poly_xgcd(p, m)

    monkeypatch.setattr(jordan, "poly_xgcd", counted)
    for name, x in sorted(_NEWTON_CASES.items()):
        del degrees[:]
        steps = _per_step_inverse_newton(x)[1]
        jordan_chevalley(x)
        chi = char_poly(x)
        deg_q = squarefree_part(chi).degree()
        assert len(degrees) == (1 if steps else 0), name
        assert all(max(d) <= deg_q < chi.degree() for d in degrees), name
