"""Jordan-Chevalley decomposition: exactness, uniqueness, closure."""

import json
import random

import pytest

from adjreal import jordan
from adjreal.cli import main
from adjreal.gaussian import I, ONE, ZERO
from adjreal.jordan import jordan_chevalley
from adjreal.liecore import LieContext, algebra_member
from adjreal.matrix import (
    ExactMatrix,
    eval_poly,
    is_nilpotent,
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
    assert is_nilpotent(xn)
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
    # a single 8x8 shift block plus identity: multiplicity 8 forces the
    # full ceil(log2(8)) = 3 Newton steps
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
        # a zero Newton correction: the iteration never converges
        ("_mod_inverse", lambda p, m: ExactPoly.zero()),
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
