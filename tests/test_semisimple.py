"""Reality verdicts and reverser constructions, semisimple case."""

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import adjreal
from adjreal import matrix, polynomial, semisimple, symplectic
from adjreal.certificates import ReverserCertificate, verify_certificate
from adjreal.cli import main
from adjreal.errors import (
    AlgebraMismatch,
    NotRealizable,
    NotSemisimple,
    SelfCheckFailed,
    SpectrumNotSplit,
)
from adjreal.gaussian import I, ONE, ZERO, gr
from adjreal.liecore import (
    CanonicalSemisimple,
    LieContext,
    build_canonical,
    jn_matrix,
    so_block,
)
from adjreal.matrix import ExactMatrix, det, similar_to_negative
from adjreal.matrix import inverse as minv
from adjreal.oracle import enumerate_involutive_reversers
from adjreal.semisimple import (
    NO,
    UNDETERMINED,
    YES,
    RealityVerdict,
    decide_semisimple,
    witness_general_semisimple,
    witness_semisimple,
)

from conftest import SMALL_SCALARS, conjugated_jordan_matrices, from_roots, with_entry

SL2 = LieContext("sl", "SL", 2)
SL4 = LieContext("sl", "SL", 4)
SP1 = LieContext("sp", "Sp", 1)
SP2 = LieContext("sp", "Sp", 2)


def test_decide_rank_two_pair():
    v = decide_semisimple(ExactMatrix.diagonal([1, -1]), SL2)
    assert (v.is_real, v.is_strongly_real, v.reason) == (YES, NO, "NMod4")


def test_decide_rank_four_pairs():
    v = decide_semisimple(ExactMatrix.diagonal([gr(1), gr(2), gr(-1), gr(-2)]), SL4)
    assert v.is_strongly_real == YES


def test_decide_symplectic_rank_one():
    v = decide_semisimple(ExactMatrix.diagonal([gr(4), gr(-4)]), SP1)
    assert (v.is_real, v.is_strongly_real) == (YES, NO)


def test_decide_orthogonal_rank_six():
    x = build_canonical(CanonicalSemisimple("so", (gr(1), gr(2), gr(3))))
    v = decide_semisimple(x, LieContext("so", "SO", 6))
    assert v.is_strongly_real == NO
    assert v.is_real == UNDETERMINED
    assert v.reason == "PaperSilent"
    v = decide_semisimple(x, LieContext("so", "O", 6))
    assert v.is_strongly_real == YES


def test_decide_symplectic_even_multiplicity():
    v = decide_semisimple(
        ExactMatrix.diagonal([gr(4), gr(4), gr(-4), gr(-4)]), SP2
    )
    assert v.is_strongly_real == YES
    assert v.reason == "EvenMultiplicity"


def test_decide_crossed_pairs_count_as_even():
    # diag(x, -x, -x, x): each eigenvalue appears twice
    v = decide_semisimple(
        ExactMatrix.diagonal([gr(4), gr(-4), gr(-4), gr(4)]), SP2
    )
    assert v.is_strongly_real == YES


def test_decide_asymmetric_spectrum():
    v = decide_semisimple(ExactMatrix.diagonal([gr(1), gr(-2)]), LieContext("gl", "GL", 2))
    assert (v.is_real, v.is_strongly_real, v.reason) == (NO, NO, "SpectrumAsymmetric")


def test_decide_zero_element():
    v = decide_semisimple(ExactMatrix.zeros(2), SL2)
    assert (v.is_real, v.is_strongly_real) == (YES, YES)
    assert v.witness is not None and verify_certificate(v.witness).ok


def test_decide_rejects_non_semisimple():
    with pytest.raises(NotSemisimple):
        decide_semisimple(ExactMatrix.from_rows([[0, 1], [0, 0]]), SL2)


def test_decide_rejects_wrong_algebra():
    with pytest.raises(AlgebraMismatch):
        decide_semisimple(ExactMatrix.diagonal([1, 1]), SL2)


def test_decide_irrational_spectrum_still_decides():
    # eigenvalues +-sqrt(2): symmetric, so real under the general linear
    # group even though no witness exists over the ground field
    x = ExactMatrix.from_rows([[0, 1], [2, 0]])
    v = decide_semisimple(x, LieContext("gl", "GL", 2))
    assert v.is_real == YES
    with pytest.raises(SpectrumNotSplit):
        witness_general_semisimple(x, LieContext("gl", "GL", 2), False)


def test_verdict_json_round_trip():
    v = decide_semisimple(ExactMatrix.diagonal([1, -1]), SL2)
    assert RealityVerdict.from_json(v.to_json()) == v


# -- canonical witnesses ----------------------------------------------------


def test_witness_rank_two_plain_is_rotation():
    cert = witness_semisimple(CanonicalSemisimple("sl", (gr(3), gr(-3))), SL2, False)
    assert cert.reverser == ExactMatrix.from_rows([[0, -1], [1, 0]])
    assert verify_certificate(cert).ok
    assert det(cert.reverser) == 1


def test_witness_rank_two_involution_denied():
    with pytest.raises(NotRealizable):
        witness_semisimple(CanonicalSemisimple("sl", (gr(3), gr(-3))), SL2, True)


def test_witness_special_linear_with_zero_fix():
    # six eigenvalues, three pairs and no zeros would be denied; add zeros
    canon = CanonicalSemisimple("sl", (gr(1), gr(-1), gr(2), gr(-2), ZERO, ZERO))
    cert = witness_semisimple(canon, LieContext("sl", "SL", 6), True)
    g = cert.reverser
    assert verify_certificate(cert).ok
    assert g * g == ExactMatrix.identity(6)
    assert det(g) == 1


def test_witness_orthogonal_rank_three():
    canon = CanonicalSemisimple("so", (gr(1),), 1)
    cert = witness_semisimple(canon, LieContext("so", "SO", 3), True)
    assert verify_certificate(cert).ok
    assert cert.reverser == ExactMatrix.diagonal([1, -1, -1])


def test_witness_orthogonal_det_fix_via_zero_parameter():
    # odd number of rotation blocks, no zero tail, but one parameter is 0
    canon = CanonicalSemisimple("so", (gr(1), gr(2), ZERO))
    cert = witness_semisimple(canon, LieContext("so", "SO", 6), True)
    assert verify_certificate(cert).ok
    assert det(cert.reverser) == 1


def test_witness_symplectic_block_structure():
    cert = witness_semisimple(CanonicalSemisimple("sp", (gr(5), gr(5))), SP2, True)
    g = cert.reverser
    assert verify_certificate(cert).ok
    assert g * g == ExactMatrix.identity(4)
    # antidiagonal block pair (B, B^{-1}) with B the rotation block
    b = ExactMatrix.from_rows([[g[0, 2], g[0, 3]], [g[1, 2], g[1, 3]]])
    assert b == ExactMatrix.from_rows([[0, -1], [1, 0]])


def test_witness_symplectic_plain_via_structure_matrix():
    cert = witness_semisimple(CanonicalSemisimple("sp", (gr(5),)), SP1, False)
    assert verify_certificate(cert).ok
    assert cert.reverser == jn_matrix(1)
    assert cert.reverser * cert.reverser == ExactMatrix.identity(2).scale(-ONE)


def test_witness_symplectic_crossed_pairs():
    canon = CanonicalSemisimple("sp", (gr(5), gr(-5)))
    cert = witness_semisimple(canon, SP2, True)
    assert verify_certificate(cert).ok
    assert cert.reverser * cert.reverser == ExactMatrix.identity(4)


def test_witness_projective_even_zero_block():
    canon = CanonicalSemisimple("sl", (gr(1), gr(-1), ZERO, ZERO))
    cert = witness_semisimple(canon, LieContext("sl", "PSL", 4), True)
    assert verify_certificate(cert).ok
    sq = cert.reverser * cert.reverser
    assert sq == ExactMatrix.identity(4).scale(-ONE)
    assert det(cert.reverser) == 1


def test_witness_projective_odd_zero_block():
    canon = CanonicalSemisimple("sl", (gr(1), gr(-1), ZERO))
    cert = witness_semisimple(canon, LieContext("sl", "PSL", 3), True)
    assert verify_certificate(cert).ok
    sq = cert.reverser * cert.reverser
    c = sq[0, 0]
    assert sq == ExactMatrix.identity(3).scale(c) and not c.is_zero()


def test_witness_projective_symplectic():
    cert = witness_semisimple(
        CanonicalSemisimple("sp", (gr(3), gr(7))), LieContext("sp", "PSp", 2), True
    )
    assert verify_certificate(cert).ok
    assert cert.reverser == jn_matrix(2)


# -- general witnesses ------------------------------------------------------


def test_general_witness_swap_matrix():
    x = ExactMatrix.from_rows([[0, 1], [1, 0]])
    cert = witness_general_semisimple(x, LieContext("gl", "GL", 2), True)
    assert verify_certificate(cert).ok
    assert cert.reverser * cert.reverser == ExactMatrix.identity(2)


def test_general_witness_orthogonal_block():
    x = so_block(gr(3))
    cert = witness_general_semisimple(x, LieContext("so", "O", 2), True)
    assert verify_certificate(cert).ok
    g = cert.reverser
    assert det(g) == -ONE
    # the anticommutant of the rotation block is {(a, b; b, -a)}
    assert g[0, 0] == -g[1, 1] and g[0, 1] == g[1, 0]


def test_general_witness_conjugated_symplectic():
    # conjugate a canonical element by a symplectic shear and re-derive
    n = 2
    x0 = ExactMatrix.diagonal([gr(2), gr(2), gr(-2), gr(-2)])
    shear = with_entry(with_entry(ExactMatrix.identity(4), 0, 3, gr(3)), 1, 2, gr(3))
    # make it symplectic: [[I, B], [0, I]] with B symmetric is in Sp
    assert shear.transpose() * jn_matrix(n) * shear == jn_matrix(n)
    x = shear * x0 * with_entry(with_entry(ExactMatrix.identity(4), 0, 3, gr(-3)), 1, 2, gr(-3))
    cert = witness_general_semisimple(x, SP2, True)
    assert verify_certificate(cert).ok
    assert cert.reverser * cert.reverser == ExactMatrix.identity(4)


def test_general_witness_spectrum_not_split():
    x = ExactMatrix.from_rows([[0, 1], [2, 0]])
    with pytest.raises(SpectrumNotSplit):
        witness_general_semisimple(x, LieContext("sl", "SL", 2), False)


def _companion(coeffs):
    """Companion matrix of the monic polynomial with the given lower
    coefficients, lowest degree first."""
    n = len(coeffs)
    rows = [[0] * n for _ in range(n)]
    for k in range(n):
        if k:
            rows[k][k - 1] = 1
        rows[k][n - 1] = -coeffs[k]
    return ExactMatrix.from_rows(rows)


_J2 = ExactMatrix.from_rows([[1, 1], [0, 1]])
_ROOT2 = _companion([-2, 0])  # t^2 - 2


@pytest.mark.parametrize(
    "x, error, message",
    [
        # chi splits, X is not diagonalizable
        (ExactMatrix.from_rows([[0, 1], [0, 0]]), NotSemisimple,
         "element is not diagonalizable"),
        (ExactMatrix.block_diagonal([_J2, -_J2]), NotSemisimple,
         "element is not diagonalizable"),
        # chi = (t^2 - 2)^2 does not split and X is not diagonalizable
        (_companion([4, 0, -4, 0]), NotSemisimple, "element is not diagonalizable"),
        # chi does not split and X is diagonalizable: the message names
        # chi's rootless cofactor with its multiplicity
        (ExactMatrix.block_diagonal([ExactMatrix.diagonal([1, -1]), _ROOT2]),
         SpectrumNotSplit, "characteristic polynomial has irrational factor (1)*x^2 + (-2)"),
        (ExactMatrix.block_diagonal([ExactMatrix.diagonal([1, -1]), _ROOT2, _ROOT2]),
         SpectrumNotSplit,
         "characteristic polynomial has irrational factor (1)*x^4 + (-4)*x^2 + (4)"),
    ],
    ids=["j2-split", "j2-pair-split", "not-split-not-diagonalizable",
         "not-split", "not-split-repeated"],
)
def test_general_witness_error_order(x, error, message):
    """NotSemisimple wins over SpectrumNotSplit, whether chi splits or not;
    a diagonalizable X with irrational spectrum gets SpectrumNotSplit."""
    ctx = LieContext("sl", "SL", x.rows)
    for want_involution in (False, True):
        with pytest.raises(error) as caught:
            witness_general_semisimple(x, ctx, want_involution)
        assert str(caught.value) == message


def test_general_witness_so_with_repeated_parameter():
    # two rotation blocks with the same parameter: eigenvalue multiplicity 2
    x = ExactMatrix.block_diagonal([so_block(gr(2)), so_block(gr(2))])
    cert = witness_general_semisimple(x, LieContext("so", "O", 4), True)
    assert verify_certificate(cert).ok
    cert = witness_general_semisimple(x, LieContext("so", "SO", 4), True)
    assert verify_certificate(cert).ok
    assert det(cert.reverser) == 1


def test_general_witness_sp_with_kernel_and_multiplicity():
    # spectrum {3, 3, 0, 0, -3, -3} inside sp(3), then shear-conjugated
    x0 = ExactMatrix.diagonal([gr(3), gr(3), ZERO, gr(-3), gr(-3), ZERO])
    n = 3
    shear = ExactMatrix.identity(6)
    for i, j, v in ((0, n + 1, gr(2)), (1, n + 0, gr(2)), (2, n + 2, gr(1))):
        shear = with_entry(shear, i, j, v)
    assert shear.transpose() * jn_matrix(n) * shear == jn_matrix(n)
    from adjreal.matrix import inverse as minv

    x = shear * x0 * minv(shear)
    ctx = LieContext("sp", "Sp", 3)
    cert = witness_general_semisimple(x, ctx, True)
    assert verify_certificate(cert).ok
    assert cert.reverser * cert.reverser == ExactMatrix.identity(6)
    plain = witness_general_semisimple(x, ctx, False)
    assert verify_certificate(plain).ok


def test_general_witness_psl_conjugated():
    base = ExactMatrix.diagonal([gr(2), gr(-2), ZERO])
    p = ExactMatrix.from_rows([[1, 1, 0], [0, 1, 2], [0, 0, 1]])
    from adjreal.matrix import inverse as minv

    x = p * base * minv(p)
    cert = witness_general_semisimple(x, LieContext("sl", "PSL", 3), True)
    assert verify_certificate(cert).ok
    sq = cert.reverser * cert.reverser
    c = sq[0, 0]
    assert sq == ExactMatrix.identity(3).scale(c) and not c.is_zero()


def test_general_witness_so_with_kernel():
    x = ExactMatrix.block_diagonal([so_block(gr(2)), ExactMatrix.zeros(1)])
    cert = witness_general_semisimple(x, LieContext("so", "SO", 3), True)
    assert verify_certificate(cert).ok
    assert det(cert.reverser) == 1


# -- obstruction properties -------------------------------------------------


def test_every_involutive_anticommutant_element_has_negative_det():
    """Rank 2, no zero eigenvalue: the parity obstruction in action."""
    x = ExactMatrix.diagonal([gr(3), gr(-3)])
    count = 0
    for r in enumerate_involutive_reversers(x, 2):
        assert det(r) == -ONE
        assert r * r == ExactMatrix.identity(2)
        count += 1
    assert count > 0


def test_so2_has_no_special_orthogonal_reverser():
    """Closed-form check: anticommutant elements of the rotation block
    that are orthogonal always have determinant -1."""
    x = so_block(gr(1))
    for r in enumerate_involutive_reversers(x, 2):
        gram = r.transpose() * r
        if gram == ExactMatrix.identity(2):
            assert det(r) == -ONE


# -- one spectral pass ----------------------------------------------------------


def _unimodular(rng, n, height):
    """Dense L U with unit triangular factors: determinant one, integer
    inverse."""
    def entry(i, j, below):
        if i == j:
            return 1
        return rng.randint(-height, height) if (j < i) == below else 0

    low = ExactMatrix.from_rows([[entry(i, j, True) for j in range(n)] for i in range(n)])
    up = ExactMatrix.from_rows([[entry(i, j, False) for j in range(n)] for i in range(n)])
    return low * up


def _conjugated_diagonal(rng, values, height=1):
    p = _unimodular(rng, len(values), height)
    return p * ExactMatrix.diagonal(values) * minv(p)


def _counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


@pytest.mark.parametrize(
    "x, ctx",
    [
        (ExactMatrix.diagonal([gr(1), gr(2), gr(-1), gr(-2)]), SL4),
        (ExactMatrix.diagonal([gr(1), gr(-2), gr(3)]), LieContext("gl", "GL", 3)),
        (ExactMatrix.diagonal([gr(1), gr(-1), ZERO]), LieContext("sl", "PSL", 3)),
        (build_canonical(CanonicalSemisimple("so", (gr(1), gr(2)), 1)),
         LieContext("so", "SO", 5)),
        (build_canonical(CanonicalSemisimple("sp", (gr(2), gr(2)))), SP2),
        (build_canonical(CanonicalSemisimple("sp", (gr(2), gr(3)))), SP2),
    ],
    ids=["sl", "gl-asymmetric", "psl", "so", "sp-even", "sp-odd"],
)
def test_one_char_poly_per_command_and_one_verification(monkeypatch, x, ctx):
    """decide runs the Horner test of diagonalizability once; witness on a
    split chi reads it off the eigenspaces instead.  Each takes chi's
    squarefree part once."""
    calls = Counter()
    for module, name in (
        (semisimple, "char_poly"),
        (semisimple, "verify_certificate"),
        (semisimple, "is_semisimple"),
        (matrix, "squarefree_part"),
        (polynomial, "squarefree_part"),
        (matrix, "invariant_factors"),
    ):
        monkeypatch.setattr(module, name, _counting(calls, name, getattr(module, name)))
    verdict = decide_semisimple(x, ctx)
    assert calls == {"char_poly": 1, "is_semisimple": 1, "squarefree_part": 1}
    calls.clear()
    want_involution = verdict.is_strongly_real == YES
    try:
        witness_general_semisimple(x, ctx, want_involution)
    except NotRealizable:
        assert verdict.is_real != YES
        assert calls == {"char_poly": 1, "squarefree_part": 1}
    else:
        assert calls == {"char_poly": 1, "squarefree_part": 1, "verify_certificate": 1}


@pytest.mark.parametrize("command", ["decide", "witness"])
def test_sp_verdict_takes_gcd_of_chi_and_derivative_once(monkeypatch, capsys, command):
    """The Sp multiplicity test reads chi itself, so gcd(chi, chi') is
    taken only for chi's squarefree part."""
    from adjreal.cli import main

    degrees = []
    gcd = polynomial.poly_gcd

    def spy(p, q):
        degrees.append((p.degree(), q.degree()))
        return gcd(p, q)

    monkeypatch.setattr(polynomial, "poly_gcd", spy)
    x = ExactMatrix.diagonal([gr(v) for v in (2, 3, 2, -2, -3, -2)])
    ctx = '{"algebra":"sp","group":"Sp","n":3}'
    assert main([command, "--ctx", ctx, "--matrix", json.dumps(x.to_json())]) == 0
    out = json.loads(capsys.readouterr().out)
    if command == "decide":
        assert (out["real"], out["strongly_real"], out["reason"]) == (YES, NO, "OddMultiplicity")
    assert degrees == [(6, 5)]


@pytest.mark.parametrize(
    "roots, irrational, expected",
    [
        ([2, 2, -2, -2], 2, True),
        ([2, 2, -2, -2], 1, False),
        ([2, 3, -2, -3], 0, False),
        ([1, 1, 1, -1, -1, -1], 0, False),
        ([0, 0, 0, 5, 5, -5, -5], 0, True),
        ([0, "i", "i", "-i", "-i"], 2, True),
    ],
)
def test_nonzero_multiplicities_even_agrees_with_yun(roots, irrational, expected):
    """The square test of the Sp verdict agrees with the squarefree
    decomposition, also on a factor t^2 - 2 without roots in Q(i)."""
    chi = from_roots([gr(r) for r in roots])
    for _ in range(irrational):
        chi = chi * polynomial.ExactPoly((gr(-2), ZERO, ONE))
    t = polynomial.ExactPoly((ZERO, ONE))
    yun = all(m % 2 == 0 or f == t for f, m in polynomial.squarefree_decomposition(chi))
    assert semisimple._nonzero_multiplicities_even(chi) is yun is expected


@settings(max_examples=40, deadline=None)
@given(
    pairs=st.lists(st.integers(1, 3), max_size=2),
    zeros=st.integers(0, 2),
    extra=st.lists(st.integers(-3, 3), max_size=2),
    seed=st.integers(0, 2**16),
)
def test_spectral_verdict_agrees_with_smith_route(pairs, zeros, extra, seed):
    """The GL verdict read off chi equals the Smith-form comparison of the
    invariant factors of X and -X."""
    values = [gr(v) for v in pairs] + [gr(-v) for v in pairs] + [ZERO] * zeros
    values += [gr(v) for v in extra]
    if not values:
        values = [gr(2)]
    x = _conjugated_diagonal(random.Random(seed), values)
    n = len(values)
    verdict = decide_semisimple(x, LieContext("gl", "GL", n))
    assert (verdict.is_real == YES) == similar_to_negative(x)
    if x.trace().is_zero():
        verdict = decide_semisimple(x, LieContext("sl", "SL", n))
        assert (verdict.is_real == YES) == similar_to_negative(x)


def _dense_sl(n):
    """Densely conjugated diag(1..n/2, -1..-n/2) in sl(n), seeded by n."""
    values = [gr(k) for k in range(1, n // 2 + 1)] + [gr(-k) for k in range(1, n // 2 + 1)]
    return _conjugated_diagonal(random.Random(n), values, height=2)


def test_decide_dense_sl16():
    """A densely conjugated sl(16) element with entries of about 20 bits;
    deciding it through the Smith form did not finish in 400 s."""
    x = _dense_sl(16)
    assert max(abs(e.re.numerator).bit_length() for e in x.entries) >= 16
    v = decide_semisimple(x, LieContext("sl", "SL", 16))
    assert (v.is_real, v.is_strongly_real, v.reason) == (YES, YES, "NMod4")
    v = decide_semisimple(x, LieContext("gl", "GL", 16))
    assert v.reason == "SpectrumSymmetric"


def test_decide_dense_sl24():
    x = _dense_sl(24)
    v = decide_semisimple(x, LieContext("sl", "SL", 24))
    assert (v.is_real, v.is_strongly_real, v.reason) == (YES, YES, "NMod4")
    v = decide_semisimple(x.plus_scalar(ONE), LieContext("gl", "GL", 24))
    assert v.reason == "SpectrumAsymmetric"


def test_witness_dense_sl16():
    """The involutive reverser of the sl(16) element above.  Its chi(0) =
    (8!)^2 has thousands of Gaussian divisors; only those inside the root
    bound are tried as eigenvalues."""
    x = _dense_sl(16)
    cert = witness_general_semisimple(x, LieContext("sl", "SL", 16), True)
    g = cert.reverser
    assert cert.element == x and cert.claims_involution
    assert g * x == -(x * g)
    assert g * g == ExactMatrix.identity(16)
    assert det(g) == 1
    assert verify_certificate(cert).ok


def test_witness_dense_sl30_is_pinned():
    """The densely conjugated sl(30) element, spectrum +-1..+-15: its
    eigenspace kernels and eigenbasis inverse run through the fraction-free
    elimination.  The certificate is pinned byte for byte."""
    x = _dense_sl(30)
    cert = witness_general_semisimple(x, LieContext("sl", "SL", 30), False)
    g = cert.reverser
    assert cert.element == x and not cert.claims_involution
    assert g * x == -(x * g)
    assert det(g) == 1
    digest = hashlib.sha256(
        json.dumps(cert.to_json(), sort_keys=True).encode()
    ).hexdigest()
    assert digest == "701bb370038fdb3a07bfbf29e55c5b61311fc8f6495f5dc5e39e838958e0034d"


def test_decide_dense_sl30():
    v = decide_semisimple(_dense_sl(30), LieContext("sl", "SL", 30))
    assert (v.is_real, v.is_strongly_real, v.reason) == (YES, NO, "NMod4")


@pytest.mark.parametrize("command", ["decide", "witness"])
def test_dense_sl30_with_one_jordan_block_is_not_semisimple(capsys, command):
    """J_2(1) + diag(-1, -1, +-2..+-14), densely conjugated in sl(30)."""
    rest = [gr(-1), gr(-1)] + [gr(s * k) for k in range(2, 15) for s in (1, -1)]
    p = _unimodular(random.Random(30), 30, 2)
    x = p * ExactMatrix.block_diagonal([_J2, ExactMatrix.diagonal(rest)]) * minv(p)
    ctx = '{"algebra":"sl","group":"SL","n":30}'
    assert main([command, "--ctx", ctx, "--matrix", json.dumps(x.to_json())]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out == {"error": "NotSemisimple", "message": "element is not diagonalizable"}


# -- diagonalizability on X's own columns -------------------------------------------


def _reference_generators(x):
    """The unit vectors e_s outside the X-invariant span of the earlier
    ones, by ranks of explicit Krylov vectors e_s, X e_s, ..."""
    n, span, chosen = x.rows, [], []
    for s in range(n):
        unit = [ONE if i == s else ZERO for i in range(n)]
        if span and matrix.rank(ExactMatrix.from_rows(span + [unit])) == len(span):
            continue
        chosen.append(s)
        v = unit
        while matrix.rank(ExactMatrix.from_rows(span + [v])) > len(span):
            span.append(v)
            v = x.mul_vector(v)
    return chosen


def _tested_generators(x, chi=None):
    """(is_semisimple(x, chi), the index s of each e_s it applied q(X) to)."""
    seen, original = [], matrix._poly_on_vector

    def spy(p, cleared, v):
        seen.append(v.index(ONE))
        return original(p, cleared, v)

    matrix._poly_on_vector = spy
    try:
        return matrix.is_semisimple(x, chi), seen
    finally:
        matrix._poly_on_vector = original


def _annihilated_by_squarefree_part(x):
    return matrix.eval_poly(polynomial.squarefree_part(matrix.char_poly(x)), x).is_zero()


_RESCALE = [gr(1), gr(2), gr("1/3"), gr("5/7"), gr(1, 1), gr("1/2", "-3/4")]


@st.composite
def _rescaled_jordan_matrices(draw):
    """Derogatory conjugated Jordan forms (scalar, zero and 1 x 1 matrices
    among them) or diagonal matrices with repeated eigenvalues conjugated
    by L U (unit triangular factors), then conjugated by a diagonal D
    (X -> D X D^-1) so that the entries carry distinct denominators."""
    if draw(st.sampled_from(["jordan", "diagonal"])) == "jordan":
        x = draw(conjugated_jordan_matrices(min_size=1, max_size=7))
    else:
        values = draw(st.lists(st.sampled_from(SMALL_SCALARS), min_size=1, max_size=7))
        n = len(values)
        low, up = ExactMatrix.identity(n).to_lists(), ExactMatrix.identity(n).to_lists()
        for i in range(n):
            for j in range(i):
                low[i][j] = draw(st.sampled_from(SMALL_SCALARS))
                up[j][i] = draw(st.sampled_from(SMALL_SCALARS))
        p = ExactMatrix.from_rows(low) * ExactMatrix.from_rows(up)
        x = p * ExactMatrix.diagonal(values) * minv(p)
    n = x.rows
    d = [draw(st.sampled_from(_RESCALE)) for _ in range(n)]
    return ExactMatrix(n, n, [x[i, j] * d[i] / d[j] for i in range(n) for j in range(n)])


@settings(max_examples=150, deadline=None)
@given(_rescaled_jordan_matrices())
def test_is_semisimple_matches_squarefree_annihilation(x):
    """q(X) = 0 for q the squarefree part of chi, tested on the generators
    that the Krylov spans pick, with or without chi given."""
    expected = _annihilated_by_squarefree_part(x)
    got, seen = _tested_generators(x)
    assert got == expected
    assert _tested_generators(x, matrix.char_poly(x))[0] == expected
    generators = _reference_generators(x)
    if expected:
        assert seen == generators
    else:  # the first failing generator ends the test
        assert seen and seen == generators[: len(seen)]


@pytest.mark.parametrize(
    "x, expected",
    [
        (ExactMatrix.zeros(3), [0, 1, 2]),
        (ExactMatrix.from_rows([[gr("5/3", 2)]]), [0]),
        (ExactMatrix.zeros(1), [0]),
        (ExactMatrix.diagonal([gr(1), gr(1), gr(2), gr(2)]), [0, 1, 2, 3]),
    ],
    ids=["zero", "one-by-one", "one-by-one-zero", "derogatory-diagonal"],
)
def test_is_semisimple_on_edge_cases(x, expected):
    assert _tested_generators(x) == (True, expected)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from(SMALL_SCALARS), min_size=2, max_size=2, unique=True),
    st.sampled_from(SMALL_SCALARS[1:]),
    st.sampled_from(SMALL_SCALARS),
    st.lists(st.sampled_from(SMALL_SCALARS), min_size=4, max_size=4),
)
def test_later_generator_finds_a_conjugated_jordan_block(ab, c, lam, p):
    """X = [[a, 0], [c, b]] + P J_2(lam) P^-1: e_0 spans the first block,
    so e_1 is skipped, and only a generator of index >= 2 sees the Jordan
    block."""
    p = ExactMatrix(2, 2, p)
    if det(p).is_zero():
        return
    j2 = ExactMatrix.from_rows([[lam, ONE], [ZERO, lam]])
    first = ExactMatrix.from_rows([[ab[0], ZERO], [c, ab[1]]])
    x = ExactMatrix.block_diagonal([first, p * j2 * minv(p)])
    got, seen = _tested_generators(x)
    assert got is False is _annihilated_by_squarefree_part(x)
    assert seen[0] == 0 and 1 not in seen and seen[-1] >= 2
    assert seen == _reference_generators(x)[: len(seen)]


def test_is_semisimple_runs_one_horner_per_generator_and_no_hessenberg(monkeypatch):
    """Given chi, is_semisimple takes no Hessenberg form: the cyclic dense
    sl(16) needs one Horner run (on e_0), diag(1, 1, 2, 2) one per unit
    vector.  decide takes the Hessenberg form once, inside char_poly."""
    x = _dense_sl(16)
    chi = matrix.char_poly(x)
    diagonal = ExactMatrix.diagonal([gr(1), gr(1), gr(2), gr(2)])
    diagonal_chi = matrix.char_poly(diagonal)
    calls = Counter()
    monkeypatch.setattr(matrix, "hessenberg", _counting(calls, "hessenberg", matrix.hessenberg))
    assert _tested_generators(x, chi) == (True, [0])
    assert _tested_generators(diagonal, diagonal_chi) == (True, [0, 1, 2, 3])
    assert calls == {}
    decide_semisimple(x, LieContext("sl", "SL", 16))
    assert calls == {"hessenberg": 1}


# -- typed self-checks ------------------------------------------------------------


def test_self_checks_survive_python_optimize():
    """The helpers' internal checks, the exact Gaussian-integer divisions
    of the elimination (directly and through det), and the two checks of the
    Jordan-Chevalley Newton iteration raise SelfCheckFailed, and witness's
    eigenspace-dimension and root-count checks raise NotSemisimple and
    SpectrumNotSplit, not AssertionError or ArithmeticError, and python -O
    keeps them."""
    code = (
        "from adjreal import semisimple as s\n"
        "from adjreal.errors import NotSemisimple, SelfCheckFailed, SpectrumNotSplit\n"
        "from adjreal.gaussian import I, ONE, ZERO\n"
        "from adjreal.liecore import LieContext, jn_matrix\n"
        "from adjreal import matrix as m\n"
        "from adjreal.matrix import ExactMatrix, _Echelon\n"
        "def inexact(den):\n"
        "    echelon = _Echelon()\n"
        "    echelon.add({0: (2, 0), 1: (1, 0)})\n"
        "    echelon.den = den  # corrupt: the next division is inexact\n"
        "    echelon.add({1: (1, 0), 2: (1, 0)})\n"
        "def wrong_pivot():\n"
        "    right = m._exact_divider\n"
        "    m._exact_divider = lambda d: right((2 * d[0] + 1, 2 * d[1]))  # corrupt\n"
        "    try:\n"
        "        m.det(ExactMatrix.from_rows([[1, 2, 0], [3, 1, 1], [0, 1, 2]]))\n"
        "    finally:\n"
        "        m._exact_divider = right\n"
        "from adjreal import jordan\n"
        "from adjreal.polynomial import ExactPoly\n"
        "def jordan_with(name, fake):\n"
        "    right = getattr(jordan, name)\n"
        "    setattr(jordan, name, fake)\n"
        "    try:\n"
        "        jordan.jordan_chevalley(ExactMatrix.from_rows([[1, 1], [0, 1]]))\n"
        "    finally:\n"
        "        setattr(jordan, name, right)\n"
        "cases = {\n"
        "    'linear': lambda: s._witness_linear([ONE, ONE], LieContext('gl', 'GL', 2), False),\n"
        "    'projective': lambda: s._witness_projective_linear([ONE, ONE], LieContext('sl', 'PSL', 2)),\n"
        "    'symplectic': lambda: s._witness_symplectic_involution([ONE], LieContext('sp', 'Sp', 1)),\n"
        "    'so-pairs': lambda: s._so_eigenbasis(None, [(ONE, [[ONE, ZERO]])]),\n"
        "    'sp-pairs': lambda: s._sp_eigenbasis(None, [(ONE, [[ONE, ZERO]])], LieContext('sp', 'Sp', 1)),\n"
        "    'symmetric-form': lambda: s._orthogonalize_symmetric(\n"
        "        ExactMatrix.from_rows([[1, 1], [1, 1]])),\n"
        "    'antisymmetric-form': lambda: s._symplectic_pairs(\n"
        "        ExactMatrix.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]), -ONE),\n"
        "    'inexact-real': lambda: inexact((3, 0)),\n"
        "    'inexact-complex': lambda: inexact((1, 1)),\n"
        "    'det-wrong-pivot': wrong_pivot,\n"
        "    'jordan-non-unit-gcd': lambda: jordan_with(\n"
        "        'poly_xgcd', lambda p, q: (ExactPoly.x_power(1), ExactPoly.one(), ExactPoly.one())),\n"
        "    'jordan-no-convergence': lambda: jordan_with('_inverse_mod', lambda p, q: ExactPoly.zero()),\n"
        "    'witness-not-diagonalizable': lambda: s.witness_general_semisimple(\n"
        "        ExactMatrix.from_rows([[0, 1], [0, 0]]), LieContext('sl', 'SL', 2), False),\n"
        "    'witness-not-split': lambda: s.witness_general_semisimple(ExactMatrix.from_rows(\n"
        "        [[1, 0, 0], [0, 0, 2], [0, 1, 0]]), LieContext('gl', 'GL', 3), False),\n"
        "}\n"
        "for name, case in cases.items():\n"
        "    try:\n"
        "        case()\n"
        "    except (SelfCheckFailed, NotSemisimple, SpectrumNotSplit):\n"
        "        print(name)\n"
        "print(__debug__)\n"
    )
    src = os.path.dirname(os.path.dirname(adjreal.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [
        "linear", "projective", "symplectic", "so-pairs", "sp-pairs",
        "symmetric-form", "antisymmetric-form", "inexact-real", "inexact-complex",
        "det-wrong-pivot", "jordan-non-unit-gcd", "jordan-no-convergence",
        "witness-not-diagonalizable", "witness-not-split", "False",
    ]


# -- dense references for the monomial reverser builders ----------------------------


def _dense_rotation_reverser(n, pairs):
    """Per-pair blocks [[0,-1],[1,0]], identity elsewhere, entry by entry."""
    g = [[ZERO] * n for _ in range(n)]
    for k in range(n):
        g[k][k] = ONE
    for p, q in pairs:
        g[p][p] = ZERO
        g[q][q] = ZERO
        g[p][q] = -ONE
        g[q][p] = ONE
    return ExactMatrix.from_rows(g)


def _dense_swap_involution(n, pairs, zeros, flip_zero):
    """Per-pair swap blocks [[0,1],[1,0]], identity on zeros, with an
    optional -1 on the last zero coordinate, entry by entry."""
    g = [[ZERO] * n for _ in range(n)]
    for k in range(n):
        g[k][k] = ONE
    for p, q in pairs:
        g[p][p] = ZERO
        g[q][q] = ZERO
        g[p][q] = ONE
        g[q][p] = ONE
    if flip_zero:
        z = zeros[-1]
        g[z][z] = -ONE
    return ExactMatrix.from_rows(g)


def _dense_antidiag_rotation_blocks(m):
    """m x m antisymmetric B with [[0,-1],[1,0]] blocks on the
    antidiagonal; needs m even."""
    b = [[ZERO] * m for _ in range(m)]
    for t in range(m // 2):
        col = m - 2 * t - 2
        b[2 * t][col + 1] = -ONE
        b[2 * t + 1][col] = ONE
    return ExactMatrix.from_rows(b)


def _dense_jn_matrix(n):
    rows = [[ZERO] * (2 * n) for _ in range(2 * n)]
    for k in range(n):
        rows[k][n + k] = -ONE
        rows[n + k][k] = ONE
    return ExactMatrix.from_rows(rows)


def _reference_witness_linear(values, ctx, want_involution):
    pairs, zeros = semisimple._pair_indices(values)
    n = len(values)
    if not want_involution:
        return _dense_rotation_reverser(n, pairs)
    flip = ctx.group == "SL" and len(pairs) % 2 == 1
    return _dense_swap_involution(n, pairs, zeros, flip)


def _reference_witness_projective_linear(values):
    """Rotation blocks, i on the zero diagonal when the zeros are odd in
    number, and every entry scaled by the power of i that makes det 1."""
    pairs, zeros = semisimple._pair_indices(values)
    n = len(values)
    if len(zeros) % 2 == 0:
        zero_pairs = [(zeros[2 * t], zeros[2 * t + 1]) for t in range(len(zeros) // 2)]
        return _dense_rotation_reverser(n, pairs + zero_pairs)
    mat = _dense_rotation_reverser(n, pairs)
    for z in zeros:
        mat = with_entry(mat, z, z, I)
    return mat.scale(I ** (((-(len(zeros) % 4)) * pow(n, -1, 4)) % 4))


@st.composite
def _symmetric_spectra(draw, zeros):
    """A spectrum symmetric under negation with ``zeros`` zero values."""
    pool = [gr(1), gr(2), gr(0, 1), gr(1, -1), gr("1/2")]
    values = [ZERO] * zeros
    for v in draw(st.lists(st.sampled_from(pool), max_size=4)):
        values += [v, -v]
    if len(values) < 2:
        values += [gr(3), gr(-3)]
    return draw(st.permutations(values))


@pytest.mark.parametrize("zeros", range(4))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_monomial_reversers_match_dense_builders(zeros, data):
    """The linear witnesses at both levels (with the SL determinant flip)
    and the PSL witness (rotations for an even zero count, the i-twist for
    an odd one) equal the dense builders they replace."""
    values = data.draw(_symmetric_spectra(zeros))
    n = len(values)
    pairs = len(semisimple._pair_indices(values)[0])
    for algebra, group in (("gl", "GL"), ("sl", "SL")):
        ctx = LieContext(algebra, group, n)
        for want_involution in (False, True):
            if want_involution and group == "SL" and pairs % 2 and not zeros:
                continue  # NMod4 denies strong reality there
            assert semisimple._witness_linear(values, ctx, want_involution) == (
                _reference_witness_linear(values, ctx, want_involution)
            )
    g = semisimple._witness_projective_linear(values, LieContext("sl", "PSL", n))
    assert g == _reference_witness_projective_linear(values)
    assert det(g) == 1


def test_jn_matrix_matches_dense_builder():
    for n in range(1, 9):
        assert jn_matrix(n) == _dense_jn_matrix(n)


def _reference_symplectic_involution(values, ctx):
    """The Sp involution as first written: the block involution g on sorted
    coordinates, conjugated densely by S = S2 S1, S^-1 g S."""
    n = ctx.n
    flips = [j for j, v in enumerate(values) if not v.is_zero() and v != semisimple._pair_rep(v)]
    s1 = _dense_rotation_reverser(2 * n, [(j, n + j) for j in flips])
    hvals = [semisimple._pair_rep(v) if not v.is_zero() else v for v in values]
    order = sorted(range(n), key=lambda j: (hvals[j].lex_key(), j))
    rows = [[ZERO] * (2 * n) for _ in range(2 * n)]
    for a, old in enumerate(order):
        rows[a][old] = ONE
        rows[n + a][n + old] = ONE
    s = ExactMatrix.from_rows(rows) * s1
    sorted_vals = [hvals[j] for j in order]
    g = [[ZERO] * (2 * n) for _ in range(2 * n)]
    a = 0
    while a < n:
        b = a
        while b < n and sorted_vals[b] == sorted_vals[a]:
            b += 1
        if sorted_vals[a].is_zero():
            for j in range(a, b):
                g[j][j] = g[n + j][n + j] = ONE
        else:
            bmat = _dense_antidiag_rotation_blocks(b - a)
            cmat = minv(bmat)
            for p in range(b - a):
                for q in range(b - a):
                    g[a + p][n + a + q] = bmat[p, q]
                    g[n + a + p][a + q] = cmat[p, q]
        a = b
    return minv(s) * ExactMatrix.from_rows(g) * s


@st.composite
def _even_multiplicity_spectra(draw):
    """h for diag(h, -h) with every nonzero pair class of even size: each
    class value or its negative per slot, zeros, shuffled."""
    pool = [gr(1), gr(2), gr(0, 1), gr(1, -1), gr("1/2")]
    values = [ZERO] * draw(st.integers(0, 2))
    for base in draw(st.lists(st.sampled_from(pool), max_size=3)):
        for _ in range(draw(st.sampled_from((2, 4)))):
            values.append(base if draw(st.booleans()) else -base)
    if not values:
        values = [gr(-1), gr(1)]
    return draw(st.permutations(values))


@settings(max_examples=60, deadline=None)
@given(_even_multiplicity_spectra())
def test_symplectic_involution_matches_dense_conjugation(values):
    ctx = LieContext("sp", "Sp", len(values))
    g = semisimple._witness_symplectic_involution(values, ctx)
    assert g == _reference_symplectic_involution(values, ctx)
    assert g * g == ExactMatrix.identity(2 * len(values))


def test_symplectic_involution_uses_no_inverse_or_product(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense call in the Sp involution witness")

    for module in (matrix, semisimple):
        monkeypatch.setattr(module, "inverse", refuse)
    monkeypatch.setattr(ExactMatrix, "__mul__", refuse)
    values = [gr(-2), ZERO, gr(2), gr(0, -1), gr(0, 1), gr(-2), gr(-2)]
    semisimple._witness_symplectic_involution(values, LieContext("sp", "Sp", len(values)))


# -- bases adapted to a form, from its Gram matrix ---------------------------------


def _reference_orthogonalize_symmetric(vectors, pairing):
    """The symmetric Gram-Schmidt as first written, one pairing of two
    vectors at a time: diagonal Gram, no normalization."""
    rest = [list(v) for v in vectors]
    out = []
    while rest:
        pidx = next(
            (k for k, w in enumerate(rest) if not pairing(w, w).is_zero()), None
        )
        if pidx is None:
            pidx, b = next(
                ((a, b) for a in range(len(rest)) for b in range(a + 1, len(rest))
                 if not pairing(rest[a], rest[b]).is_zero()),
                (None, None),
            )
            if pidx is None:
                raise SelfCheckFailed("degenerate symmetric form")
            rest[pidx] = [x + y for x, y in zip(rest[pidx], rest[b])]
        pivot = rest.pop(pidx)
        out.append(pivot)
        c = pairing(pivot, pivot)
        rest = [
            [x - (pairing(w, pivot) / c) * y for x, y in zip(w, pivot)] for w in rest
        ]
    return out


def _reference_symplectic_pair_basis(vectors, pairing, target):
    """The symplectic Gram-Schmidt as first written, with the clearing
    signs mended: w + <q, w>/target p - <p, w>/target q pairs to zero
    with both p and q."""
    rest = [list(v) for v in vectors]
    firsts, seconds = [], []
    while rest:
        p = rest.pop(0)
        qidx = next(
            (k for k, w in enumerate(rest) if not pairing(p, w).is_zero()), None
        )
        if qidx is None:
            raise SelfCheckFailed("degenerate antisymmetric form")
        q = rest.pop(qidx)
        q = [e * (target / pairing(p, q)) for e in q]
        firsts.append(p)
        seconds.append(q)
        new_rest = []
        for w in rest:
            alpha = pairing(q, w) / target
            beta = -(pairing(p, w) / target)
            new_rest.append([e + alpha * a + beta * b for e, a, b in zip(w, p, q)])
        rest = [w for w in new_rest if any(not e.is_zero() for e in w)]
    return firsts, seconds


def _gram_pairing(g):
    """u^t G v, summed over the nonzero terms only (the value is the full
    sum's)."""
    entries = [
        (a, b, g[a, b]) for a in range(g.rows) for b in range(g.rows)
        if not g[a, b].is_zero()
    ]

    def pairing(u, v):
        total = ZERO
        for a, b, e in entries:
            if not (u[a].is_zero() or v[b].is_zero()):
                total = total + u[a] * e * v[b]
        return total

    return pairing


@st.composite
def _gram_matrices(draw, antisymmetric):
    """Symmetric (optionally with a zero diagonal, so the pair-sum pivot
    runs) or antisymmetric Gram matrices of size 1-8 with small entries."""
    n = draw(st.integers(1, 8))
    zero_diagonal = draw(st.booleans())
    rows = [[ZERO] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            if a == b and (antisymmetric or zero_diagonal):
                continue
            e = draw(st.sampled_from(SMALL_SCALARS))
            rows[a][b], rows[b][a] = e, (-e if antisymmetric else e)
    return ExactMatrix.from_rows(rows)


def _outcome(build):
    try:
        return build()
    except SelfCheckFailed as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(_gram_matrices(antisymmetric=False))
def test_orthogonalize_symmetric_matches_vector_reference(g):
    units = ExactMatrix.identity(g.rows).to_lists()
    got = _outcome(lambda: semisimple._orthogonalize_symmetric(g))
    want = _outcome(lambda: _reference_orthogonalize_symmetric(units, _gram_pairing(g)))
    if isinstance(want, str):
        assert got == want
        return
    t, tgt = got
    assert t == ExactMatrix.from_columns(want)
    assert tgt == t.transpose() * g * t
    assert tgt == ExactMatrix.diagonal([tgt[k, k] for k in range(g.rows)])


@settings(max_examples=150, deadline=None)
@given(_gram_matrices(antisymmetric=True), st.sampled_from([ONE, -ONE, gr("1/2", 1)]))
def test_symplectic_pairs_match_vector_reference(g, target):
    units = ExactMatrix.identity(g.rows).to_lists()
    got = _outcome(lambda: semisimple._symplectic_pairs(g, target))
    want = _outcome(
        lambda: _reference_symplectic_pair_basis(units, _gram_pairing(g), target)
    )
    if isinstance(want, str):
        assert got == want
        return
    t, tgt = got
    firsts, seconds = want
    assert t == ExactMatrix.from_columns([w for pair in zip(firsts, seconds) for w in pair])
    assert tgt == t.transpose() * g * t
    block = ExactMatrix.from_rows([[ZERO, target], [-target, ZERO]])
    assert tgt == ExactMatrix.block_diagonal([block] * (g.rows // 2))


def _sp_transvection(n, v, c):
    """I + c v (v^t J), which preserves J."""
    vj = [v[k + n] if k < n else -v[k - n] for k in range(2 * n)]
    return ExactMatrix.from_rows(
        [[(ONE if i == j else ZERO) + c * v[i] * vj[j] for j in range(2 * n)]
         for i in range(2 * n)]
    )


# diag(0, 0, 1, 1, 0, 0, -1, -1) in sp(4) conjugated by I - v v^t J with
# v = (-1, 0, 1, -1, 0, 1, -1, 0): its 4-dimensional kernel comes out of
# eigenspaces unpaired, so the symplectic zero block needs clearing
_V = [gr(e) for e in (-1, 0, 1, -1, 0, 1, -1, 0)]
_SP4_ZERO_BLOCK = (
    _sp_transvection(4, _V, -ONE)
    * ExactMatrix.diagonal([0, 0, 1, 1, 0, 0, -1, -1])
    * _sp_transvection(4, _V, ONE)
)


@pytest.mark.parametrize(
    "argv",
    [["witness", "--ctx", '{"algebra":"sp","group":"Sp","n":4}'],
     ["witness", "--ctx", '{"algebra":"sp","group":"Sp","n":4}', "--involution"],
     ["reverse"]],
    ids=["witness", "witness-involution", "reverse"],
)
def test_cli_reverses_sp4_element_with_four_dimensional_kernel(capsys, argv):
    matrix = json.dumps(_SP4_ZERO_BLOCK.to_json())
    code = main([*argv, "--matrix", matrix])
    out = capsys.readouterr().out
    assert code == 0, out
    cert = ReverserCertificate.from_json(json.loads(out))
    assert cert.element == _SP4_ZERO_BLOCK
    assert verify_certificate(cert).ok


@st.composite
def _conjugated_sp_with_kernel(draw):
    """diag(h, -h) in sp(n), n <= 5, with one to n zeros in h, after one or
    two transvections with entries in {-1, 0, 1}."""
    n = draw(st.integers(2, 5))
    zeros = draw(st.integers(1, n))
    pool = [gr(1), gr(2), gr(0, 1), gr(1, -1), gr(-1)]
    h = [ZERO] * zeros + draw(st.lists(st.sampled_from(pool), min_size=n - zeros,
                                       max_size=n - zeros))
    h = draw(st.permutations(h))
    x = ExactMatrix.diagonal(h + [-v for v in h])
    for _ in range(draw(st.integers(1, 2))):
        v = draw(st.lists(st.sampled_from([ZERO, ONE, -ONE]), min_size=2 * n,
                          max_size=2 * n))
        c = draw(st.sampled_from([ONE, -ONE]))
        x = _sp_transvection(n, v, c) * x * _sp_transvection(n, v, -c)
    return x


@settings(max_examples=40, deadline=None)
@given(_conjugated_sp_with_kernel())
def test_conjugated_sp_with_kernel_witnesses_verify(x):
    ctx = LieContext("sp", "Sp", x.rows // 2)
    certs = [witness_general_semisimple(x, ctx, False), symplectic.reverse_full(x)]
    if decide_semisimple(x, ctx).is_strongly_real == YES:
        certs.append(witness_general_semisimple(x, ctx, True))
    for cert in certs:
        assert cert.element == x
        assert verify_certificate(cert).ok


def test_adapted_bases_apply_no_form_per_vector(monkeypatch):
    """The so/sp eigenbases, the chain levels and the tau blocks pair
    vectors through one Gram product: no mul_vector while they run."""
    inside, calls = [], Counter()

    def watched(name, fn):
        def run(*args, **kwargs):
            calls[name] += 1
            inside.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()

        return run

    right = ExactMatrix.mul_vector

    def mul_vector(self, vec):
        assert not inside, f"mul_vector inside {inside[-1]}"
        return right(self, vec)

    monkeypatch.setattr(ExactMatrix, "mul_vector", mul_vector)
    for module, name in ((semisimple, "_so_eigenbasis"), (semisimple, "_sp_eigenbasis"),
                         (symplectic, "_adapted_levels"),
                         (symplectic, "_form_relative_reverser")):
        monkeypatch.setattr(module, name, watched(name, getattr(module, name)))
    so = build_canonical(CanonicalSemisimple("so", (gr(1), gr(2)), 3))
    assert verify_certificate(witness_general_semisimple(so, LieContext("so", "SO", 7), True)).ok
    assert verify_certificate(
        witness_general_semisimple(_SP4_ZERO_BLOCK, LieContext("sp", "Sp", 4), False)
    ).ok
    x = symplectic.mixed_from_partition([3, 3, 2, 2], {3: [gr(2)], 2: [gr(0, 1)]})[0]
    assert verify_certificate(symplectic.reverse_full(x)).ok
    assert set(calls) == {"_so_eigenbasis", "_sp_eigenbasis", "_adapted_levels",
                          "_form_relative_reverser"}
