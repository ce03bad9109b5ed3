"""sl2-triples, chain data, the sigma/tau factors, and full reversal."""

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import adjreal
from adjreal.certificates import verify_certificate
from adjreal.errors import (
    NotInCentralizer,
    NotNilpotent,
    SelfCheckFailed,
    SpectrumNotSplit,
    ZeroElement,
)
from adjreal.gaussian import I, ONE, ZERO, GaussRat, gr
from adjreal.liecore import LieContext, algebra_member, jn_matrix
from adjreal.matrix import ExactMatrix, _signed_conjugate, det, inverse, solve_linear
from adjreal.semisimple import _symplectic_pairs
from adjreal.symplectic import (
    Sl2Triple,
    SymplecticChainData,
    _form_relative_reverser,
    _model_form_and_shift,
    build_sigma,
    build_tau,
    chain_decomposition,
    mixed_from_partition,
    nilpotent_from_partition,
    restrict_semisimple,
    reverse_full,
    sl2_triple,
    symplectic_partitions,
)

from conftest import sp_basis


def test_sp_basis_dimension():
    assert len(sp_basis(2)) == 2 * (2 * 2 + 1)
    ctx = LieContext("sp", "Sp", 2)
    for b in sp_basis(2):
        assert algebra_member(b, ctx)


def test_triple_for_single_chain():
    x = nilpotent_from_partition([2])
    t = sl2_triple(x)
    t.validate()
    ctx = LieContext("sp", "Sp", 1)
    for m in (t.x, t.h, t.y):
        assert algebra_member(m, ctx)
    # the weight matrix of a length-2 chain is diag(+-1) in some basis
    assert sorted(str(v) for v in (t.h[0, 0], t.h[1, 1])) == ["-1", "1"]


def test_triple_for_two_two_partition():
    x = nilpotent_from_partition([2, 2])
    t = sl2_triple(x)
    t.validate()


def _commutator(a, b):
    return a * b - b * a


def _dense_solve_in_span(basis, operators, targets):
    """Reference: solve sum_i c_i * op(basis_i) = target for all (op,
    target) pairs by a dense system; returns the particular solution."""
    columns = []
    for b in basis:
        col = []
        for op in operators:
            col.extend(op(b).entries)
        columns.append(col)
    rhs = []
    for t in targets:
        rhs.extend(t.entries)
    coeffs, _ = solve_linear(ExactMatrix.from_columns(columns), rhs)
    out = ExactMatrix.zeros(basis[0].rows)
    for c, b in zip(coeffs, basis):
        if not c.is_zero():
            out = out + b.scale(c)
    return out


def _dense_sl2_triple(x, h, xs=None):
    """Reference: (X, H, Y) with Y solved from dense commutators with every
    sp_basis matrix: [X, Y] = H, [H, Y] = -2Y and [Y, X_s] = 0, whose
    solution is unique, as the centralizer of X has ad-H weights >= 0.
    First checks that H = [X, W] for some W in sp commuting with X_s
    (InconsistentSystem otherwise)."""
    basis = sp_basis(x.rows // 2)
    zero = ExactMatrix.zeros(x.rows)
    others = [] if xs is None else [xs]
    _dense_solve_in_span(
        basis,
        [lambda w: _commutator(x, w)]
        + [lambda w, s=s: _commutator(w, s) for s in others],
        [h] + [zero] * len(others),
    )
    ops_y = [
        lambda yy: _commutator(x, yy),
        lambda yy: _commutator(h, yy) + yy.scale(2),
    ]
    targets_y = [h, zero]
    for s in others:
        ops_y.append(lambda yy, s=s: _commutator(yy, s))
        targets_y.append(zero)
    return x, h, _dense_solve_in_span(basis, ops_y, targets_y)


def _check_triple(x, xs=None):
    """sl2_triple(x, xs) against the dense reference, and the properties
    of the chain data it is read off: H and Y in sp and commuting with
    X_s, B^t J B = Q and B^-1 B = I."""
    t = sl2_triple(x, xs)
    assert (t.x, t.h, t.y) == _dense_sl2_triple(x, t.h, xs)
    ctx = LieContext("sp", "Sp", x.rows // 2)
    assert algebra_member(t.h, ctx) and algebra_member(t.y, ctx)
    if xs is not None:
        assert _commutator(t.h, xs).is_zero() and _commutator(t.y, xs).is_zero()
    cd = chain_decomposition(x, xs)
    b = cd.basis
    assert b.transpose() * jn_matrix(x.rows // 2) * b == cd.form()
    assert cd.basis_inverse * b == ExactMatrix.identity(x.rows)


def test_sparse_triple_matches_dense_reference_on_nilpotents():
    for total in (2, 4, 6, 8):
        for parts in symplectic_partitions(total):
            if max(parts) == 1:
                continue
            _check_triple(nilpotent_from_partition(parts))


_MIXED_CONFIGS = [
    ([2, 2], {2: [gr(3)]}),
    ([3, 3], {3: [gr(2)]}),
    ([2, 2, 1, 1], {2: [gr(4)], 1: [gr(1)]}),
    ([4, 4], {4: [I]}),
    ([3, 3, 2], {3: [gr("1/2")]}),
    ([2, 2, 2, 2], {2: [gr(1), gr(-2)]}),
]


@pytest.mark.parametrize("parts, params", _MIXED_CONFIGS)
def test_sparse_triple_matches_dense_reference_on_mixed(parts, params):
    x, xs, xn = mixed_from_partition(parts, params)
    _check_triple(xn, xs)


def test_validate_raises_typed_error_under_optimize():
    """The self-checks of the triple and of the chain basis, the model
    builder's partition check and the certificate check of reverse_full
    are not asserts: python -O keeps them.  The last is the only check of
    a reverser composed from a wrong B^-1 (here 2 B^-1, so g = 2 sigma
    still negates X but is not symplectic)."""
    code = (
        "from adjreal import symplectic\n"
        "from adjreal.errors import SelfCheckFailed\n"
        "from adjreal.symplectic import (\n"
        "    Sl2Triple, SymplecticChainData, chain_decomposition,\n"
        "    nilpotent_from_partition, sl2_triple)\n"
        "def with_basis(cd, basis, basis_inverse):\n"
        "    return SymplecticChainData(\n"
        "        cd.n, cd.x, cd.parts, cd.counts, cd.heads, cd.gram, basis, basis_inverse)\n"
        "t = sl2_triple(nilpotent_from_partition([2]))\n"
        "bad = Sl2Triple(t.x, t.h.scale(2), t.y)\n"
        "try:\n"
        "    bad.validate()\n"
        "except SelfCheckFailed as exc:\n"
        "    print(__debug__, 'SelfCheckFailed', exc)\n"
        "cd = chain_decomposition(nilpotent_from_partition([2, 2]))\n"
        "try:\n"
        "    with_basis(cd, cd.basis.scale(2), cd.basis_inverse).validate()\n"
        "except SelfCheckFailed as exc:\n"
        "    print(__debug__, 'SelfCheckFailed', exc)\n"
        "try:\n"
        "    nilpotent_from_partition([1])\n"
        "except SelfCheckFailed as exc:\n"
        "    print(__debug__, 'SelfCheckFailed', exc)\n"
        "def doubled_inverse(xn, xs):\n"
        "    cd = chain_decomposition(xn, xs)\n"
        "    return with_basis(cd, cd.basis, cd.basis_inverse.scale(2))\n"
        "symplectic.chain_decomposition = doubled_inverse\n"
        "try:\n"
        "    symplectic.reverse_full(nilpotent_from_partition([2, 2]))\n"
        "except SelfCheckFailed as exc:\n"
        "    print(__debug__, 'SelfCheckFailed', exc)\n"
    )
    src = os.path.dirname(os.path.dirname(adjreal.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 4, run.stdout
    assert all(line.startswith("False SelfCheckFailed") for line in lines), run.stdout
    assert lines[-1].startswith("False SelfCheckFailed symplectic reverser failed:")


def test_triple_validate_rejects_h_or_y_outside_sp():
    t = sl2_triple(nilpotent_from_partition([2, 2]))
    for bad in (Sl2Triple(t.x, t.h.plus_scalar(ONE), t.y),
                Sl2Triple(t.x, t.h, t.y.plus_scalar(ONE))):
        with pytest.raises(SelfCheckFailed, match="^H or Y is not in sp$"):
            bad.validate()


def test_triple_rejects_zero_and_non_nilpotent():
    with pytest.raises(ZeroElement):
        sl2_triple(ExactMatrix.zeros(2))
    with pytest.raises(NotNilpotent):
        sl2_triple(ExactMatrix.diagonal([gr(1), gr(-1)]))


def test_chain_data_single_even_chain():
    x = nilpotent_from_partition([2])
    cd = chain_decomposition(x)
    assert cd.parts == (2,)
    assert cd.counts[2] == 1
    g = cd.gram[2]
    assert g.rows == 1 and not g[0, 0].is_zero()
    assert g.transpose() == g


def test_chain_data_odd_pair():
    x = nilpotent_from_partition([3, 3])
    cd = chain_decomposition(x)
    assert cd.counts[3] == 2
    g = cd.gram[3]
    assert g.transpose() == g.scale(-ONE)
    assert not det(g).is_zero()


def test_chain_data_partition_sum():
    x = nilpotent_from_partition([4])
    cd = chain_decomposition(x)
    assert cd.counts[4] == 1
    assert sum(d * cd.counts[d] for d in cd.parts) == 4


def test_chain_heads_have_expected_weight_and_vanishing():
    x = nilpotent_from_partition([4, 2, 2])
    t = sl2_triple(x)
    cd = chain_decomposition(x)
    for d in cd.parts:
        w = 1 - d
        for v in cd.heads[d]:
            assert t.h.mul_vector(v) == [GaussRat_scale(c, w) for c in v]
            powered = v
            for _ in range(d):
                powered = x.mul_vector(powered)
            assert all(c.is_zero() for c in powered)
            # X^{d-1} v is nonzero
            prev = v
            for _ in range(d - 1):
                prev = x.mul_vector(prev)
            assert any(not c.is_zero() for c in prev)


def GaussRat_scale(c, k: int):
    from adjreal.gaussian import GaussRat

    return c * GaussRat.from_int(k)


def test_sigma_single_chain_diagonal():
    x = nilpotent_from_partition([2])
    cd = chain_decomposition(x)
    sigma = build_sigma(cd)
    # in the chain basis sigma is diag(i, -i)
    d = inverse(cd.basis) * sigma * cd.basis
    assert d == ExactMatrix.diagonal([I, -I])


def test_sigma_odd_chain_signs():
    x = nilpotent_from_partition([3, 3])
    cd = chain_decomposition(x)
    sigma = build_sigma(cd)
    d = inverse(cd.basis) * sigma * cd.basis
    assert d == ExactMatrix.diagonal([1, 1, -1, -1, 1, 1])


def test_sigma_preserves_symplectic_form_on_all_partitions():
    for total in (2, 4, 6):
        for parts in symplectic_partitions(total):
            if max(parts) == 1:
                continue
            x = nilpotent_from_partition(parts)
            cd = chain_decomposition(x)
            sigma = build_sigma(cd)
            j = jn_matrix(total // 2)
            assert sigma.transpose() * j * sigma == j
            assert (sigma * x + x * sigma).is_zero()


def test_restrict_semisimple_blocks():
    x, xs, xn = mixed_from_partition([2, 2], {2: [gr(3)]})
    cd = chain_decomposition(xn, xs)
    blocks = restrict_semisimple(xs, cd)
    assert set(blocks) == {2}
    b = blocks[2]
    assert not b.is_zero()
    # infinitesimal invariance for the head form
    g = cd.gram[2]
    assert (b.transpose() * g + g * b).is_zero()


def test_restrict_zero_semisimple():
    x = nilpotent_from_partition([2, 2])
    cd = chain_decomposition(x)
    blocks = restrict_semisimple(ExactMatrix.zeros(4), cd)
    assert all(b.is_zero() for b in blocks.values())


def test_restrict_rejects_non_commuting():
    x = nilpotent_from_partition([2, 2])
    cd = chain_decomposition(x)
    bad = ExactMatrix.diagonal([gr(1), gr(2), gr(-1), gr(-2)])
    with pytest.raises(NotInCentralizer):
        restrict_semisimple(bad, cd)


def test_tau_reverses_semisimple_and_fixes_nilpotent():
    x, xs, xn = mixed_from_partition([3, 3], {3: [gr(2)]})
    cd = chain_decomposition(xn, xs)
    tau = build_tau(restrict_semisimple(xs, cd), cd)
    assert (tau * xs + xs * tau).is_zero()
    assert tau * xn == xn * tau
    j = jn_matrix(3)
    assert tau.transpose() * j * tau == j


def test_tau_block_preserves_head_form_characterization():
    """The centralizer characterization on chain bases: tau acts by the
    same block on every level and preserves (., .)_d exactly."""
    x, xs, xn = mixed_from_partition([2, 2, 1, 1], {2: [gr(4)], 1: [gr(1)]})
    cd = chain_decomposition(xn, xs)
    tau = build_tau(restrict_semisimple(xs, cd), cd)
    m = inverse(cd.basis) * tau * cd.basis
    for d in cd.parts:
        t = cd.counts[d]
        base = cd.level_offset(d, 0)
        block0 = ExactMatrix.from_rows(
            [[m[base + a, base + b] for b in range(t)] for a in range(t)]
        )
        for level in range(1, d):
            off = cd.level_offset(d, level)
            block = ExactMatrix.from_rows(
                [[m[off + a, off + b] for b in range(t)] for a in range(t)]
            )
            assert block == block0
        g = cd.gram[d]
        assert block0.transpose() * g * block0 == g


def test_sigma_is_scalar_on_head_blocks():
    x, xs, xn = mixed_from_partition([2, 2], {2: [gr(3)]})
    cd = chain_decomposition(xn, xs)
    sigma = build_sigma(cd)
    m = inverse(cd.basis) * sigma * cd.basis
    base = cd.level_offset(2, 0)
    t = cd.counts[2]
    block = ExactMatrix.from_rows(
        [[m[base + a, base + b] for b in range(t)] for a in range(t)]
    )
    assert block == ExactMatrix.identity(t).scale(I)
    assert (sigma * xs - xs * sigma).is_zero()


def test_reverse_full_nilpotent():
    x = nilpotent_from_partition([2])
    cert = reverse_full(x)
    assert verify_certificate(cert).ok
    assert not cert.claims_involution


def test_reverse_full_semisimple_rank_one():
    x = ExactMatrix.diagonal([gr(6), gr(-6)])
    cert = reverse_full(x)
    assert verify_certificate(cert).ok
    assert cert.reverser == jn_matrix(1)


def test_reverse_full_mixed():
    x, xs, xn = mixed_from_partition([2, 2], {2: [gr(3)]})
    cert = reverse_full(x)
    assert verify_certificate(cert).ok


def test_reverse_full_mixed_size_sixteen():
    x, xs, xn = mixed_from_partition([4, 4, 4, 4], {4: [gr(1), gr(2)]})
    cert = reverse_full(x)
    assert cert.reverser.rows == 16
    assert verify_certificate(cert).ok


def test_reverse_full_zero():
    cert = reverse_full(ExactMatrix.zeros(2))
    assert verify_certificate(cert).ok


def test_reverse_full_random_mixed(rng):
    pool = [gr(1), gr(-1), gr(2), I, gr("1/2")]
    configs = [([2, 2], {2: 1}), ([3, 3], {3: 1}), ([1, 1, 2], {1: 1}),
               ([2, 2, 2], {2: 1}), ([1, 1, 1, 1], {1: 2})]
    for _ in range(12):
        parts, pair_counts = configs[rng.randrange(len(configs))]
        params = {d: [rng.choice(pool) for _ in range(k)] for d, k in pair_counts.items()}
        x, xs, xn = mixed_from_partition(parts, params)
        cert = reverse_full(x)
        assert verify_certificate(cert).ok


def _irrational_mixed_element():
    """X = X_s + X_n in sp(2) with X_s eigenvalues +-sqrt(2) (outside
    Q(i)) and a commuting nonzero nilpotent part."""
    a = ExactMatrix.from_rows([[0, 1], [2, 0]])
    xs = ExactMatrix.block_diagonal([a, -a.transpose()])
    xn = ExactMatrix.from_rows(
        [[0, 0, 1, 0], [0, 0, 0, -2], [0, 0, 0, 0], [0, 0, 0, 0]]
    )
    assert algebra_member(xs + xn, LieContext("sp", "Sp", 2))
    assert (xs * xn - xn * xs).is_zero()
    return xs + xn


def test_reverse_full_irrational_semisimple_part():
    from adjreal.errors import SpectrumNotSplit

    x = _irrational_mixed_element()
    with pytest.raises(SpectrumNotSplit):
        reverse_full(x)


def test_sigma_still_available_for_irrational_mixed():
    # the nilpotent-negating factor never needs eigenvalues of X_s
    from adjreal.jordan import jordan_chevalley

    x = _irrational_mixed_element()
    pair = jordan_chevalley(x)
    cd = chain_decomposition(pair.nilpotent_part, pair.semisimple_part)
    sigma = build_sigma(cd)
    assert (sigma * pair.nilpotent_part + pair.nilpotent_part * sigma).is_zero()
    assert (sigma * pair.semisimple_part - pair.semisimple_part * sigma).is_zero()


def test_chain_data_json():
    x = nilpotent_from_partition([2, 2])
    cd = chain_decomposition(x)
    blob = cd.to_json()
    assert blob["parts"] == [2]
    assert blob["counts"] == {"2": 2}
    assert len(blob["basis"]["entries"]) == 4


def _transvection(n, v, c):
    """I + c v (v^T J) for the standard form J, which preserves J."""
    vj = [v[k + n] if k < n else -v[k - n] for k in range(2 * n)]
    return ExactMatrix.from_rows(
        [[(ONE if i == j else ZERO) + c * v[i] * vj[j] for j in range(2 * n)]
         for i in range(2 * n)]
    )


def _conjugated(x, vectors):
    """x conjugated by the transvection of each vector in turn (entries in
    the wire grammar)."""
    n = x.rows // 2
    for v in vectors:
        v = [GaussRat.parse(e) for e in v]
        x = _transvection(n, v, ONE) * x * _transvection(n, v, -ONE)
    return x


_TRANSVECTIONS_8 = (
    ["-i", "-1", "3*i", "1/3-2*i", "0", "1", "-3/2", "1"],
    ["-i", "1-i", "0", "-3/2", "2", "0", "1", "3*i"],
)


def _certificate_digest(cert):
    return hashlib.sha256(json.dumps(cert.to_json(), sort_keys=True).encode()).hexdigest()


def test_reverse_full_on_conjugated_8x8_nilpotent_is_pinned():
    """The (4,4) nilpotent of sp(4) after two symplectic transvections.
    The certificate is pinned byte for byte."""
    x = _conjugated(nilpotent_from_partition([4, 4]), _TRANSVECTIONS_8)
    cert = reverse_full(x)
    g = cert.reverser
    assert cert.element == x
    assert g * x == -(x * g)
    assert verify_certificate(cert).ok
    assert _certificate_digest(cert) == (
        "52ac8f317a1be70f1138123a5539f45cd8bf0c14d0bea9113837ddd523a9f046"
    )


def test_reverse_full_on_conjugated_12x12_nilpotent_is_pinned():
    """The (6,4,2) nilpotent of sp(6) after one symplectic transvection:
    three chain lengths, so the heads of the shorter chains come from the
    orthogonal complement of the longer ones.  The certificate is pinned
    byte for byte."""
    x = _conjugated(
        nilpotent_from_partition([6, 4, 2]),
        [["1", "-i", "2", "0", "1/2", "-1", "i", "3", "0", "-2", "1+i", "1"]],
    )
    cert = reverse_full(x)
    assert cert.element == x
    assert verify_certificate(cert).ok
    assert _certificate_digest(cert) == (
        "acb0f2e8a4e8926da46fb22586396c292a4c53dc9a6bd1395d44507a03e4e94f"
    )


# odd parts of multiplicity 4 after one transvection: the head pairs of
# the odd part need clearing against each other
_ODD_PART_CONJUGATES = [
    ((6, 1, 1, 1, 1), ["1", "0", "1", "0", "1", "1", "1", "1", "-1", "0"]),
    ((3, 3, 3, 3), ["0", "1", "1", "-1", "1", "1", "1", "0", "-1", "0", "0", "0"]),
]


def _normal_gram(g, d):
    """gram[d]'s normal form: interleaved [[0, 1], [-1, 0]] blocks for odd
    d, its own diagonal for even d."""
    if d % 2 == 0:
        return ExactMatrix.diagonal([g[k, k] for k in range(g.rows)])
    block = ExactMatrix.from_rows([[0, 1], [-1, 0]])
    return ExactMatrix.block_diagonal([block] * (g.rows // 2))


@pytest.mark.parametrize("parts, v", _ODD_PART_CONJUGATES, ids=str)
def test_conjugated_odd_part_gram_is_pair_normal(parts, v):
    x = _conjugated(nilpotent_from_partition(parts), [v])
    cd = chain_decomposition(x)
    assert cd.partition() == list(parts)
    for d in cd.parts:
        assert cd.gram[d] == _normal_gram(cd.gram[d], d)
    assert verify_certificate(reverse_full(x)).ok


def _rechosen_heads(cd, d, t):
    """cd with the d-heads changed by U -> U T on every level: a chain
    basis that still carries its form, with gram[d] -> T^t gram[d] T."""
    m = ExactMatrix.block_diagonal(
        [t if dd == d else ExactMatrix.identity(cd.counts[dd])
         for dd in cd.parts for _ in range(dd)]
    )
    gram = dict(cd.gram)
    gram[d] = t.transpose() * cd.gram[d] * t
    return SymplecticChainData(
        cd.n, cd.x, cd.parts, cd.counts, cd.heads, gram, cd.basis * m, inverse(m) * cd.basis_inverse
    )


@pytest.mark.parametrize(
    "parts, d, t",
    [([2, 1, 1], 1, ExactMatrix.diagonal([1, 2])),
     ([2, 2], 2, ExactMatrix.from_rows([[1, 1], [0, 1]]))],
)
def test_validate_wants_the_normal_chain_gram(parts, d, t):
    """A head change keeps B^t J B = Q but moves gram[d] off its normal
    form: [[0, 2], [-2, 0]] for the odd part, a non-diagonal one for the
    even part."""
    cd = chain_decomposition(nilpotent_from_partition(parts))
    _rechosen_heads(cd, d, ExactMatrix.identity(t.rows)).validate()
    with pytest.raises(SelfCheckFailed, match="^chain form is not in normal form$"):
        _rechosen_heads(cd, d, t).validate()


def _conjugated_mixed_8x8():
    """(X, X_s, X_n) for the mixed (4,4) element with parameter i, all
    three conjugated by the first 8x8 transvection."""
    return tuple(
        _conjugated(m, _TRANSVECTIONS_8[:1])
        for m in mixed_from_partition([4, 4], {4: [I]})
    )


def test_triple_matches_dense_reference_on_conjugated_8x8():
    """The triple read off the chain basis of the conjugated (4,4)
    nilpotent and of two conjugated mixed elements, against the dense
    reference.  In the (3,3,1,1) element X_s has eigenvalues +-2 on the
    long chains and +-1 on the short ones, and a unit vector mixes all
    four: its X_s-orbit is wider than that of its image under X^2."""
    _check_triple(_conjugated(nilpotent_from_partition([4, 4]), _TRANSVECTIONS_8))
    _, xs, xn = _conjugated_mixed_8x8()
    _check_triple(xn, xs)
    x, xs, xn = (
        _conjugated(m, _TRANSVECTIONS_8[:1])
        for m in mixed_from_partition([3, 3, 1, 1], {3: [gr(2)], 1: [gr(1)]})
    )
    _check_triple(xn, xs)
    assert verify_certificate(reverse_full(x)).ok


def test_reverse_full_builds_no_triple_and_no_basis_inverse(monkeypatch):
    """sigma and tau use the chain data's B^-1 = Q^-1 B^t J: reverse_full
    completes no sl2-triple and inverts nothing of the chain basis's size."""
    from adjreal import symplectic

    sizes = []

    def counted(a):
        sizes.append(a.rows)
        return inverse(a)

    def no_triple(*args):
        raise AssertionError("reverse_full built an sl2-triple")

    nilpotent = _conjugated(nilpotent_from_partition([4, 4]), _TRANSVECTIONS_8)
    mixed, _, _ = _conjugated_mixed_8x8()
    monkeypatch.setattr(symplectic, "inverse", counted)
    monkeypatch.setattr(symplectic, "sl2_triple", no_triple)
    for x in (nilpotent, mixed):
        assert verify_certificate(reverse_full(x)).ok
    assert sizes and max(sizes) < 8


def _no_power(self, k):
    raise AssertionError("ExactMatrix.power called")


def test_reverse_full_composes_sigma_tau_in_chain_basis(monkeypatch):
    """reverse_full leaves the chain basis once, B (Sigma T) B^-1, and its
    reverser is the product of the separately built sigma and tau;
    chain_decomposition reads nilpotency off its own power ladder."""
    from adjreal.symplectic import SymplecticChainData

    cases = [mixed_from_partition(parts, params) for parts, params in _MIXED_CONFIGS]
    cases.append(_conjugated_mixed_8x8())
    from_chain = SymplecticChainData.from_chain
    for x, xs, xn in cases:
        calls = []

        def counted(cd, m):
            calls.append(m.rows)
            return from_chain(cd, m)

        with monkeypatch.context() as patch:
            patch.setattr(SymplecticChainData, "from_chain", counted)
            patch.setattr(ExactMatrix, "power", _no_power)
            g = reverse_full(x).reverser
            assert calls == [x.rows]
            cd = chain_decomposition(xn, xs)
        assert g == build_sigma(cd) * build_tau(restrict_semisimple(xs, cd), cd)


def test_non_nilpotent_is_caught_by_the_chain_ladder(monkeypatch):
    """NotNilpotent comes from the first power ladder, bounded at 2n, and
    wins over NotInCentralizer for a semisimple that does not commute."""
    monkeypatch.setattr(ExactMatrix, "power", _no_power)
    h = ExactMatrix.diagonal([gr(1), gr(-1)])
    swap = ExactMatrix.from_rows([[0, 1], [1, 0]])
    mixed, _, xn = _conjugated_mixed_8x8()
    scalars = ExactMatrix.diagonal([gr(k) for k in (1, 2, 3, 4, -1, -2, -3, -4)])
    assert not _commutator(scalars, xn).is_zero()
    with pytest.raises(NotInCentralizer):
        chain_decomposition(xn, scalars)
    for x, bad in ((h, swap), (mixed, scalars)):
        for build in (chain_decomposition, sl2_triple):
            for semisimple in (None, bad):
                with pytest.raises(NotNilpotent):
                    build(x, semisimple)


def test_reverse_full_on_conjugated_24x24_nilpotent():
    """The (12,12) nilpotent of sp(12) after one symplectic transvection
    I + v v^t J, v_k = a + b i with a in [-2, 2] and b in [-1, 1] drawn
    from random.Random(7)."""
    rng = random.Random(7)
    v = [GaussRat(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(24)]
    x = nilpotent_from_partition([12, 12])
    x = _transvection(12, v, ONE) * x * _transvection(12, v, -ONE)
    cert = reverse_full(x)
    assert cert.element == x
    assert verify_certificate(cert).ok


def test_form_relative_reverser_keeps_its_spectrum_message():
    # eigenvalues +-sqrt(2)
    xsd = ExactMatrix.from_rows([[0, 2], [1, 0]])
    with pytest.raises(
        SpectrumNotSplit, match=r"^semisimple block has eigenvalues outside Q\(i\)$"
    ):
        _form_relative_reverser(xsd, None, odd=False)


def _reference_model(parts, params):
    """The model shift X', semisimple part S' and antisymmetric Gram Q'
    as the builders first wrote them, entry by entry."""
    offsets, pos = [], 0
    for d in parts:
        offsets.append(pos)
        pos += d
    xp, sp, qp = ([[ZERO] * pos for _ in range(pos)] for _ in range(3))
    for d, off in zip(parts, offsets):
        for level in range(d - 1):
            xp[off + level + 1][off + level] = ONE
    by_part = {}
    for idx, d in enumerate(parts):
        by_part.setdefault(d, []).append(idx)
    for d, idxs in by_part.items():
        if d % 2 == 0:
            for idx in idxs:
                off = offsets[idx]
                for level in range(d):
                    qp[off + level][off + d - 1 - level] = ONE if level % 2 == 0 else -ONE
        else:
            for a, b in zip(idxs[0::2], idxs[1::2]):
                oa, ob = offsets[a], offsets[b]
                for level in range(d):
                    sign = ONE if level % 2 == 0 else -ONE
                    qp[oa + level][ob + d - 1 - level] = sign
                    qp[ob + d - 1 - level][oa + level] = -sign
    for d, idxs in sorted(by_part.items()):
        for (a, b), mu in zip(zip(idxs[0::2], idxs[1::2]), params.get(d, ())):
            oa, ob = offsets[a], offsets[b]
            for level in range(d):
                if d % 2 == 0:
                    sp[oa + level][ob + level] = mu
                    sp[ob + level][oa + level] = -mu
                else:
                    sp[oa + level][oa + level] = mu
                    sp[ob + level][ob + level] = -mu
    return tuple(ExactMatrix.from_rows(m) for m in (xp, sp, qp))


def _reference_isometry(qp):
    """T with T^t J T = Q' by symplectic Gram-Schmidt on Q': the inverse
    of the pairs (p_a | q_a) that bring Q' to J."""
    pairs, _ = _symplectic_pairs(qp, -ONE)
    columns = [pairs.column(k) for k in range(pairs.cols)]
    return inverse(ExactMatrix.from_columns(columns[0::2] + columns[1::2]))


def _builder_params(parts):
    """One parameter per chain pair, cycling through values with i in them."""
    pool = [I, gr(2), gr(1, -1), gr(-3), gr("1/2", 1)]
    return {d: pool[: parts.count(d) // 2] for d in set(parts)}


_BUILDER_PARTITIONS = [
    parts for total in range(2, 13, 2) for parts in symplectic_partitions(total)
] + [(16, 14), (10, 8, 6, 4, 2)]


@pytest.mark.parametrize("parts", _BUILDER_PARTITIONS, ids=str)
def test_model_builders_match_gram_schmidt_isometry(parts):
    """The reindexed builders return the matrices of the conjugation by
    the Gram-Schmidt isometry and its inverse, and T is that isometry."""
    params = _builder_params(list(parts))
    xp, sp, qp = _reference_model(list(parts), params)
    t = _reference_isometry(qp)
    t_inv = inverse(t)
    assert nilpotent_from_partition(parts) == t * xp * t_inv
    x, xs, xn = mixed_from_partition(parts, params)
    assert (xs, xn, x) == (t * sp * t_inv, t * xp * t_inv, t * (sp + xp) * t_inv)
    _, images, _ = _model_form_and_shift(list(parts))
    assert _signed_conjugate(qp, images) == jn_matrix(sum(parts) // 2)
    assert all(t[i, k] == gr(s) for k, (i, s) in enumerate(images))


def test_model_builders_use_no_inverse_product_or_gram_schmidt(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense call in a model builder")

    for module in ("matrix", "semisimple", "symplectic"):
        monkeypatch.setattr(f"adjreal.{module}.inverse", refuse)
    for module in ("semisimple", "symplectic"):
        monkeypatch.setattr(f"adjreal.{module}._symplectic_pairs", refuse)
    monkeypatch.setattr(ExactMatrix, "__mul__", refuse)
    parts = (10, 8, 6, 4, 2)
    nilpotent_from_partition(parts)
    mixed_from_partition(parts, _builder_params(list(parts)))
    mixed_from_partition((3, 3, 1, 1), {3: [gr(2)], 1: [I]})
