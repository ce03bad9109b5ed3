"""Reversers for arbitrary elements of sp(n, C).

Pipeline: split X = X_s + X_n (Jordan-Chevalley); complete X_n to an
sl2-triple chosen inside the centralizer of X_s; decompose C^{2n} into
chains X^l v_j^d; build sigma acting by (-1)^l (odd chain length) or
(-1)^l i (even length) along each chain, which negates X_n and fixes X_s;
restrict X_s to the chain-head spaces, reverse each restriction relative
to the induced form (v, u)_d = <v, X^{d-1} u>, and embed the result
diagonally along levels to get tau, which negates X_s and fixes X_n.
The product sigma * tau then conjugates X to -X inside Sp(n, C).

Everything is exact over Q(i); only the tau branch can fail, when the
semisimple part has eigenvalues outside Q(i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .certificates import ReverserCertificate, verify_certificate
from .errors import (
    AlgebraMismatch,
    NotInCentralizer,
    NotNilpotent,
    SelfCheckFailed,
    SizeMismatch,
    SpectrumNotSplit,
    ZeroElement,
)
from .gaussian import I, ONE, ZERO, GaussRat, _cleared
from .jordan import jordan_chevalley
from .liecore import LieContext, algebra_member, jn_matrix, kernel
from .matrix import (
    ExactMatrix,
    char_poly,
    det,
    eigenspaces,
    inverse,
    is_nilpotent,
    solve_sparse,
)
from .semisimple import (
    _bilinear,
    _dual_basis,
    _orthogonalize_symmetric,
    _pair_rep,
    _symplectic_pair_basis,
    witness_general_semisimple,
)


def _sp_context(x: ExactMatrix) -> LieContext:
    if not x.is_square() or x.rows % 2:
        raise SizeMismatch("symplectic elements live in even dimension")
    ctx = LieContext("sp", "Sp", x.rows // 2)
    if not algebra_member(x, ctx):
        raise AlgebraMismatch("element is not in sp(n)")
    return ctx


def _commutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return a * b - b * a


def _sp_basis_entries(n: int):
    """The basis of sp(n) behind ``sp_basis``, each element as its nonzero
    entries {(row, col): (re, im)}: one or two unit entries (+-1, 0)."""
    out = []
    for p in range(n):
        for q in range(n):
            out.append({(p, q): (1, 0), (n + q, n + p): (-1, 0)})
    for p in range(n):
        for q in range(p, n):
            out.append({(p, n + q): (1, 0), (q, n + p): (1, 0)})
    for p in range(n):
        for q in range(p, n):
            out.append({(n + p, q): (1, 0), (n + q, p): (1, 0)})
    return out


def sp_basis(n: int):
    """Deterministic basis of sp(n): blocks [[A, B], [C, -A^t]] with B, C
    symmetric."""
    size = 2 * n
    out = []
    for entries in _sp_basis_entries(n):
        flat = [ZERO] * (size * size)
        for (i, j), v in entries.items():
            flat[i * size + j] = GaussRat(*v)
        out.append(ExactMatrix(size, size, flat))
    return out


@dataclass(frozen=True)
class Sl2Triple:
    """{X, H, Y} with [H,X] = 2X, [H,Y] = -2Y, [X,Y] = H, all in sp."""

    x: ExactMatrix
    h: ExactMatrix
    y: ExactMatrix

    def validate(self):
        if _commutator(self.h, self.x) != self.x.scale(2):
            raise SelfCheckFailed("[H,X] != 2X")
        if _commutator(self.h, self.y) != self.y.scale(-2):
            raise SelfCheckFailed("[H,Y] != -2Y")
        if _commutator(self.x, self.y) != self.h:
            raise SelfCheckFailed("[X,Y] != H")

    def to_json(self):
        return {"x": self.x.to_json(), "h": self.h.to_json(), "y": self.y.to_json()}


# Sparse matrices in the sl2 system are {(row, col): (re, im)} maps of
# their nonzero Gaussian-integer entries; a fixed operand M is indexed by
# row and by column.


def _cleared_indexed(m: ExactMatrix):
    """(d, (by_row, by_col)) with m = M / d for a Gaussian-integer M whose
    nonzero entries (col, re, im) are listed per row, and (row, re, im)
    per column."""
    d, nonzero = _cleared(m.entries)
    by_row: dict = {}
    by_col: dict = {}
    for k, re, im in nonzero:
        i, j = divmod(k, m.cols)
        by_row.setdefault(i, []).append((j, re, im))
        by_col.setdefault(j, []).append((i, re, im))
    return d, (by_row, by_col)


def _bracket(a: dict, m) -> dict:
    """[A, M] = AM - MA over Z[i] for sparse A and an indexed operand M."""
    by_row, by_col = m
    out: dict = {}
    for (i, j), (vr, vi) in a.items():
        for k, wr, wi in by_row.get(j, ()):
            yr, yi = out.get((i, k), (0, 0))
            out[i, k] = (yr + vr * wr - vi * wi, yi + vr * wi + vi * wr)
        for k, wr, wi in by_col.get(i, ()):
            yr, yi = out.get((k, j), (0, 0))
            out[k, j] = (yr - wr * vr + wi * vi, yi - wr * vi - wi * vr)
    return {ij: z for ij, z in out.items() if z[0] or z[1]}


def _solve_in_sp(x: ExactMatrix, commute_with) -> ExactMatrix:
    """Particular solution W = sum_k c_k b_k over the basis of sp(n) of
    [[W,X],X] = -2X and, for each S in ``commute_with``, [[W,X],S] = 0
    and [W,S] = 0.

    With X = M/d and S = N/e over Z[i], the blocks are d^2 [[W,X],X] =
    [[W,M],M] = -2dM, [[W,M],N] = 0 and [W,N] = 0: one row per entry and
    one column per basis element, each row divided by the gcd of its
    integer parts.  Free coefficients are zero, as with ``solve_linear``
    on the dense system.
    """
    size = x.rows
    block = size * size
    d, xi = _cleared_indexed(x)
    others = [_cleared_indexed(s)[1] for s in commute_with]
    basis = _sp_basis_entries(size // 2)
    rows: dict = {}
    for k, b in enumerate(basis):
        bx = _bracket(b, xi)
        blocks = [_bracket(bx, xi)]
        for s in others:
            blocks += [_bracket(bx, s), _bracket(b, s)]
        for t, m in enumerate(blocks):
            for (i, j), z in m.items():
                rows.setdefault(t * block + i * size + j, {})[k] = z
    rhs = len(basis)
    for i, entries in xi[0].items():
        for j, re, im in entries:
            rows.setdefault(i * size + j, {})[rhs] = (-2 * d * re, -2 * d * im)
    for row in rows.values():
        g = math.gcd(*(part for z in row.values() for part in z))
        if g > 1:
            for c, (re, im) in row.items():
                row[c] = (re // g, im // g)
    coeffs = solve_sparse(list(rows.values()), rhs)
    flat = [ZERO] * block
    for c, b in zip(coeffs, basis):
        if not c.is_zero():
            for (i, j), (re, _) in b.items():
                flat[i * size + j] = flat[i * size + j] + c * re
    return ExactMatrix(size, size, flat)


def sl2_triple(x: ExactMatrix, commute_with=()) -> Sl2Triple:
    """Complete a nonzero nilpotent X in sp(n) to an sl2-triple.

    H = [X, W] for the W of ``_solve_in_sp``: it lies in the image of
    ad(X) restricted to sp (intersected with the centralizer of every
    matrix in ``commute_with``) and [H, X] = 2X, which guarantees a
    completing Y.  Y is read off W: [X, W] = H has ad-H weight 0 and X
    weight 2, so the weight -2 component of W satisfies [X, Y] = H and
    [H, Y] = -2Y (and commutes with each S, as W does); it is the only
    such Y, because the centralizer of X has weights >= 0.  In an eigenbasis P of H with
    integer weights lam_i, Y = P M' P^-1, where M' keeps the entries
    (i, j) of P^-1 W P with lam_i - lam_j = -2.
    """
    ctx = _sp_context(x)
    if x.is_zero():
        raise ZeroElement("the zero element generates no sl2-triple")
    if not is_nilpotent(x):
        raise NotNilpotent("sl2-triples require a nilpotent element")
    w = _solve_in_sp(x, commute_with)
    h = _commutator(x, w)
    spaces = eigenspaces(h, char_poly(h))
    weights = [lam.re for lam, vecs in spaces for _ in vecs]
    p = ExactMatrix.from_columns([v for _, vecs in spaces for v in vecs])
    p_inv = inverse(p)
    m = p_inv * w * p
    size = 2 * ctx.n
    y = p * ExactMatrix(size, size, [
        m[i, j] if weights[i] - weights[j] == -2 else ZERO
        for i in range(size) for j in range(size)
    ]) * p_inv
    triple = Sl2Triple(x, h, y)
    triple.validate()
    return triple


# ---------------------------------------------------------------------------
# chain data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymplecticChainData:
    """Chain bookkeeping for a triple {X, H, Y} in sp(n).

    parts: distinct chain lengths d, descending; counts[d] = t_d;
    heads[d]: lowest-weight vectors (weight 1 - d, killed by Y), already
    orthogonalized for the form (v, u)_d = <v, X^{d-1} u> (symplectic
    pairs for odd d, diagonal for even d); gram[d]: the t_d x t_d Gram
    matrix of that form on the heads; basis: columns X^l v_j^d ordered
    by part (descending), then level l, then head index j.
    """

    n: int
    triple: Sl2Triple
    parts: tuple
    counts: dict
    heads: dict
    gram: dict
    basis: ExactMatrix

    def partition(self):
        """Chain lengths with multiplicity: the partition of 2n."""
        out = []
        for d in self.parts:
            out.extend([d] * self.counts[d])
        return out

    def level_offset(self, d: int, level: int) -> int:
        off = 0
        for dd in self.parts:
            if dd == d:
                return off + level * self.counts[d]
            off += dd * self.counts[dd]
        raise KeyError(d)

    def validate(self):
        if sum(self.partition()) != 2 * self.n:
            raise SelfCheckFailed("chain lengths do not add up to 2n")
        for d in self.parts:
            g = self.gram[d]
            sign = -ONE if d % 2 else ONE
            if g.transpose() != g.scale(sign):
                raise SelfCheckFailed("Gram parity violated")
            if d % 2 and self.counts[d] % 2:
                raise SelfCheckFailed("odd chain length with odd chain count")
            if det(g).is_zero():
                raise SelfCheckFailed("degenerate chain form")

    def to_json(self):
        return {
            "n": self.n,
            "parts": list(self.parts),
            "counts": {str(d): self.counts[d] for d in self.parts},
            "heads": {
                str(d): [[str(c) for c in v] for v in self.heads[d]]
                for d in self.parts
            },
            "gram": {str(d): self.gram[d].to_json() for d in self.parts},
            "basis": self.basis.to_json(),
        }


def _stack_rows(mats):
    rows = []
    for m in mats:
        rows.extend(m.to_lists())
    return ExactMatrix.from_rows(rows)


def chain_decomposition(triple: Sl2Triple) -> SymplecticChainData:
    """Decompose C^{2n} into chains for the triple and fix head bases.

    The lowest weights of a triple are the integers 1 - d, d a chain
    length <= 2n, so each candidate weight is tried and the empty
    kernels are skipped."""
    x, h, y = triple.x, triple.h, triple.y
    n = x.rows // 2
    j = jn_matrix(n)
    counts: dict = {}
    heads: dict = {}
    gram: dict = {}
    parts = []
    for w in range(1 - 2 * n, 1):
        d = 1 - w
        space = kernel(_stack_rows([y, h.plus_scalar(GaussRat.from_int(-w))]))
        if not space:
            continue
        form = _bilinear(j * x.power(d - 1))
        if d % 2:
            firsts, seconds = _symplectic_pair_basis(space, form, ONE)
            vecs = []
            for p, q in zip(firsts, seconds):
                vecs.extend([p, q])
        else:
            vecs = _orthogonalize_symmetric(space, form)
        parts.append(d)
        counts[d] = len(vecs)
        heads[d] = vecs
        gram[d] = ExactMatrix.from_rows(
            [[form(u, v) for v in vecs] for u in vecs]
        )
    parts.sort(reverse=True)
    columns = []
    for d in parts:
        level = [list(v) for v in heads[d]]
        for _ in range(d):
            columns.extend(level)
            level = [x.mul_vector(v) for v in level]
    cd = SymplecticChainData(
        n=n,
        triple=triple,
        parts=tuple(parts),
        counts=counts,
        heads=heads,
        gram=gram,
        basis=ExactMatrix.from_columns(columns),
    )
    cd.validate()
    return cd


def build_sigma(cd: SymplecticChainData) -> ExactMatrix:
    """The chain-wise sign operator: (-1)^l on X^l v for odd chain length,
    (-1)^l i for even; symplectic, negates the nilpotent, and commutes
    with everything acting level-diagonally by scalars on chain heads."""
    diag = []
    for d in cd.parts:
        for level in range(d):
            value = ONE if level % 2 == 0 else -ONE
            if d % 2 == 0:
                value = value * I
            diag.extend([value] * cd.counts[d])
    d_mat = ExactMatrix.diagonal(diag)
    return cd.basis * d_mat * inverse(cd.basis)


def restrict_semisimple(xs: ExactMatrix, cd: SymplecticChainData) -> dict:
    """Blocks of a centralizer element on the chain-head spaces.

    Requires xs to commute with the triple; returns {d: X_sd} where X_sd
    is the matrix of xs on the d-heads (the same block repeats on every
    level X^l L(d-1)).
    """
    if not (_commutator(xs, cd.triple.x)).is_zero():
        raise NotInCentralizer("does not commute with the nilpotent")
    m = inverse(cd.basis) * xs * cd.basis
    size = m.rows
    blocks: dict = {}
    spans = []
    for d in cd.parts:
        for level in range(d):
            off = cd.level_offset(d, level)
            spans.append((d, level, off, cd.counts[d]))
    for d, level, off, t in spans:
        sub = ExactMatrix.from_rows(
            [[m[off + a, off + b] for b in range(t)] for a in range(t)]
        )
        if level == 0:
            blocks[d] = sub
        elif not (sub == blocks[d]):
            raise NotInCentralizer("level blocks differ along a chain")
    # everything off the level-diagonal must vanish
    for da, la, oa, ta in spans:
        for db, lb, ob, tb in spans:
            if (da, la) == (db, lb):
                continue
            for a in range(ta):
                for b in range(tb):
                    if not m[oa + a, ob + b].is_zero():
                        raise NotInCentralizer(
                            "does not preserve the chain decomposition"
                        )
    return blocks


def build_tau(xsd_map: dict, cd: SymplecticChainData) -> ExactMatrix:
    """Reverser of the semisimple part: per chain length d, a form-exact
    eigenspace swap u <-> w on the heads, embedded diagonally along
    levels; fixes the nilpotent and lies in Sp(n)."""
    tau_blocks: dict = {}
    for d in cd.parts:
        xsd = xsd_map[d]
        pairing = _bilinear(cd.gram[d])
        if xsd.is_zero():
            tau_blocks[d] = ExactMatrix.identity(cd.counts[d])
            continue
        tau_blocks[d] = _form_relative_reverser(xsd, pairing, odd=d % 2 == 1)
        if not (tau_blocks[d] * xsd + xsd * tau_blocks[d]).is_zero():
            raise SelfCheckFailed("tau block fails to reverse")
        g = cd.gram[d]
        if tau_blocks[d].transpose() * g * tau_blocks[d] != g:
            raise SelfCheckFailed("tau block breaks the chain form")
    diag_blocks = []
    for d in cd.parts:
        for _ in range(d):
            diag_blocks.append(tau_blocks[d])
    big = ExactMatrix.block_diagonal(diag_blocks)
    return cd.basis * big * inverse(cd.basis)


def _form_relative_reverser(xsd: ExactMatrix, pairing, odd: bool) -> ExactMatrix:
    """Involution-like swap of the +/- eigenspaces of xsd, exactly
    preserving the given bilinear form (no normalization needed: the
    second basis is solved to be dual to the first)."""
    try:
        spaces = dict(eigenspaces(xsd, char_poly(xsd)))
    except SpectrumNotSplit:
        raise SpectrumNotSplit(
            "semisimple block has eigenvalues outside Q(i)"
        ) from None
    columns = []
    images = []
    eps = -ONE if odd else ONE
    for lam, us in spaces.items():
        if lam.is_zero() or lam != _pair_rep(lam):
            continue
        ws_raw = spaces.get(-lam, [])
        if len(us) != len(ws_raw):
            raise SelfCheckFailed("asymmetric eigenspaces in sp block")
        ws = _dual_basis(us, ws_raw, pairing, ONE)
        for u, w in zip(us, ws):
            columns.append(u)
            images.append(w)
        for u, w in zip(us, ws):
            columns.append(w)
            images.append([eps * e for e in u])
    for z in spaces.get(ZERO, []):
        columns.append(z)
        images.append(z)
    p = ExactMatrix.from_columns(columns)
    q = ExactMatrix.from_columns(images)
    return q * inverse(p)


def reverse_full(x: ExactMatrix) -> ReverserCertificate:
    """A certified g in Sp(n) with g X g^{-1} = -X, for any X in sp(n).

    Semisimple X delegates to the eigenbasis construction, nilpotent X
    uses the chain operator alone, and the mixed case multiplies the two
    commuting-part reversers.  No involution is claimed.
    """
    ctx = _sp_context(x)
    if x.is_zero():
        return ReverserCertificate(x, ExactMatrix.identity(x.rows), ctx, False)
    pair = jordan_chevalley(x)
    xs, xn = pair.semisimple_part, pair.nilpotent_part
    if xn.is_zero():
        return witness_general_semisimple(x, ctx, False)
    if xs.is_zero():
        cd = chain_decomposition(sl2_triple(x))
        g = build_sigma(cd)
    else:
        triple = sl2_triple(xn, commute_with=(xs,))
        cd = chain_decomposition(triple)
        sigma = build_sigma(cd)
        if not (sigma * xs - xs * sigma).is_zero():
            raise SelfCheckFailed("sigma must fix X_s")
        tau = build_tau(restrict_semisimple(xs, cd), cd)
        if not (tau * xn - xn * tau).is_zero():
            raise SelfCheckFailed("tau must fix X_n")
        g = sigma * tau
    cert = ReverserCertificate(x, g, ctx, False)
    report = verify_certificate(cert)
    if not report.ok:
        raise SelfCheckFailed(f"symplectic reverser failed: {report.failures}")
    return cert


# ---------------------------------------------------------------------------
# constructions used by tests, the self-test suites, and the CLI
# ---------------------------------------------------------------------------


def symplectic_partitions(total: int):
    """Partitions of ``total`` in which odd parts have even multiplicity,
    descending parts, deterministic order."""
    out = []

    def rec(remaining, max_part, acc):
        if remaining == 0:
            counts = {}
            for p in acc:
                counts[p] = counts.get(p, 0) + 1
            if all(p % 2 == 0 or c % 2 == 0 for p, c in counts.items()):
                out.append(tuple(acc))
            return
        for p in range(min(max_part, remaining), 0, -1):
            rec(remaining - p, p, acc + [p])

    rec(total, total, [])
    return out


def _model_chain_layout(parts):
    """Offsets for one chain per part (parts descending)."""
    offsets = []
    pos = 0
    for d in parts:
        offsets.append(pos)
        pos += d
    return offsets, pos


def _model_form_and_shift(parts):
    """The chain-basis model: nilpotent shift X' and an invariant
    antisymmetric Gram Q' on the model space (even parts self-paired,
    odd parts paired in twos)."""
    offsets, size = _model_chain_layout(parts)
    xp = [[ZERO] * size for _ in range(size)]
    qp = [[ZERO] * size for _ in range(size)]
    for d, off in zip(parts, offsets):
        for level in range(d - 1):
            xp[off + level + 1][off + level] = ONE
    used = set()
    by_part: dict = {}
    for idx, d in enumerate(parts):
        by_part.setdefault(d, []).append(idx)
    for d, idxs in by_part.items():
        if d % 2 == 0:
            for idx in idxs:
                off = offsets[idx]
                for level in range(d):
                    sign = ONE if level % 2 == 0 else -ONE
                    qp[off + level][off + d - 1 - level] = sign
        else:
            if len(idxs) % 2:
                raise SelfCheckFailed(f"odd part {d} occurs an odd number of times")
            for a, b in zip(idxs[0::2], idxs[1::2]):
                oa, ob = offsets[a], offsets[b]
                for level in range(d):
                    sign = ONE if level % 2 == 0 else -ONE
                    qp[oa + level][ob + d - 1 - level] = sign
                    qp[ob + d - 1 - level][oa + level] = -sign
        used.add(d)
    return ExactMatrix.from_rows(xp), ExactMatrix.from_rows(qp), offsets


def _isometry_to_standard(qp: ExactMatrix) -> ExactMatrix:
    """T with T^t J T = Q', moving the model form onto the standard one."""
    size = qp.rows
    pairing = _bilinear(qp)
    units = [
        [ONE if k == idx else ZERO for k in range(size)] for idx in range(size)
    ]
    firsts, seconds = _symplectic_pair_basis(units, pairing, -ONE)
    r = ExactMatrix.from_columns(firsts + seconds)
    return inverse(r)


def nilpotent_from_partition(parts) -> ExactMatrix:
    """A nilpotent element of sp(n) whose chain lengths realize the given
    symplectic partition of 2n."""
    xp, qp, _ = _model_form_and_shift(list(parts))
    t = _isometry_to_standard(qp)
    x = t * xp * inverse(t)
    if not algebra_member(x, LieContext("sp", "Sp", x.rows // 2)):
        raise SelfCheckFailed("model nilpotent is not in sp(n)")
    return x


def mixed_from_partition(parts, params: dict):
    """X = X_s + X_n in sp(n) built from a symplectic partition plus a
    commuting semisimple part with Q(i) spectrum.

    ``params[d]`` is a list of scalars, one per chain pair of length d
    (even parts are paired greedily, a leftover chain gets no parameter;
    odd parts are always paired).  Returns (x, xs, xn).
    """
    parts = list(parts)
    xp, qp, offsets = _model_form_and_shift(parts)
    size = xp.rows
    sp = [[ZERO] * size for _ in range(size)]
    by_part: dict = {}
    for idx, d in enumerate(parts):
        by_part.setdefault(d, []).append(idx)
    for d, idxs in sorted(by_part.items()):
        values = list(params.get(d, ()))
        pair_iter = zip(idxs[0::2], idxs[1::2])
        for (a, b), mu in zip(pair_iter, values):
            oa, ob = offsets[a], offsets[b]
            for level in range(d):
                if d % 2 == 0:
                    sp[oa + level][ob + level] = mu
                    sp[ob + level][oa + level] = -mu
                else:
                    sp[oa + level][oa + level] = mu
                    sp[ob + level][ob + level] = -mu
    sp_mat = ExactMatrix.from_rows(sp)
    t = _isometry_to_standard(qp)
    tinv = inverse(t)
    xs = t * sp_mat * tinv
    xn = t * xp * tinv
    x = xs + xn
    if not algebra_member(x, LieContext("sp", "Sp", size // 2)):
        raise SelfCheckFailed("model mixed element is not in sp(n)")
    return x, xs, xn
