"""Reversers for arbitrary elements of sp(n, C).

Pipeline: split X = X_s + X_n (Jordan-Chevalley); build a basis of
C^{2n} made of chains X_n^l v_j^d adapted to the symplectic form, with
heads spanning X_s-invariant spaces; build sigma acting by (-1)^l (odd
chain length) or (-1)^l i (even length) along each chain, which negates
X_n and fixes X_s; restrict X_s to the chain-head spaces, reverse each
restriction relative to the induced form (v, u)_d = <v, X^{d-1} u>, and
embed the result diagonally along levels to get tau, which negates X_s
and fixes X_n.  The product sigma * tau, composed in the chain basis,
then conjugates X to -X inside Sp(n, C).

Everything is exact over Q(i); only the tau branch can fail, when the
semisimple part has eigenvalues outside Q(i).
"""

from __future__ import annotations

from .certificates import ReverserCertificate
from .errors import (
    AlgebraMismatch,
    NotInCentralizer,
    NotNilpotent,
    SelfCheckFailed,
    SizeMismatch,
    SpectrumNotSplit,
    ZeroElement,
    _FrozenRecord,
)
from .gaussian import I, ONE, ZERO, GaussRat, rational
from .jordan import jordan_chevalley
from .liecore import LieContext, algebra_member, jn_matrix, kernel
from .matrix import (
    ExactMatrix,
    _cleared_columns,
    _cleared_dict,
    _Echelon,
    _krylov_echelon,
    _poly_on_vector,
    _signed_conjugate,
    char_poly,
    det,
    eigenspaces,
    inverse,
)
from .semisimple import (
    _dual_pairs,
    _orthogonalize_symmetric,
    _symplectic_pairs,
    _verified,
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


class Sl2Triple(_FrozenRecord):
    """{X, H, Y} with [H,X] = 2X, [H,Y] = -2Y, [X,Y] = H, all in sp."""

    __slots__ = ("x", "h", "y")

    def __init__(self, x: ExactMatrix, h: ExactMatrix, y: ExactMatrix):
        _FrozenRecord.__init__(self, x, h, y)

    def validate(self):
        ctx = LieContext("sp", "Sp", self.x.rows // 2)
        if not (algebra_member(self.h, ctx) and algebra_member(self.y, ctx)):
            raise SelfCheckFailed("H or Y is not in sp")
        if _commutator(self.h, self.x) != self.x.scale(2):
            raise SelfCheckFailed("[H,X] != 2X")
        if _commutator(self.h, self.y) != self.y.scale(-2):
            raise SelfCheckFailed("[H,Y] != -2Y")
        if _commutator(self.x, self.y) != self.h:
            raise SelfCheckFailed("[X,Y] != H")

    def to_json(self):
        return {"x": self.x.to_json(), "h": self.h.to_json(), "y": self.y.to_json()}


# ---------------------------------------------------------------------------
# chain data
# ---------------------------------------------------------------------------


_PAIR_BLOCK = ExactMatrix.from_rows([[0, 1], [-1, 0]])


class SymplecticChainData(_FrozenRecord):
    """A chain basis of C^{2n} for a nilpotent X in sp(n).

    parts: distinct chain lengths d, descending; counts[d] = t_d;
    heads[d]: the chain heads v (X^d v = 0), adapted to the form
    (v, u)_d = <v, X^{d-1} u>; gram[d]: the t_d x t_d Gram matrix of that
    form on the heads, in normal form: interleaved [[0, 1], [-1, 0]]
    blocks for odd d, diagonal for even d (``validate`` checks it);
    basis: columns X^l v_j^d ordered by part (descending), then level l,
    then head index j; basis_inverse: its inverse.

    Distinct chains are orthogonal and <X^a u_i, X^c u_k> = 0 for
    a + c != d - 1 within a part, so B^t J B = Q with
    Q[(d, a, i), (d, d - 1 - a, k)] = (-1)^a gram[d][i, k] and zero
    elsewhere, and B^-1 = Q^-1 B^t J.
    """

    __slots__ = ("n", "x", "parts", "counts", "heads", "gram", "basis", "basis_inverse")

    def __init__(
        self,
        n: int,
        x: ExactMatrix,
        parts: tuple,
        counts: dict,
        heads: dict,
        gram: dict,
        basis: ExactMatrix,
        basis_inverse: ExactMatrix,
    ):
        _FrozenRecord.__init__(self, n, x, parts, counts, heads, gram, basis, basis_inverse)

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

    def from_chain(self, m: ExactMatrix) -> ExactMatrix:
        """B m B^-1: the operator whose matrix in the chain basis is m."""
        return self.basis * m * self.basis_inverse

    def form(self) -> ExactMatrix:
        """Q = B^t J B, read off the Gram matrices."""
        size = 2 * self.n
        flat = [ZERO] * (size * size)
        for d in self.parts:
            g, t = self.gram[d], self.counts[d]
            for a in range(d):
                row, col = self.level_offset(d, a), self.level_offset(d, d - 1 - a)
                sign = -ONE if a % 2 else ONE
                for i in range(t):
                    for k in range(t):
                        flat[(row + i) * size + col + k] = sign * g[i, k]
        return ExactMatrix(size, size, flat)

    def validate(self):
        if sum(self.partition()) != 2 * self.n:
            raise SelfCheckFailed("chain lengths do not add up to 2n")
        for d in self.parts:
            g, t = self.gram[d], self.counts[d]
            if d % 2 and t % 2:
                raise SelfCheckFailed("odd chain length with odd chain count")
            if d % 2:
                normal = ExactMatrix.block_diagonal([_PAIR_BLOCK] * (t // 2))
            else:
                normal = ExactMatrix.diagonal([g[k, k] for k in range(t)])
            if g != normal:
                raise SelfCheckFailed("chain form is not in normal form")
            if det(g).is_zero():
                raise SelfCheckFailed("degenerate chain form")
        b = self.basis
        if b.transpose() * jn_matrix(self.n) * b != self.form():
            raise SelfCheckFailed("chain basis does not carry the chain form")

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


def _chain_heads(vectors, images, xs: ExactMatrix):
    """Heads v whose images X^{d-1} v are independent and span the span of
    ``images``, the X^{d-1}-images of ``vectors``, and which themselves
    span an X_s-invariant space.

    For each v whose image y is new, with a the minimal polynomial of v
    under X_s and q the least monic polynomial with q(X_s) y in the span
    S of the images chosen so far, the heads X_s^k (a/q)(X_s) v, k < deg q,
    are added.  X_s is semisimple, so a is squarefree, q and a/q are
    coprime, these images are independent modulo S, and y joins S.  With
    X_s = 0 this is the greedy choice of the vectors with new images.
    """
    cleared = _cleared_columns(xs)
    chosen = _Echelon()  # the images of the heads so far
    heads = []
    for v, y in zip(vectors, images):
        if not chosen.reduce(_cleared_dict(y)):
            continue
        a = _krylov_echelon(cleared, v)[1]
        q = _krylov_echelon(cleared, y, chosen)[1]
        v = _poly_on_vector(a // q, cleared, v)
        y = _poly_on_vector(a // q, cleared, y)
        for _ in range(q.degree()):
            row = chosen.reduce(_cleared_dict(y))
            if not row:
                raise SelfCheckFailed("chain head images are dependent")
            chosen.add(row)
            heads.append(v)
            v, y = xs.mul_vector(v), xs.mul_vector(y)
    return heads


def _adapted_levels(levels, j: ExactMatrix):
    """Levels X^l U, l < d, of heads U = [u_1 ... u_t] with X^d U = 0,
    made adapted to the form: (levels, gram) with <u_i, X^k u_j> = 0 for
    k < d - 1 and gram = U^t J X^{d-1} U symplectic pairs (odd d) or
    diagonal (even d).

    G = U^t J X^{d-1} U is nondegenerate.  For k = d - 2, ..., 0 the heads
    become U - 1/2 X^{d-1-k} U G^-1 M_k with M_k = U^t J X^k U: this
    clears M_k and leaves G and M_{k+1}, ..., M_{d-2} as they are.  The
    change of heads U -> U T that brings G to normal form is found on G
    alone by congruence, which returns T^t G T as well; the levels are
    multiplied by T once.
    """
    d = len(levels)

    def grams(k):
        return levels[0].transpose() * j * levels[k]

    minus_half_g_inv = inverse(grams(d - 1)).scale(GaussRat(rational(-1, 2)))
    for k in range(d - 2, -1, -1):
        c = minus_half_g_inv * grams(k)
        if c.is_zero():
            continue
        shift = d - 1 - k
        levels = [
            lvl + levels[l + shift] * c if l + shift < d else lvl
            for l, lvl in enumerate(levels)
        ]
    g = grams(d - 1)
    t, g = _symplectic_pairs(g, ONE) if d % 2 else _orthogonalize_symmetric(g)
    return [lvl * t for lvl in levels], g


def chain_decomposition(
    x: ExactMatrix, semisimple: ExactMatrix | None = None
) -> SymplecticChainData:
    """A chain basis of C^{2n} for a nonzero nilpotent X in sp(n), adapted
    to the symplectic form; with a semisimple X_s in sp(n) commuting with
    X, every head space is X_s-invariant.

    U starts as C^{2n}.  For the longest chain length d in U, heads in U
    with independent images under X^{d-1} that span X^{d-1} U
    (``_chain_heads``) are adapted to the form (``_adapted_levels``);
    their chains span a nondegenerate X- and X_s-invariant W, and U
    becomes the rest, U ∩ W^⊥, which holds the shorter chains.  No
    eigenvalue of X_s is needed.  X is nilpotent exactly when the first
    ladder U, XU, X^2 U, ... reaches 0 by X^{2n} U.
    """
    ctx = _sp_context(x)
    if x.is_zero():
        raise ZeroElement("the zero element generates no sl2-triple")
    size = x.rows
    xs = ExactMatrix.zeros(size) if semisimple is None else semisimple
    j = jn_matrix(ctx.n)
    parts, counts, heads, gram = [], {}, {}, {}
    columns, inverse_rows = [], []
    while len(columns) < size:
        if columns:
            space = kernel(ExactMatrix.from_rows(columns) * j.transpose())
        else:
            space = ExactMatrix.identity(size).to_lists()
        powers = [ExactMatrix.from_columns(space)]
        while not powers[-1].is_zero():
            if len(powers) > size:
                raise NotNilpotent("sl2-triples require a nilpotent element")
            powers.append(x * powers[-1])
        if not columns and not _commutator(xs, x).is_zero():
            raise NotInCentralizer("does not commute with the nilpotent")
        d = len(powers) - 1
        images = [powers[d - 1].column(k) for k in range(len(space))]
        u = ExactMatrix.from_columns(_chain_heads(space, images, xs))
        levels = [u]
        for _ in range(d - 1):
            levels.append(x * levels[-1])
        levels, g = _adapted_levels(levels, j)
        g_inv = inverse(g)
        for level in range(d):
            columns.extend(levels[level].transpose().to_lists())
            sign = -ONE if (d - 1 - level) % 2 else ONE
            rows = g_inv.scale(sign) * levels[d - 1 - level].transpose() * j
            inverse_rows.extend(rows.to_lists())
        parts.append(d)
        counts[d] = u.cols
        heads[d] = levels[0].transpose().to_lists()
        gram[d] = g
    cd = SymplecticChainData(
        n=ctx.n,
        x=x,
        parts=tuple(parts),
        counts=counts,
        heads=heads,
        gram=gram,
        basis=ExactMatrix.from_columns(columns),
        basis_inverse=ExactMatrix.from_rows(inverse_rows),
    )
    cd.validate()
    return cd


def sl2_triple(x: ExactMatrix, semisimple: ExactMatrix | None = None) -> Sl2Triple:
    """Complete a nonzero nilpotent X in sp(n) to an sl2-triple, read off
    the chain basis B of ``chain_decomposition(x, semisimple)``.

    A head v of a length-d chain has the lowest weight 1 - d, so H acts by
    2l + 1 - d on X^l v, and Y maps X^l v to l(d - l) X^{l-1} v:
    H = B D B^-1 and Y = B N B^-1.  Both act level-diagonally on chains,
    so they commute with X_s when the head spaces are X_s-invariant.
    """
    cd = chain_decomposition(x, semisimple)
    size = x.rows
    weights = []
    lower = [ZERO] * (size * size)
    for d in cd.parts:
        t = cd.counts[d]
        for level in range(d):
            weights.extend([GaussRat.from_int(2 * level + 1 - d)] * t)
            if level:
                off = cd.level_offset(d, level)
                for k in range(off, off + t):
                    lower[(k - t) * size + k] = GaussRat.from_int(level * (d - level))
    triple = Sl2Triple(
        x,
        cd.from_chain(ExactMatrix.diagonal(weights)),
        cd.from_chain(ExactMatrix(size, size, lower)),
    )
    triple.validate()
    return triple


def _chain_sigma(cd: SymplecticChainData) -> ExactMatrix:
    """sigma in the chain basis: (-1)^l on X^l v for odd chain length,
    (-1)^l i for even; a scalar on each level block, so it fixes X_s."""
    diag = []
    for d in cd.parts:
        for level in range(d):
            value = ONE if level % 2 == 0 else -ONE
            if d % 2 == 0:
                value = value * I
            diag.extend([value] * cd.counts[d])
    return ExactMatrix.diagonal(diag)


def build_sigma(cd: SymplecticChainData) -> ExactMatrix:
    """The chain-wise sign operator: symplectic, negates the nilpotent,
    and fixes every operator that acts by one block on each level."""
    return cd.from_chain(_chain_sigma(cd))


def restrict_semisimple(xs: ExactMatrix, cd: SymplecticChainData) -> dict:
    """Blocks of a centralizer element on the chain-head spaces.

    Requires xs to commute with the nilpotent; returns {d: X_sd} where
    X_sd is the matrix of xs on the d-heads (the same block repeats on
    every level X^l of the d-chains).
    """
    if not (_commutator(xs, cd.x)).is_zero():
        raise NotInCentralizer("does not commute with the nilpotent")
    m = cd.basis_inverse * xs * cd.basis
    blocks: dict = {}
    for d in cd.parts:
        off, t = cd.level_offset(d, 0), cd.counts[d]
        blocks[d] = ExactMatrix.from_rows(
            [[m[off + a, off + b] for b in range(t)] for a in range(t)]
        )
    levels = [blocks[d] for d in cd.parts for _ in range(d)]
    if m != ExactMatrix.block_diagonal(levels):
        raise NotInCentralizer("does not act by one block on every chain level")
    return blocks


def _chain_tau(xsd_map: dict, cd: SymplecticChainData) -> ExactMatrix:
    """tau in the chain basis: per chain length d, a form-exact eigenspace
    swap u <-> w on the heads, repeated on every level.  Repeating one
    block per level, it commutes with the shift X^l v -> X^{l+1} v."""
    tau_blocks: dict = {}
    for d in cd.parts:
        xsd, g = xsd_map[d], cd.gram[d]
        if xsd.is_zero():
            tau_blocks[d] = ExactMatrix.identity(cd.counts[d])
            continue
        tau_blocks[d] = _form_relative_reverser(xsd, g, odd=d % 2 == 1)
        if not (tau_blocks[d] * xsd + xsd * tau_blocks[d]).is_zero():
            raise SelfCheckFailed("tau block fails to reverse")
        if tau_blocks[d].transpose() * g * tau_blocks[d] != g:
            raise SelfCheckFailed("tau block breaks the chain form")
    return ExactMatrix.block_diagonal(
        [tau_blocks[d] for d in cd.parts for _ in range(d)]
    )


def build_tau(xsd_map: dict, cd: SymplecticChainData) -> ExactMatrix:
    """Reverser of the semisimple part: fixes the nilpotent, lies in Sp(n)."""
    return cd.from_chain(_chain_tau(xsd_map, cd))


def _form_relative_reverser(xsd: ExactMatrix, gram, odd: bool) -> ExactMatrix:
    """Involution-like swap of the +/- eigenspaces of xsd, exactly
    preserving the bilinear form with Gram matrix ``gram`` (the identity
    when None; no normalization needed: the second basis is solved to be
    dual to the first)."""
    try:
        spaces = eigenspaces(xsd, char_poly(xsd))
    except SpectrumNotSplit:
        raise SpectrumNotSplit(
            "semisimple block has eigenvalues outside Q(i)"
        ) from None
    columns = []
    images = []
    eps = -ONE if odd else ONE
    for _, u, w in _dual_pairs(spaces, gram, ONE):
        us, ws = u.transpose().to_lists(), w.transpose().to_lists()
        columns.extend(us + ws)
        images.extend(ws + [[eps * e for e in v] for v in us])
    for z in dict(spaces).get(ZERO, []):
        columns.append(z)
        images.append(z)
    p = ExactMatrix.from_columns(columns)
    q = ExactMatrix.from_columns(images)
    return q * inverse(p)


def reverse_full(x: ExactMatrix) -> ReverserCertificate:
    """A certified g in Sp(n) with g X g^{-1} = -X, for any X in sp(n).

    Semisimple X delegates to the eigenbasis construction.  Otherwise
    g = sigma * tau is composed in the chain basis, where sigma is a
    diagonal and tau (identity for nilpotent X) one block per level, and
    leaves it once: g = B (Sigma T) B^-1.  The certificate check is the
    only check of g.  No involution is claimed.
    """
    ctx = _sp_context(x)
    if x.is_zero():
        return ReverserCertificate(x, ExactMatrix.identity(x.rows), ctx, False)
    pair = jordan_chevalley(x)
    xs, xn = pair.semisimple_part, pair.nilpotent_part
    if xn.is_zero():
        return witness_general_semisimple(x, ctx, False)
    cd = chain_decomposition(xn, xs)
    m = _chain_sigma(cd)
    if not xs.is_zero():
        m = m * _chain_tau(restrict_semisimple(xs, cd), cd)
    cert = ReverserCertificate(x, cd.from_chain(m), ctx, False)
    return _verified(cert, "symplectic reverser failed")


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
    """The chain-basis model: nilpotent shift X' and, as ``images`` for
    ``_signed_conjugate``, the signed permutation T with T^t J T = Q'.  The
    invariant Gram Q' pairs each model index k with one partner q, Q'[k][q]
    = +-1 (even parts self-paired, odd parts in twos); T sends the lowest
    unpaired p to the next slot a and its partner q to -Q'[p][q] e_{n+a}."""
    offsets, size = _model_chain_layout(parts)
    xp = [[ZERO] * size for _ in range(size)]
    for d, off in zip(parts, offsets):
        for level in range(d - 1):
            xp[off + level + 1][off + level] = ONE
    by_part: dict = {}
    for idx, d in enumerate(parts):
        by_part.setdefault(d, []).append(idx)
    partner = {}  # model index k -> (q, Q'[k][q])
    for d, idxs in by_part.items():
        if d % 2 == 0:
            chains = [(idx, idx) for idx in idxs]
        elif len(idxs) % 2:
            raise SelfCheckFailed(f"odd part {d} occurs an odd number of times")
        else:
            chains = list(zip(idxs[0::2], idxs[1::2]))
        for a, b in chains:
            oa, ob = offsets[a], offsets[b]
            for level in range(d):
                sign = 1 if level % 2 == 0 else -1
                partner[oa + level] = (ob + d - 1 - level, sign)
                partner[ob + d - 1 - level] = (oa + level, -sign)
    n = size // 2
    images = [None] * size
    slot = 0
    for p in range(size):
        if images[p] is None:
            q, sign = partner[p]
            images[p] = (slot, 1)
            images[q] = (n + slot, -sign)
            slot += 1
    return ExactMatrix.from_rows(xp), images, offsets


def nilpotent_from_partition(parts) -> ExactMatrix:
    """A nilpotent element of sp(n) whose chain lengths realize the given
    symplectic partition of 2n: the model shift X' moved onto the standard
    form by reindexing, T X' T^-1 with T the signed permutation of
    ``_model_form_and_shift``."""
    xp, images, _ = _model_form_and_shift(list(parts))
    x = _signed_conjugate(xp, images)
    if not algebra_member(x, LieContext("sp", "Sp", x.rows // 2)):
        raise SelfCheckFailed("model nilpotent is not in sp(n)")
    return x


def mixed_from_partition(parts, params: dict):
    """X = X_s + X_n in sp(n) built from a symplectic partition plus a
    commuting semisimple part with Q(i) spectrum.

    ``params[d]`` is a list of scalars, one per chain pair of length d
    (even parts are paired greedily, a leftover chain gets no parameter;
    odd parts are always paired).  Both parts are moved off the model space
    by reindexing, as in ``nilpotent_from_partition``.  Returns (x, xs, xn).
    """
    parts = list(parts)
    xp, images, offsets = _model_form_and_shift(parts)
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
    xs = _signed_conjugate(ExactMatrix.from_rows(sp), images)
    xn = _signed_conjugate(xp, images)
    x = xs + xn
    if not algebra_member(x, LieContext("sp", "Sp", size // 2)):
        raise SelfCheckFailed("model mixed element is not in sp(n)")
    return x, xs, xn
