"""Reality decisions and reverser constructions for semisimple elements.

``decide_semisimple`` answers, per acting group, whether -X lies in the
adjoint orbit of X and whether an involutive conjugator exists; the
criteria are purely arithmetic (spectrum symmetry, a zero eigenvalue,
n mod 4, eigenvalue multiplicities), all read off one characteristic
polynomial, and never leave Q(i).

``witness_semisimple`` builds an explicit certified reverser for canonical
block forms; ``witness_general_semisimple`` conjugates an arbitrary
diagonalizable element to canonical shape first (requires the spectrum to
split over Q(i)) and transports the canonical witness back.  Its
eigenvalues are the roots of chi's squarefree part, and when chi splits
its eigenspaces also settle diagonalizability (their dimensions add up to
n), so the Horner test of ``is_semisimple`` runs only in ``decide`` and
when chi does not split.

Verdict reason vocabulary: ZeroElement, SpectrumAsymmetric,
SpectrumSymmetric, ZeroEigenvalue, NMod4, OrthogonalAlwaysStrong,
SO2NotReal, PaperSilent, EvenMultiplicity, OddMultiplicity,
ProjectiveAlwaysStrong.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certificates import ReverserCertificate, verify_certificate
from .errors import (
    AlgebraMismatch,
    NotRealizable,
    NotSemisimple,
    ParseError,
    SelfCheckFailed,
    SizeMismatch,
    SpectrumNotSplit,
)
from .gaussian import I, ONE, ZERO, GaussRat
from .liecore import (
    CanonicalSemisimple,
    LieContext,
    build_canonical,
    algebra_member,
    jn_matrix,
)
from .matrix import (
    ExactMatrix,
    _signed_conjugate,
    char_poly,
    det,
    eigenspaces,
    hessenberg,
    inverse,
    is_semisimple,
)
from .polynomial import ExactPoly

YES = "yes"
NO = "no"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class RealityVerdict:
    is_real: str
    is_strongly_real: str
    reason: str
    witness: ReverserCertificate | None = None

    def to_json(self):
        return {
            "real": self.is_real,
            "strongly_real": self.is_strongly_real,
            "reason": self.reason,
            "witness": self.witness.to_json() if self.witness else None,
        }

    @staticmethod
    def from_json(data) -> "RealityVerdict":
        try:
            wit = data.get("witness")
            return RealityVerdict(
                str(data["real"]),
                str(data["strongly_real"]),
                str(data["reason"]),
                ReverserCertificate.from_json(wit) if wit else None,
            )
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad verdict JSON: {exc}") from exc


def _member_char_poly(x: ExactMatrix, ctx: LieContext):
    """Check that x is an element of the context algebra and return its
    Hessenberg form and characteristic polynomial, the only spectral data
    the verdicts and witnesses need."""
    if not algebra_member(x, ctx):
        raise AlgebraMismatch(f"element is not in {ctx.algebra}({ctx.n})")
    h = hessenberg(x)
    return h, char_poly(h)


_NOT_DIAGONALIZABLE = "element is not diagonalizable"


def _nonzero_multiplicities_even(chi: ExactPoly) -> bool:
    """True iff every nonzero eigenvalue (over the algebraic closure) has
    even multiplicity, i.e. chi stripped of its powers of t is a square
    s^2.  The monic s is fixed coefficient by coefficient from the top, so
    it lies in Q(i)[t]; no gcd and no splitting field is needed."""
    low = next(k for k, c in enumerate(chi.coeffs) if not c.is_zero())
    p = ExactPoly(chi.coeffs[low:])
    top, s = p.coeffs[::-1], [ONE]
    for k in range(1, p.degree() // 2 + 1):
        s.append((top[k] - sum((s[j] * s[k - j] for j in range(1, k)), ZERO)) / 2)
    root = ExactPoly(s[::-1])
    return root * root == p


def _spectral_verdict(chi: ExactPoly, ctx: LieContext) -> RealityVerdict:
    """Verdict for a nonzero semisimple element with characteristic
    polynomial chi.  A diagonalizable X is similar to -X exactly when its
    spectrum is symmetric under negation, i.e. chi(-t) = (-1)^n chi(t), and
    chi(0) = 0 exactly when 0 is an eigenvalue."""
    group = ctx.group
    if group in ("GL", "SL", "PSL"):
        if chi.substitute_negated().monic() != chi:
            return RealityVerdict(NO, NO, "SpectrumAsymmetric")
        if group == "GL":
            return RealityVerdict(YES, YES, "SpectrumSymmetric")
        if group == "PSL":
            return RealityVerdict(YES, YES, "ProjectiveAlwaysStrong")
        if chi[0].is_zero():
            return RealityVerdict(YES, YES, "ZeroEigenvalue")
        if ctx.n % 4 != 2:
            return RealityVerdict(YES, YES, "NMod4")
        return RealityVerdict(YES, NO, "NMod4")
    if group == "O":
        return RealityVerdict(YES, YES, "OrthogonalAlwaysStrong")
    if group == "SO":
        if chi[0].is_zero():
            return RealityVerdict(YES, YES, "ZeroEigenvalue")
        if ctx.n % 4 != 2:
            return RealityVerdict(YES, YES, "NMod4")
        if ctx.n == 2:
            # the 2x2 rotation block has no special-orthogonal reverser
            return RealityVerdict(NO, NO, "SO2NotReal")
        return RealityVerdict(UNDETERMINED, NO, "PaperSilent")
    if group == "Sp":
        if _nonzero_multiplicities_even(chi):
            return RealityVerdict(YES, YES, "EvenMultiplicity")
        return RealityVerdict(YES, NO, "OddMultiplicity")
    # PSp
    return RealityVerdict(YES, YES, "ProjectiveAlwaysStrong")


def decide_semisimple(x: ExactMatrix, ctx: LieContext) -> RealityVerdict:
    """Reality verdict for a semisimple element under the context group."""
    h, chi = _member_char_poly(x, ctx)
    if not is_semisimple(h, chi):
        raise NotSemisimple(_NOT_DIAGONALIZABLE)
    if x.is_zero():
        cert = ReverserCertificate(x, ExactMatrix.identity(x.rows), ctx, True)
        return RealityVerdict(YES, YES, "ZeroElement", cert)
    return _spectral_verdict(chi, ctx)


def _require_granted(verdict: RealityVerdict, want_involution: bool):
    granted = verdict.is_strongly_real if want_involution else verdict.is_real
    if granted != YES:
        raise NotRealizable(
            f"{'strong ' if want_involution else ''}reality not granted "
            f"({verdict.reason})"
        )


def _verified(cert: ReverserCertificate, failure: str) -> ReverserCertificate:
    """The certificate, once verify_certificate accepts it."""
    report = verify_certificate(cert)
    if not report.ok:
        raise SelfCheckFailed(f"{failure}: {report.failures}")
    return cert


# ---------------------------------------------------------------------------
# canonical witnesses
# ---------------------------------------------------------------------------


def _pair_rep(v: GaussRat) -> GaussRat:
    """Lexicographically larger of v and -v; the pair representative."""
    return v if v.lex_key() >= (-v).lex_key() else -v


def _pair_indices(values):
    """Match indices of v against indices of -v; returns (pairs, zeros)
    with each pair ordered (index of representative, index of negative).
    Raises SelfCheckFailed if the multiset is not symmetric under negation,
    which a granted verdict rules out."""
    zeros = [k for k, v in enumerate(values) if v.is_zero()]
    buckets: dict = {}
    for k, v in enumerate(values):
        if not v.is_zero():
            buckets.setdefault(v, []).append(k)
    pairs = []
    for v in sorted(buckets, key=GaussRat.lex_key):
        if v != _pair_rep(v):
            continue
        pos = buckets.get(v, [])
        neg = buckets.get(-v, [])
        if len(pos) != len(neg):
            break  # left unmatched, so the count below falls short
        pairs.extend(zip(pos, neg))
    if 2 * len(pairs) + len(zeros) != len(values):
        raise SelfCheckFailed("spectrum is not symmetric under negation")
    return pairs, zeros


def _swap_involution(n: int, pairs, zeros, flip_zero: bool) -> ExactMatrix:
    """Per-pair swap blocks [[0,1],[1,0]], identity on zeros, with an
    optional -1 on the last zero coordinate to fix the determinant."""
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


def _rotation_reverser(n: int, pairs) -> ExactMatrix:
    """Per-pair blocks [[0,-1],[1,0]] (determinant one, square -I on the
    paired part), identity elsewhere."""
    g = [[ZERO] * n for _ in range(n)]
    for k in range(n):
        g[k][k] = ONE
    for p, q in pairs:
        g[p][p] = ZERO
        g[q][q] = ZERO
        g[p][q] = -ONE
        g[q][p] = ONE
    return ExactMatrix.from_rows(g)


def _witness_linear(values, ctx: LieContext, want_involution: bool) -> ExactMatrix:
    pairs, zeros = _pair_indices(values)
    n = len(values)
    if not want_involution:
        return _rotation_reverser(n, pairs)
    flip = ctx.group == "SL" and len(pairs) % 2 == 1
    return _swap_involution(n, pairs, zeros, flip)


def _witness_projective_linear(values, ctx: LieContext) -> ExactMatrix:
    """SL representative g with g X g^-1 = -X and g^2 a scalar matrix."""
    pairs, zeros = _pair_indices(values)
    n = len(values)
    if len(zeros) % 2 == 0:
        # rotation blocks on the value pairs and on zero coordinates
        # paired among themselves: determinant 1, square -I
        zero_pairs = [
            (zeros[2 * t], zeros[2 * t + 1]) for t in range(len(zeros) // 2)
        ]
        return _rotation_reverser(n, pairs + zero_pairs)
    mat = _rotation_reverser(n, pairs)
    for z in zeros:
        mat = mat.with_entry(z, z, I)
    # odd zero count forces odd n, so a power of i can absorb det = i^s
    s = len(zeros) % 4
    k = ((-s) * pow(n, -1, 4)) % 4
    mat = mat.scale(I ** k)
    if det(mat) != 1:
        raise SelfCheckFailed("projective reverser does not have determinant 1")
    return mat


def _witness_orthogonal(c: CanonicalSemisimple, ctx: LieContext) -> ExactMatrix:
    """diag(1,-1) on each rotation block, identity on the zero block, with
    a sign flip on a spare zero direction when SO needs determinant one."""
    m = len(c.values)
    r = c.zero_block
    n = 2 * m + r
    diag = []
    for _ in range(m):
        diag.extend([ONE, -ONE])
    diag.extend([ONE] * r)
    need_fix = ctx.group == "SO" and m % 2 == 1
    if need_fix:
        if r >= 1:
            diag[-1] = -ONE
        else:
            # a vanishing rotation parameter leaves a zero 2x2 block whose
            # witness is unconstrained; drop its -1 instead
            j = next(k for k, v in enumerate(c.values) if v.is_zero())
            diag[2 * j + 1] = ONE
    return ExactMatrix.diagonal(diag)


def _antidiag_rotation_blocks(m: int) -> ExactMatrix:
    """m x m antisymmetric B with [[0,-1],[1,0]] blocks on the
    antidiagonal; needs m even."""
    b = [[ZERO] * m for _ in range(m)]
    for t in range(m // 2):
        col = m - 2 * t - 2
        b[2 * t][col + 1] = -ONE
        b[2 * t + 1][col] = ONE
    return ExactMatrix.from_rows(b)


def _witness_symplectic_involution(values, ctx: LieContext) -> ExactMatrix:
    """Involution in Sp(n) reversing diag(h, -h) when every nonzero
    eigenvalue has even multiplicity: block swaps on the coordinates sorted
    by pair representative, moved back by reindexing with a signed
    permutation."""
    n = ctx.n
    hvals = [_pair_rep(v) if not v.is_zero() else v for v in values]
    order = sorted(range(n), key=lambda j: (hvals[j].lex_key(), j))
    sorted_vals = [hvals[j] for j in order]
    # slot a (and n + a) holds coordinate j = order[a], rotated by
    # (e_j, e_{n+j}) -> (-e_{n+j}, e_j) when h_j is not its pair representative
    images = [None] * (2 * n)
    for a, j in enumerate(order):
        if hvals[j] == values[j]:
            images[a], images[n + a] = (j, 1), (n + j, 1)
        else:
            images[a], images[n + a] = (n + j, -1), (j, 1)
    # group equal consecutive values into eigenvalue classes
    g = [[ZERO] * (2 * n) for _ in range(2 * n)]
    a = 0
    while a < n:
        b = a
        while b < n and sorted_vals[b] == sorted_vals[a]:
            b += 1
        idxs = list(range(a, b))
        if sorted_vals[a].is_zero():
            for j in idxs:
                g[j][j] = ONE
                g[n + j][n + j] = ONE
        else:
            m = len(idxs)
            if m % 2:
                raise SelfCheckFailed(
                    "odd multiplicity has no symplectic involution"
                )
            bmat = _antidiag_rotation_blocks(m)
            cmat = bmat.transpose()
            for p in range(m):
                for q in range(m):
                    g[idxs[p]][n + idxs[q]] = bmat[p, q]
                    g[n + idxs[p]][idxs[q]] = cmat[p, q]
        a = b
    return _signed_conjugate(ExactMatrix.from_rows(g), images)


def _canonical_reverser(
    c: CanonicalSemisimple, ctx: LieContext, want_involution: bool
) -> ExactMatrix:
    """Reverser of build_canonical(c) at the requested level, which the
    caller has checked is granted."""
    if all(v.is_zero() for v in c.values):
        return ExactMatrix.identity(c.matrix_size)
    if ctx.group in ("GL", "SL"):
        return _witness_linear(list(c.values), ctx, want_involution)
    if ctx.group == "PSL":
        return _witness_projective_linear(list(c.values), ctx)
    if ctx.group in ("O", "SO"):
        return _witness_orthogonal(c, ctx)
    if ctx.group == "Sp" and want_involution:
        return _witness_symplectic_involution(list(c.values), ctx)
    return jn_matrix(ctx.n)


def witness_semisimple(
    c: CanonicalSemisimple, ctx: LieContext, want_involution: bool
) -> ReverserCertificate:
    """Certified reverser for a canonical semisimple element.

    Raises NotRealizable when the requested level is denied.
    """
    if c.algebra != ctx.algebra:
        raise AlgebraMismatch(
            f"canonical data is for {c.algebra}, context wants {ctx.algebra}"
        )
    if c.matrix_size != ctx.matrix_size:
        raise SizeMismatch("canonical data size does not match context")
    x = build_canonical(c)
    _require_granted(decide_semisimple(x, ctx), want_involution)
    g = _canonical_reverser(c, ctx, want_involution)
    cert = ReverserCertificate(x, g, ctx, want_involution)
    return _verified(cert, "internal witness failure")


# ---------------------------------------------------------------------------
# general (non-canonical) semisimple witnesses
# ---------------------------------------------------------------------------


def _bilinear(form: ExactMatrix | None):
    if form is None:
        return lambda u, v: sum(
            (a * b for a, b in zip(u, v)), ZERO
        )
    def pairing(u, v):
        return sum((a * b for a, b in zip(u, form.mul_vector(v))), ZERO)
    return pairing


def _combine(u, v, cu, cv):
    return [cu * a + cv * b for a, b in zip(u, v)]


def _dual_basis(us, vs, pairing, target: GaussRat):
    """Mix the vs so that pairing(u_a, v_b) = target * delta_ab."""
    k = len(us)
    gram = ExactMatrix.from_rows([[pairing(u, v) for v in vs] for u in us])
    t = inverse(gram).scale(target)
    out = []
    for b in range(k):
        col = [ZERO] * len(vs[0])
        for cidx in range(k):
            col = _combine(col, vs[cidx], ONE, t[cidx, b])
        out.append(col)
    return out


def _orthogonalize_symmetric(vectors, pairing):
    """Basis with diagonal Gram for a nondegenerate symmetric form; exact,
    no normalization (diagonal entries stay arbitrary nonzero)."""
    rest = [list(v) for v in vectors]
    out = []
    while rest:
        pidx = next(
            (k for k, w in enumerate(rest) if not pairing(w, w).is_zero()), None
        )
        if pidx is None:
            found = False
            for a in range(len(rest)):
                for b in range(a + 1, len(rest)):
                    if not pairing(rest[a], rest[b]).is_zero():
                        rest[a] = _combine(rest[a], rest[b], ONE, ONE)
                        pidx = a
                        found = True
                        break
                if found:
                    break
            if pidx is None:
                raise SelfCheckFailed("degenerate symmetric form")
        pivot = rest.pop(pidx)
        out.append(pivot)
        c = pairing(pivot, pivot)
        rest = [
            _combine(w, pivot, ONE, -(pairing(w, pivot) / c)) for w in rest
        ]
    return out


def _symplectic_pair_basis(vectors, pairing, target: GaussRat):
    """Split a space with nondegenerate antisymmetric form into pairs
    (p_a, q_a) with pairing(p_a, q_b) = target * delta_ab; exact."""
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
            beta = pairing(p, w) / target
            alpha = -(pairing(q, w) / target)
            # subtract components so w pairs to zero with both p and q
            w2 = _combine(w, p, ONE, alpha)
            w2 = _combine(w2, q, ONE, beta)
            new_rest.append(w2)
        rest = [w for w in new_rest if any(not e.is_zero() for e in w)]
    return firsts, seconds


def witness_general_semisimple(
    x: ExactMatrix, ctx: LieContext, want_involution: bool
) -> ReverserCertificate:
    """Reverser for an arbitrary semisimple element with Q(i) spectrum.

    Builds an algebra-compatible eigenbasis S with x = S C S^-1 for the
    canonical C, takes the canonical reverser of C, and conjugates it back.
    The verdict comes from the characteristic polynomial of x, which C
    shares; only the final certificate is verified.  When chi splits, x is
    diagonalizable exactly when its eigenspaces span C^n; only when it
    does not split is the Horner test run, so that NotSemisimple still
    wins over SpectrumNotSplit.
    """
    h, chi = _member_char_poly(x, ctx)
    if x.is_zero():
        cert = ReverserCertificate(x, ExactMatrix.identity(x.rows), ctx, want_involution)
        return _verified(cert, "identity witness of the zero element")
    try:
        eigen = eigenspaces(x, chi)
    except SpectrumNotSplit:
        if not is_semisimple(h, chi):
            raise NotSemisimple(_NOT_DIAGONALIZABLE) from None
        raise
    if sum(len(basis) for _, basis in eigen) != x.rows:
        raise NotSemisimple(_NOT_DIAGONALIZABLE)
    _require_granted(_spectral_verdict(chi, ctx), want_involution)
    if ctx.algebra in ("gl", "sl"):
        values, columns = [], []
        for lam, basis in eigen:
            values.extend([lam] * len(basis))
            columns.extend(basis)
        canon = CanonicalSemisimple(ctx.algebra, tuple(values))
        s = ExactMatrix.from_columns(columns)
    elif ctx.algebra == "so":
        canon, s = _so_eigenbasis(x, eigen)
    else:  # sp
        canon, s = _sp_eigenbasis(x, eigen, ctx)
    g = s * _canonical_reverser(canon, ctx, want_involution) * inverse(s)
    cert = ReverserCertificate(x, g, ctx, want_involution)
    return _verified(cert, "general witness")


def _negative_eigenspace(by_value, lam: GaussRat, us):
    """Basis of the -lam eigenspace, which in so and sp has the dimension
    of the lam eigenspace (basis us)."""
    vs = by_value.get(-lam)
    if vs is None or len(vs) != len(us):
        raise SelfCheckFailed(f"eigenvalues {lam} and {-lam} are not paired")
    return vs


def _so_eigenbasis(x: ExactMatrix, eigen):
    """Columns turning x into canonical rotation-block form while keeping
    the symmetric form compatible: paired eigenvectors are mixed into
    exact 'cosine/sine' combinations, the kernel is orthogonalized but
    not normalized (the canonical witness never needs unit lengths)."""
    pairing = _bilinear(None)
    by_value = {lam: basis for lam, basis in eigen}
    half = GaussRat.parse("1/2")
    columns = []
    params = []
    reps = [
        lam
        for lam, _ in eigen
        if not lam.is_zero() and lam == _pair_rep(lam)
    ]
    for lam in reps:
        us = by_value[lam]
        vs_raw = _negative_eigenspace(by_value, lam, us)
        vs = _dual_basis(us, vs_raw, pairing, half)
        for u, v in zip(us, vs):
            f1 = _combine(u, v, ONE, ONE)
            f2 = _combine(u, v, -I, I)
            columns.extend([f1, f2])
            params.append(-I * lam)
    zero_basis = by_value.get(GaussRat.from_int(0), [])
    r = len(zero_basis)
    if zero_basis:
        columns.extend(_orthogonalize_symmetric(zero_basis, pairing))
    canon = CanonicalSemisimple("so", tuple(params), r)
    return canon, ExactMatrix.from_columns(columns)


def _sp_eigenbasis(x: ExactMatrix, eigen, ctx: LieContext):
    """Symplectic eigenbasis: columns (u_1..u_n | w_1..w_n) whose Gram
    matrix under x^t J y is exactly J, mapping x to diag(h, -h)."""
    j = jn_matrix(ctx.n)
    pairing = _bilinear(j)
    by_value = {lam: basis for lam, basis in eigen}
    first, second, hvals = [], [], []
    reps = [
        lam for lam, _ in eigen if not lam.is_zero() and lam == _pair_rep(lam)
    ]
    minus_one = -ONE
    for lam in reps:
        us = by_value[lam]
        ws_raw = _negative_eigenspace(by_value, lam, us)
        ws = _dual_basis(us, ws_raw, pairing, minus_one)
        first.extend(us)
        second.extend(ws)
        hvals.extend([lam] * len(us))
    zero_basis = by_value.get(GaussRat.from_int(0), [])
    if zero_basis:
        zf, zs = _symplectic_pair_basis(zero_basis, pairing, minus_one)
        first.extend(zf)
        second.extend(zs)
        hvals.extend([ZERO] * len(zf))
    canon = CanonicalSemisimple("sp", tuple(hvals))
    return canon, ExactMatrix.from_columns(first + second)
