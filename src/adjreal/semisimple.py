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
n), so ``is_semisimple``'s Horner test on X's own columns runs only in
``decide`` and when chi does not split.  Every canonical reverser but the
orthogonal diagonal is a monomial map, each basis vector going to a unit
multiple of another, and is built from its images by
``ExactMatrix.monomial``.

Verdict reason vocabulary: ZeroElement, SpectrumAsymmetric,
SpectrumSymmetric, ZeroEigenvalue, NMod4, OrthogonalAlwaysStrong,
SO2NotReal, PaperSilent, EvenMultiplicity, OddMultiplicity,
ProjectiveAlwaysStrong.
"""

from __future__ import annotations

import itertools
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


def _member_char_poly(x: ExactMatrix, ctx: LieContext) -> ExactPoly:
    """Check that x is an element of the context algebra and return its
    characteristic polynomial, the only spectral data the verdicts and
    witnesses need."""
    if not algebra_member(x, ctx):
        raise AlgebraMismatch(f"element is not in {ctx.algebra}({ctx.n})")
    return char_poly(x)


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
    chi = _member_char_poly(x, ctx)
    if not is_semisimple(x, chi):
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


def _pair_images(n: int, pairs, sign: int):
    """Images (i_k, s_k), for ``ExactMatrix.monomial``, of the map that
    sends e_p to e_q and e_q to sign * e_p for each pair (p, q) and fixes
    every other basis vector: per pair the swap [[0, 1], [1, 0]] for
    sign 1, the rotation [[0, -1], [1, 0]] (determinant one, square -I)
    for sign -1."""
    images = [(k, 1) for k in range(n)]
    for p, q in pairs:
        images[p], images[q] = (q, 1), (p, sign)
    return images


def _witness_linear(values, ctx: LieContext, want_involution: bool) -> ExactMatrix:
    pairs, zeros = _pair_indices(values)
    if not want_involution:
        return ExactMatrix.monomial(_pair_images(len(values), pairs, -1))
    images = _pair_images(len(values), pairs, 1)
    if ctx.group == "SL" and len(pairs) % 2 == 1:
        # a -1 on the last zero coordinate fixes the determinant
        images[zeros[-1]] = (zeros[-1], -1)
    return ExactMatrix.monomial(images)


def _witness_projective_linear(values, ctx: LieContext) -> ExactMatrix:
    """SL representative g with g X g^-1 = -X and g^2 a scalar matrix."""
    pairs, zeros = _pair_indices(values)
    n = len(values)
    if len(zeros) % 2 == 0:
        # rotation blocks on the value pairs and on zero coordinates
        # paired among themselves: determinant 1, square -I
        zero_pairs = list(zip(zeros[0::2], zeros[1::2]))
        return ExactMatrix.monomial(_pair_images(n, pairs + zero_pairs, -1))
    images = _pair_images(n, pairs, -1)
    for z in zeros:
        images[z] = (z, I)
    # odd zero count forces odd n, so a power of i can absorb det = i^s
    s = len(zeros) % 4
    unit = I ** (((-s) * pow(n, -1, 4)) % 4)
    mat = ExactMatrix.monomial([(i, unit * sk) for i, sk in images])
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


def _witness_symplectic_involution(values, ctx: LieContext) -> ExactMatrix:
    """Involution in Sp(n) reversing diag(h, -h) when every nonzero
    eigenvalue has even multiplicity: block swaps on the coordinates sorted
    by pair representative, moved back by reindexing with a signed
    permutation."""
    n = ctx.n
    hvals = [_pair_rep(v) if not v.is_zero() else v for v in values]
    order = sorted(range(n), key=lambda j: (hvals[j].lex_key(), j))
    # slot a (and n + a) holds coordinate j = order[a], rotated by
    # (e_j, e_{n+j}) -> (-e_{n+j}, e_j) when h_j is not its pair representative
    images = [None] * (2 * n)
    for a, j in enumerate(order):
        if hvals[j] == values[j]:
            images[a], images[n + a] = (j, 1), (n + j, 1)
        else:
            images[a], images[n + a] = (n + j, -1), (j, 1)
    # block involution on sorted slots: the identity on the zero class; a
    # nonzero class on slots a..b-1 sends slot s to the second-half copy of
    # its mirror a + b - 1 - s and back, with signs alternating
    blocks = [(k, 1) for k in range(2 * n)]
    a = 0
    for value, members in itertools.groupby(hvals[j] for j in order):
        b = a + len(list(members))
        if not value.is_zero():
            if (b - a) % 2:
                raise SelfCheckFailed(
                    "odd multiplicity has no symplectic involution"
                )
            for s in range(a, b):
                sign, mirror = (1 if (s - a) % 2 else -1), a + b - 1 - s
                blocks[s], blocks[n + s] = (n + mirror, sign), (mirror, -sign)
        a = b
    return _signed_conjugate(ExactMatrix.monomial(blocks), images)


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


def _dual_pairs(eigen, form: ExactMatrix | None, target: GaussRat):
    """(lam, U, W) for each nonzero pair representative lam of ``eigen``:
    U is the lam eigenspace basis and W = W_-lam (U^t F W_-lam)^-1 target
    the -lam one, mixed so that U^t F W = target I (F = I when form is
    None).  The two spaces must have one dimension, as in so and sp."""
    by_value = dict(eigen)
    out = []
    for lam, us in eigen:
        if lam.is_zero() or lam != _pair_rep(lam):
            continue
        vs = by_value.get(-lam)
        if vs is None or len(vs) != len(us):
            raise SelfCheckFailed(f"eigenvalues {lam} and {-lam} are not paired")
        u, v = ExactMatrix.from_columns(us), ExactMatrix.from_columns(vs)
        ut_f = u.transpose() if form is None else u.transpose() * form
        out.append((lam, u, v * inverse(ut_f * v).scale(target)))
    return out


def _add_column(t, g, a: int, b: int, c: GaussRat):
    """Column a of T += c column b, with the Gram matrix g of T's columns
    kept current by congruence: row a of g += c row b, then column a +=
    c column b.  With a = b, column a is scaled by 1 + c."""
    if c.is_zero():
        return
    g[a] = [x + c * y for x, y in zip(g[a], g[b])]
    for m in (t, g):
        for row in m:
            row[a] = row[a] + c * row[b]


def _congruent(t, g, order):
    """(T, T^t G T) with the columns of T taken in ``order``."""
    return (
        ExactMatrix.from_rows([[row[k] for k in order] for row in t]),
        ExactMatrix.from_rows([[g[a][b] for b in order] for a in order]),
    )


def _orthogonalize_symmetric(gram: ExactMatrix):
    """(T, T^t G T) with T^t G T diagonal, for the Gram matrix G of a
    nondegenerate symmetric form; exact, no normalization.  Greedy column
    operations on T = I: the first column left with a nonzero square (or,
    failing that, a + b for the first pair a < b that pairs) is the next
    pivot and is cleared from the columns after it."""
    t, g = ExactMatrix.identity(gram.rows).to_lists(), gram.to_lists()
    rest, order = list(range(gram.rows)), []
    while rest:
        pivot = next((a for a in rest if not g[a][a].is_zero()), None)
        if pivot is None:
            pivot, b = next(
                ((a, b) for k, a in enumerate(rest) for b in rest[k + 1:]
                 if not g[a][b].is_zero()),
                (None, None),
            )
            if pivot is None:
                raise SelfCheckFailed("degenerate symmetric form")
            _add_column(t, g, pivot, b, ONE)
        rest.remove(pivot)
        order.append(pivot)
        c = g[pivot][pivot]
        for w in rest:
            _add_column(t, g, w, pivot, -(g[w][pivot] / c))
    return _congruent(t, g, order)


def _symplectic_pairs(gram: ExactMatrix, target: GaussRat):
    """(T, T^t G T) with T^t G T the blocks [[0, target], [-target, 0]]
    down the diagonal, for the Gram matrix G of a nondegenerate
    antisymmetric form; exact.  Greedy column operations on T = I: p is
    the first column left, q the first after it that pairs with p, scaled
    to <p, q> = target; w <- w + <q, w>/target p - <p, w>/target q clears
    both from the other columns."""
    t, g = ExactMatrix.identity(gram.rows).to_lists(), gram.to_lists()
    rest, order = list(range(gram.rows)), []
    while rest:
        p = rest.pop(0)
        q = next((w for w in rest if not g[p][w].is_zero()), None)
        if q is None:
            raise SelfCheckFailed("degenerate antisymmetric form")
        rest.remove(q)
        _add_column(t, g, q, q, target / g[p][q] - ONE)  # scales q
        order += [p, q]
        for w in rest:
            alpha, beta = g[q][w] / target, -(g[p][w] / target)
            _add_column(t, g, w, p, alpha)
            _add_column(t, g, w, q, beta)
    return _congruent(t, g, order)


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
    chi = _member_char_poly(x, ctx)
    if x.is_zero():
        cert = ReverserCertificate(x, ExactMatrix.identity(x.rows), ctx, want_involution)
        return _verified(cert, "identity witness of the zero element")
    try:
        eigen = eigenspaces(x, chi)
    except SpectrumNotSplit:
        if not is_semisimple(x, chi):
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


def _so_eigenbasis(x: ExactMatrix, eigen):
    """Columns turning x into canonical rotation-block form while keeping
    the symmetric form compatible: paired eigenvectors are mixed into
    exact 'cosine/sine' combinations, the kernel is orthogonalized but
    not normalized (the canonical witness never needs unit lengths)."""
    columns, params = [], []
    for lam, u, v in _dual_pairs(eigen, None, GaussRat.parse("1/2")):
        cosines, sines = (u + v).transpose(), (v - u).scale(I).transpose()
        for k in range(u.cols):
            columns.extend([cosines.row_list(k), sines.row_list(k)])
            params.append(-I * lam)
    zero_basis = dict(eigen).get(ZERO, [])
    if zero_basis:
        z = ExactMatrix.from_columns(zero_basis)
        t, _ = _orthogonalize_symmetric(z.transpose() * z)
        columns.extend((z * t).transpose().to_lists())
    canon = CanonicalSemisimple("so", tuple(params), len(zero_basis))
    return canon, ExactMatrix.from_columns(columns)


def _sp_eigenbasis(x: ExactMatrix, eigen, ctx: LieContext):
    """Symplectic eigenbasis: columns (u_1..u_n | w_1..w_n) whose Gram
    matrix under x^t J y is exactly J, mapping x to diag(h, -h)."""
    j = jn_matrix(ctx.n)
    first, second, hvals = [], [], []
    for lam, u, w in _dual_pairs(eigen, j, -ONE):
        first.extend(u.transpose().to_lists())
        second.extend(w.transpose().to_lists())
        hvals.extend([lam] * u.cols)
    zero_basis = dict(eigen).get(ZERO, [])
    if zero_basis:
        z = ExactMatrix.from_columns(zero_basis)
        t, _ = _symplectic_pairs(z.transpose() * j * z, -ONE)
        pairs = (z * t).transpose().to_lists()
        first.extend(pairs[0::2])
        second.extend(pairs[1::2])
        hvals.extend([ZERO] * (len(pairs) // 2))
    canon = CanonicalSemisimple("sp", tuple(hvals))
    return canon, ExactMatrix.from_columns(first + second)
