"""Independent cross-checks: Krylov-based canonical form similarity,
bounded-height reverser search, and a rank-one obstruction whose
polynomial identities are checked on exact matrices over a grid.

The canonical-form code deliberately avoids the Smith-form machinery: it
computes invariant factors by the cyclic decomposition (maximal-order
vector, then recursion on the quotient), giving a second, unrelated route
to the similarity decision.  Local minimal polynomials, the completed
basis and the quotient action are read off one incremental echelon of
Krylov vectors, which ``matrix`` builds by its fraction-free
Gaussian-integer elimination (``_krylov_echelon``).

Search outcomes are evidence, never proofs of absence: "exhausted" only
says no reverser exists whose coefficients come from the height pool.
"""

from __future__ import annotations

import itertools

from .certificates import ReverserCertificate, verify_certificate
from .errors import (
    AlgebraMismatch,
    SearchSpaceTooLarge,
    SelfCheckFailed,
    SpectrumNotSplit,
    _Record,
)
from .gaussian import GaussRat, ONE, ZERO, rational
from .liecore import LieContext, algebra_member, reverser_linear_space
from .matrix import (
    ExactMatrix,
    _cleared_columns,
    _krylov_echelon,
    _poly_on_vector,
    char_poly,
    det,
    eigenspaces,
    inverse,
)
from .polynomial import ExactPoly, poly_gcd, poly_lcm


# ---------------------------------------------------------------------------
# rational canonical form via cyclic decomposition
# ---------------------------------------------------------------------------


def _unit_vector(n: int, k: int):
    return [ONE if i == k else ZERO for i in range(n)]


def _coprime_split(a: ExactPoly, b: ExactPoly):
    """(a1, b1) with a1 | a, b1 | b, a1 b1 = lcm(a, b), gcd(a1, b1) = 1."""
    g = poly_gcd(a, b)
    a1 = (a // g).monic()
    while True:
        d = poly_gcd(a1, g)
        if d.degree() == 0:
            break
        a1 = (a1 * d).monic()
        g = (g // d).monic()
    b1 = (poly_lcm(a, b) // a1).monic()
    return a1, b1


def _max_order_vector(cleared):
    """Vector whose local minimal polynomial is the minimal polynomial of
    A = M / d, cleared = (d, columns of M)."""
    n = len(cleared[1])
    v = _unit_vector(n, 0)
    p = _krylov_echelon(cleared, v)[1]
    for k in range(1, n):
        if p.degree() == n:
            break
        w = _unit_vector(n, k)
        # p(A) e_k = 0 exactly when the local polynomial of e_k divides p
        if all(x.is_zero() for x in _poly_on_vector(p, cleared, w)):
            continue
        q = _krylov_echelon(cleared, w)[1]
        f, g = _coprime_split(p, q)
        v1 = _poly_on_vector(p // f, cleared, v)
        v2 = _poly_on_vector(q // g, cleared, w)
        v = [x + y for x, y in zip(v1, v2)]
        p = (f * g).monic()
    return v, p


def _invariant_chain(a: ExactMatrix):
    """Nontrivial invariant factors, largest first (cyclic decomposition:
    peel a maximal cyclic subspace, recurse on the quotient action)."""
    n = a.rows
    if n == 0:
        return []
    cleared = _cleared_columns(a)
    v, m = _max_order_vector(cleared)
    k = m.degree()
    if k == n:
        return [m]
    # Complete the Krylov basis v, ..., A^(k-1) v with unit vectors; column
    # n + i of a row carries its coefficient of basis vector i.
    echelon, p = _krylov_echelon(cleared, v)
    if p != m:
        raise SelfCheckFailed("maximal-order vector has the wrong local polynomial")
    chosen = []
    for idx in range(n):
        if k + len(chosen) == n:
            break
        row = echelon.reduce({idx: (1, 0), n + k + len(chosen): (1, 0)})
        if min(row) < n:
            echelon.add(row)
            chosen.append(idx)
    # d A e_idx reduces to zero; minus the combination left, over the
    # echelon's denominator times d, is its coordinates
    d, columns = cleared
    quotient = []
    for idx in chosen:
        row = echelon.reduce({i: (re, im) for i, re, im in columns[idx]})
        quotient.append([
            echelon.value((-row[c][0], -row[c][1]), d) if c in row else ZERO
            for c in range(n + k, 2 * n)
        ])
    rest = _invariant_chain(ExactMatrix.from_columns(quotient))
    if rest and not (m % rest[0]).is_zero():
        raise SelfCheckFailed("cyclic chain broke")
    return [m] + rest


def rcf_invariant_factors(a: ExactMatrix):
    """Invariant factors ascending (ones included), by Krylov cyclic
    decomposition; independent of the Smith-form route."""
    chain = _invariant_chain(a)
    chain.reverse()
    return [ExactPoly.one()] * (a.rows - len(chain)) + chain


def rcf_similar(a: ExactMatrix, b: ExactMatrix) -> bool:
    """Similarity over Q(i) by comparing cyclic-decomposition factors."""
    if a.rows != b.rows or a.cols != b.cols:
        return False
    return rcf_invariant_factors(a) == rcf_invariant_factors(b)


# ---------------------------------------------------------------------------
# bounded-height reverser search
# ---------------------------------------------------------------------------


def _rat_height(q) -> int:
    return max(abs(int(q.numerator)), abs(int(q.denominator)))


def _scalar_order_key(v: GaussRat):
    h = max(_rat_height(v.re), _rat_height(v.im))
    if v.is_zero():
        cat = 0
    elif v.im == 0:
        cat = 1 if v.re > 0 else 2
    elif v.re == 0:
        cat = 3 if v.im > 0 else 4
    else:
        cat = 5
    return (h, cat, v.re, v.im)


def _height_fractions(height: int):
    """The distinct rationals p/q with |p|, q <= height, q >= 1."""
    return {
        rational(p, q) for p in range(-height, height + 1) for q in range(1, height + 1)
    }


def height_pool_size(height: int) -> int:
    """len(height_pool(height)), without building the pool."""
    return len(_height_fractions(height)) ** 2


def height_pool(height: int):
    """Gaussian rationals p/q + (r/s)i with |p|,|q|,|r|,|s| <= height,
    deterministically ordered from simplest to most complex."""
    fracs = _height_fractions(height)
    pool = {GaussRat(re, im) for re in fracs for im in fracs}
    return sorted(pool, key=_scalar_order_key)


def _scan_pool(height: int, count, limit: int, message: str, read: bool):
    """The height pool of a scan over count(pool size) candidates, [] if
    the scan reads none.  The pool holds the (2h+1)^2 Gaussian integers of
    height h, so a count past ``limit`` at that size is refused, as a lower
    bound, before any pool is counted or built."""
    least = count((2 * height + 1) ** 2)
    if least > limit:
        raise SearchSpaceTooLarge(message.format(f"at least {least}", limit))
    if not read:
        return []
    total = count(height_pool_size(height))
    if total > limit:
        raise SearchSpaceTooLarge(message.format(total, limit))
    return height_pool(height)


class SearchOutcome(_Record):
    __slots__ = ("found", "certificate", "height", "candidates_checked", "note")

    def __init__(
        self,
        found: bool,
        certificate: ReverserCertificate | None,
        height: int,
        candidates_checked: int,
        note: str,
    ):
        _Record.__init__(self, found, certificate, height, candidates_checked, note)

    def to_json(self):
        return {
            "outcome": "found" if self.found else "exhausted",
            "height": self.height,
            "candidates_checked": self.candidates_checked,
            "note": self.note,
            "certificate": self.certificate.to_json() if self.certificate else None,
        }


class _StructuredInapplicable(Exception):
    pass


def _structured_involutions(x: ExactMatrix, height: int, limit: int):
    """Lazily enumerate every involution of the anticommutant whose
    eigen-block entries come from the height pool.

    Works for diagonalizable X with Q(i) spectrum and kernel of dimension
    at most one: an involutive anticommuting r swaps each eigenspace pair
    (V_lam, V_-lam) by blocks (B, B^{-1}) and acts by a sign on the
    kernel, so enumerating B over the pool covers every candidate whose
    coefficients are pool-bounded (the computed B^{-1} side may exceed
    the height, which only widens the search).

    Yields (det, builder) pairs; the determinant comes from the exact
    block formula det r = (-1)^{sum of pair multiplicities} * kernel sign.
    """
    try:
        spaces = dict(eigenspaces(x, char_poly(x)))
    except SpectrumNotSplit:
        raise _StructuredInapplicable from None
    if sum(len(basis) for basis in spaces.values()) != x.rows:
        raise _StructuredInapplicable  # not diagonalizable
    kernel_basis = spaces.get(ZERO, [])
    if len(kernel_basis) > 1:
        raise _StructuredInapplicable
    reps = []
    for lam in sorted(spaces, key=GaussRat.lex_key):
        if lam.is_zero():
            continue
        neg = -lam
        if lam.lex_key() < neg.lex_key():
            continue
        if neg not in spaces or len(spaces[neg]) != len(spaces[lam]):
            # asymmetric multiplicities: no involution exists at all
            return
        reps.append(lam)
    block_sizes = [len(spaces[lam]) for lam in reps]

    def count(size):  # the pool holds zero once
        total = 2 if kernel_basis else 1
        for k in block_sizes:
            total *= (size if k > 1 else size - 1) ** (k * k)
        return total

    pool = _scan_pool(
        height, count, limit,
        "structured involution space has {} candidates (limit {})",
        bool(block_sizes),
    )
    nonzero_pool = [c for c in pool if not c.is_zero()]
    columns = []
    for lam in reps:
        columns.extend(spaces[lam])
    for lam in reps:
        columns.extend(spaces[-lam])
    columns.extend(kernel_basis)
    s = ExactMatrix.from_columns(columns)
    s_inv = inverse(s)
    m = len(columns)
    pair_dim = sum(block_sizes)
    kernel_signs = [ONE, -ONE] if kernel_basis else [None]

    def block_candidates(k):
        src = pool if k > 1 else nonzero_pool
        for flat in itertools.product(src, repeat=k * k):
            b = ExactMatrix(k, k, flat)
            d = det(b)
            if d.is_zero():
                continue
            yield b, d

    for choice in itertools.product(*[block_candidates(k) for k in block_sizes]):
        for ksign in kernel_signs:
            # det of an antidiagonal pair block [[0, B], [B^-1, 0]] is
            # (-1)^k: the B and B^-1 determinants cancel exactly
            total_det = -ONE if pair_dim % 2 else ONE
            if ksign is not None:
                total_det = total_det * ksign

            def build(choice=choice, ksign=ksign):
                big = [[ZERO] * m for _ in range(m)]
                off = 0
                for (b, _), k in zip(choice, block_sizes):
                    binv = inverse(b)
                    for a_ in range(k):
                        for b_ in range(k):
                            big[pair_dim + off + a_][off + b_] = b[a_, b_]
                            big[off + a_][pair_dim + off + b_] = binv[a_, b_]
                    off += k
                if ksign is not None:
                    big[m - 1][m - 1] = ksign
                return s * ExactMatrix.from_rows(big) * s_inv

            yield total_det, build


def enumerate_involutive_reversers(x: ExactMatrix, height: int, limit: int = 300000):
    """Full matrices of every pool-bounded involution in the
    anticommutant of x (see _structured_involutions for coverage)."""
    for _, build in _structured_involutions(x, height, limit):
        yield build()


def involution_determinant_census(
    x: ExactMatrix, height: int, limit: int = 300000, sample_every: int = 997
):
    """Count pool-bounded involutive anticommutant elements and collect
    their determinants (exact block formula); every ``sample_every``-th
    candidate is fully rebuilt and re-verified entry by entry."""
    count = 0
    dets = set()
    samples_verified = 0
    for d, build in _structured_involutions(x, height, limit):
        count += 1
        dets.add(d)
        if count % sample_every == 1:
            r = build()
            if r * r != ExactMatrix.identity(r.rows):
                raise SelfCheckFailed("sampled r not involutive")
            if not (r * x + x * r).is_zero():
                raise SelfCheckFailed("sampled r not anticommuting")
            if det(r) != d:
                raise SelfCheckFailed("block determinant formula mismatch")
            samples_verified += 1
    return count, dets, samples_verified


def search_reverser(
    x: ExactMatrix,
    ctx: LieContext,
    height: int,
    require_involution: bool,
    candidate_limit: int = 300000,
) -> SearchOutcome:
    """Enumerate group reversers with pool-bounded coefficients over the
    anticommutant; returns the first verified certificate or exhaustion.

    Exhaustion is evidence, not proof.  For involution searches on split
    semisimple elements the enumeration runs over eigen-block matrices
    (complete for pool-bounded candidates and far smaller); otherwise it
    is a plain product scan over the anticommutant basis.
    """
    if not algebra_member(x, ctx):
        raise AlgebraMismatch(f"element is not in {ctx.algebra}({ctx.n})")
    if require_involution:
        try:
            checked = 0
            for d, build in _structured_involutions(x, height, candidate_limit):
                checked += 1
                if ctx.group in ("SL", "PSL") and d != 1:
                    continue
                cert = ReverserCertificate(x, build(), ctx, True)
                if verify_certificate(cert).ok:
                    return SearchOutcome(True, cert, height, checked, "found")
            return SearchOutcome(
                False, None, height, checked, "exhausted(structured)"
            )
        except _StructuredInapplicable:
            pass
    basis = reverser_linear_space(x)
    pool = _scan_pool(
        height, lambda size: size ** len(basis), candidate_limit,
        "{} candidates exceed the limit {}", bool(basis),
    )
    checked = 0
    n = x.rows
    for combo in itertools.product(pool, repeat=len(basis)):
        checked += 1
        r = ExactMatrix.zeros(n)
        for c, b in zip(combo, basis):
            if not c.is_zero():
                r = r + b.scale(c)
        if require_involution and not (r * r == ExactMatrix.identity(n)):
            continue
        cert = ReverserCertificate(x, r, ctx, require_involution)
        if verify_certificate(cert).ok:
            return SearchOutcome(True, cert, height, checked, "found")
    return SearchOutcome(False, None, height, checked, "exhausted")


# ---------------------------------------------------------------------------
# obstructions checked on exact matrices over a grid
# ---------------------------------------------------------------------------


class ObstructionRecord(_Record):
    __slots__ = ("name", "checks")

    def __init__(self, name: str, checks: list | None = None):
        _Record.__init__(self, name, [] if checks is None else checks)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def to_json(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": [{"check": n, "ok": ok} for n, ok in self.checks],
        }


def sp1_involution_obstruction() -> ObstructionRecord:
    """Polynomial identities for the antidiagonal family g = b E12 + c E21
    (the full anticommutant of diag(x, -x), x != 0): det g = -bc and
    g^2 = bc I, hence det g = 1 forces g^2 = -I, so the rank-one
    symplectic group has no involutive reverser there.

    Each identity is checked on exact matrices at the nine points (b, c)
    of {0, 1, 2}^2.  Every entry of g^2, det g and bc has degree at most 2
    in b and in c, and a polynomial of degree at most 2 in each variable
    that vanishes on a 3 x 3 grid is zero, so the grid proves the identity
    on the whole family."""
    family = [(b * c, ExactMatrix(2, 2, [0, b, c, 0])) for b in range(3) for c in range(3)]
    values = [(bc, g * g, det(g)) for bc, g in family]  # bc, g^2, det g
    one = ExactMatrix.identity(2)
    g = ExactMatrix(2, 2, [0, 1, -1, 0])
    rec = ObstructionRecord("sp1-involution-obstruction")
    rec.checks.append((
        "det g = -bc as a polynomial identity",
        all(d == -bc for bc, _, d in values),
    ))
    rec.checks.append((
        "g^2 = bc * I as a polynomial identity",
        all(g2 == one.scale(bc) for bc, g2, _ in values),
    ))
    rec.checks.append((
        "g^2 + det(g) I = 0 on the whole family",
        all(g2.plus_scalar(d).is_zero() for _, g2, d in values),
    ))
    rec.checks.append((
        "at (b,c) = (1,-1): det 1 and g^2 = -I", det(g) == 1 and g * g == -one
    ))
    rec.checks.append((
        "at (b,c) = (2,1): det -2, outside the group",
        det(ExactMatrix(2, 2, [0, 2, 1, 0])) == -2,
    ))
    return rec
