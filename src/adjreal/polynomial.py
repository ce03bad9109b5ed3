"""Dense univariate polynomials over Q(i) and exact root extraction.

Coefficients are stored lowest degree first with no trailing zeros, so the
zero polynomial has an empty coefficient tuple and degree -1.

Root finding stays inside Q(i): the roots of the squarefree part are
found modulo a small prime p = 1 (mod 4), lifted p-adically past an exact
root bound, and read back as Gaussian rationals by rounding in a reduced
lattice basis; only candidates that are exact roots are kept.  Anything
irrational is returned untouched as the cofactor.
"""

from __future__ import annotations

import math

from .errors import ParseError
from .gaussian import ONE, ZERO, GaussRat, _cleared, rational


class ExactPoly:
    """Polynomial with GaussRat coefficients, lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, GaussRat) else GaussRat.from_int(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "ExactPoly":
        return ExactPoly(())

    @staticmethod
    def one() -> "ExactPoly":
        return ExactPoly((ONE,))

    @staticmethod
    def constant(c: GaussRat) -> "ExactPoly":
        return ExactPoly((c,))

    @staticmethod
    def x_power(k: int, coeff: GaussRat = ONE) -> "ExactPoly":
        return ExactPoly((ZERO,) * k + (coeff,))

    @staticmethod
    def from_roots(roots) -> "ExactPoly":
        """Monic product of (x - r) over the given roots."""
        p = ExactPoly.one()
        for r in roots:
            p = p * ExactPoly((-r, ONE))
        return p

    # -- basic structure ---------------------------------------------------

    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> GaussRat:
        if not self.coeffs:
            return ZERO
        return self.coeffs[-1]

    def __getitem__(self, k: int) -> GaussRat:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "ExactPoly") -> "ExactPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return ExactPoly([self[k] + other[k] for k in range(n)])

    def __sub__(self, other: "ExactPoly") -> "ExactPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return ExactPoly([self[k] - other[k] for k in range(n)])

    def __neg__(self) -> "ExactPoly":
        return ExactPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, GaussRat):
            return ExactPoly([c * other for c in self.coeffs])
        if not isinstance(other, ExactPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return ExactPoly.zero()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return ExactPoly(out)

    __rmul__ = __mul__

    def scale(self, c: GaussRat) -> "ExactPoly":
        return ExactPoly([a * c for a in self.coeffs])

    def __divmod__(self, other: "ExactPoly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return ExactPoly.zero(), self
        quo = [ZERO] * (dq + 1)
        inv_lead = other.leading().inverse()
        for k in range(dq, -1, -1):
            c = rem[k + other.degree()] * inv_lead
            if c.is_zero():
                continue
            quo[k] = c
            for j, b in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - c * b
        return ExactPoly(quo), ExactPoly(rem)

    def __floordiv__(self, other: "ExactPoly") -> "ExactPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "ExactPoly") -> "ExactPoly":
        return divmod(self, other)[1]

    def monic(self) -> "ExactPoly":
        if self.is_zero():
            return self
        return self.scale(self.leading().inverse())

    def derivative(self) -> "ExactPoly":
        return ExactPoly([self.coeffs[k] * k for k in range(1, len(self.coeffs))])

    def __call__(self, x: GaussRat) -> GaussRat:
        out = ZERO
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def substitute_negated(self) -> "ExactPoly":
        """p(-x), exact."""
        return ExactPoly(
            [c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs)]
        )

    # -- formatting --------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for k in range(self.degree(), -1, -1):
            c = self[k]
            if c.is_zero():
                continue
            if k == 0:
                terms.append(f"({c})")
            elif k == 1:
                terms.append(f"({c})*x")
            else:
                terms.append(f"({c})*x^{k}")
        return " + ".join(terms)

    def __repr__(self) -> str:
        return f"ExactPoly[{self}]"

    def to_json(self):
        return [str(c) for c in self.coeffs]

    @staticmethod
    def from_json(data) -> "ExactPoly":
        if not isinstance(data, list):
            raise ParseError("polynomial JSON must be a list of scalar strings")
        return ExactPoly([GaussRat.parse(s) for s in data])


def _primitive(p: ExactPoly):
    """p cleared to Gaussian-integer coefficients and divided by their
    content: lists (re, im) of Python ints, lowest degree first."""
    _, nonzero = _cleared(p.coeffs)
    re, im = [0] * len(p.coeffs), [0] * len(p.coeffs)
    for k, a, b in nonzero:
        re[k], im[k] = a, b
    return _without_content(re, im)


def _gaussian_gcd(ar, ai, br, bi):
    """A gcd in Z[i] of ar + ai*i and br + bi*i, by Euclid with the
    quotient rounded to the nearest Gaussian integer."""
    while br or bi:
        n = br * br + bi * bi
        qr = (2 * (ar * br + ai * bi) + n) // (2 * n)
        qi = (2 * (ai * br - ar * bi) + n) // (2 * n)
        ar, ai, br, bi = br, bi, ar - qr * br + qi * bi, ai - qr * bi - qi * br
    return ar, ai


def _without_content(re, im):
    """The nonzero Gaussian-integer polynomial re + im*i divided by the gcd
    in Z[i] of its coefficients.  The content of a pseudo-remainder
    carries powers of the divisor's lead, and those are Gaussian primes
    such as 2 + i as often as rational integers."""
    cr, ci = 0, 0
    for x, y in zip(re, im):
        cr, ci = _gaussian_gcd(x, y, cr, ci)
        n = cr * cr + ci * ci
        if n == 1:
            return re, im
    return (
        [(x * cr + y * ci) // n for x, y in zip(re, im)],
        [(y * cr - x * ci) // n for x, y in zip(re, im)],
    )


def _pseudo_remainder(re, im, bre, bim):
    """A Gaussian-integer multiple of a mod b, empty when b divides a, for
    a = re + im*i and b = bre + bim*i (lists as from _primitive, b of
    degree >= 1): each
    step replaces a by (lc(b) a - lc(a) t^s b) / c, c the integer gcd of
    the two leading coefficients' parts, which cancels a's lead."""
    re, im = list(re), list(im)
    n = len(bre) - 1
    while len(re) > n:
        ar, ai = re.pop(), im.pop()
        if not (ar or ai):
            continue
        c = math.gcd(ar, ai, bre[-1], bim[-1])
        ar, ai, lr, li = ar // c, ai // c, bre[-1] // c, bim[-1] // c
        if li or lr != 1:
            for k, (x, y) in enumerate(zip(re, im)):
                re[k], im[k] = lr * x - li * y, lr * y + li * x
        s = len(re) - n
        for j in range(n):
            x, y = bre[j], bim[j]
            re[s + j] -= ar * x - ai * y
            im[s + j] -= ar * y + ai * x
    while re and not (re[-1] or im[-1]):
        re.pop()
        im.pop()
    return re, im


def poly_gcd(p: ExactPoly, q: ExactPoly) -> ExactPoly:
    """Monic gcd; gcd(0, 0) = 0.

    A primitive polynomial remainder sequence over Z[i] (Brown, JACM 18,
    1971): both arguments are cleared to Gaussian-integer coefficients,
    pseudo-remainders are taken in Python ints, and each remainder is
    divided by its content, the gcd in Z[i] of its coefficients.  The last
    nonzero remainder is made monic once; the monic gcd is unique, so it
    equals Euclid's over Q(i)."""
    if p.is_zero() or q.is_zero():
        return (q if p.is_zero() else p).monic()
    a, b = _primitive(p), _primitive(q)
    if len(a[0]) < len(b[0]):
        a, b = b, a
    while len(b[0]) > 1:  # deg b >= 1
        a, b = b, _pseudo_remainder(*a, *b)
        if not b[0]:
            re, im = a
            lr, li = re[-1], im[-1]
            norm = lr * lr + li * li
            return ExactPoly([
                GaussRat(rational(x * lr + y * li, norm), rational(y * lr - x * li, norm))
                for x, y in zip(re, im)
            ])
        b = _without_content(*b)
    return ExactPoly.one()  # a nonzero constant remainder


def poly_xgcd(p: ExactPoly, q: ExactPoly):
    """Extended gcd: returns (g, u, v) with u*p + v*q = g, g monic."""
    a, b = p, q
    ua, va = ExactPoly.one(), ExactPoly.zero()
    ub, vb = ExactPoly.zero(), ExactPoly.one()
    while not b.is_zero():
        quo, rem = divmod(a, b)
        a, b = b, rem
        ua, ub = ub, ua - quo * ub
        va, vb = vb, va - quo * vb
    if a.is_zero():
        return a, ua, va
    inv = a.leading().inverse()
    return a.monic(), ua.scale(inv), va.scale(inv)


def poly_lcm(p: ExactPoly, q: ExactPoly) -> ExactPoly:
    if p.is_zero() or q.is_zero():
        return ExactPoly.zero()
    return ((p * q) // poly_gcd(p, q)).monic()


def squarefree_part(p: ExactPoly) -> ExactPoly:
    """Monic product of the distinct irreducible factors of p."""
    if p.degree() <= 0:
        return ExactPoly.one() if not p.is_zero() else p
    return (p // poly_gcd(p, p.derivative())).monic()


def squarefree_decomposition(p: ExactPoly):
    """Yun decomposition: list of (factor, multiplicity) with factors
    monic, squarefree, pairwise coprime, and p = lead * prod f_i^{m_i}."""
    if p.degree() <= 0:
        return []
    d = p.derivative()
    g = poly_gcd(p, d)
    w = p // g
    z = (d // g) - w.derivative()
    out = []
    m = 1
    while w.degree() > 0:
        f = poly_gcd(w, z)
        if f.degree() > 0:
            out.append((f, m))
        w = w // f
        z = (z // f) - w.derivative()
        m += 1
    return out


# ---------------------------------------------------------------------------
# Q(i) roots by lifting modulo a split prime
# ---------------------------------------------------------------------------


def _ceil_root(m: int, e: int) -> int:
    """Smallest integer r >= 0 with r**e >= m."""
    lo, hi = 0, 1 << -(-m.bit_length() // e)  # hi**e >= 2**bits > m
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**e >= m:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _root_bound(gcoeffs) -> int:
    """Integer B with |z| <= B for every complex root z of the polynomial
    with Gaussian-integer coefficients (re, im) a_0..a_d: Fujiwara's bound
    2 max_k |a_{d-k} / a_d|^(1/k), with a_0 halved, rounded up exactly."""
    d = len(gcoeffs) - 1
    re, im = gcoeffs[-1]
    lead = re * re + im * im
    bound = 0
    for k in range(1, d + 1):
        # (B/2)^k >= |a_{d-k} / a_d| (half that for k = d), squared
        re, im = gcoeffs[d - k]
        num = 4 ** (k - 1 if k == d else k) * (re * re + im * im)
        bound = max(bound, _ceil_root(-(-num // lead), 2 * k))
    return bound


def _horner(cs, x: int, q: int) -> int:
    """The integer polynomial cs (lowest degree first) at x, modulo q."""
    out = 0
    for c in reversed(cs):
        out = (out * x + c) % q
    return out


def _newton(cs, x: int, q: int) -> int:
    """Lift x, a simple root of the integer polynomial cs modulo p, to its
    root modulo q = p^k; each step doubles the precision."""
    ds = [k * c for k, c in enumerate(cs)][1:]
    while v := _horner(cs, x, q):
        x = (x - v * pow(_horner(ds, x, q), -1, q)) % q
    return x


def _split_prime(gcoeffs, lead: int):
    """(p, iota, residues): the first prime p = 1 (mod 4) not dividing the
    integer lead at which the polynomial, read modulo p with i -> iota
    (iota^2 = -1), has only simple roots; residues lists those roots.
    Everything is found by trying each residue."""
    p = 1
    while True:
        p += 4
        if lead % p == 0 or any(p % f == 0 for f in range(3, math.isqrt(p) + 1, 2)):
            continue
        iota = next(s for s in range(p) if (s * s + 1) % p == 0)
        cs = [re + im * iota for re, im in gcoeffs]
        ds = [k * c for k, c in enumerate(cs)][1:]
        residues = [x for x in range(p) if _horner(cs, x, p) == 0]
        if all(_horner(ds, x, p) for x in residues):
            return p, iota, residues


def _shortest(q: int, iota: int):
    """A shortest nonzero vector (x, y) of the lattice
    {(x, y) : x + y*iota = 0 (mod q)}, by Lagrange-Gauss reduction."""
    a, b = (q, 0), (-iota % q, 1)
    while True:
        aa = a[0] * a[0] + a[1] * a[1]
        m = (2 * (a[0] * b[0] + a[1] * b[1]) + aa) // (2 * aa)
        b = (b[0] - m * a[0], b[1] - m * a[1])
        if b[0] * b[0] + b[1] * b[1] >= aa:
            return a
        a, b = b, a


def squarefree_roots(g: ExactPoly):
    """The roots in Q(i) of the monic squarefree polynomial g, sorted by
    the (re, im) key.

    g, cleared to Gaussian-integer coefficients with integer lead a, has
    a*r in Z[i] with |a*r| <= a*B for each root r in Q(i) (B the Fujiwara
    bound).  Modulo a split prime p at which g's roots are simple, every
    such root is one of g's roots mod p; each of those is Newton-lifted to
    q = p^k > 4 a^2 B^2.  With i -> iota mod q, the Gaussian integers that
    vanish mod q form the k-th power of a prime ideal above p, a square
    lattice of side sqrt(q), so a*r is the one point of its residue class
    within sqrt(q)/2 of 0: rounding in the reduced basis u, i*u recovers
    it.  A candidate z = a*r is kept only if g(z/a) = 0 exactly, tested
    as sum_k a*g_k z^k a^(d-k) = 0 in Python ints.
    """
    if g.degree() < 1:
        return []
    a, nonzero = _cleared(g.coeffs)
    gcoeffs = [(0, 0)] * len(g.coeffs)
    for k, re, im in nonzero:
        gcoeffs[k] = (re, im)
    prime, iota, residues = _split_prime(gcoeffs, a)
    q, limit = prime, 4 * (a * _root_bound(gcoeffs)) ** 2
    while q <= limit:
        q *= prime
    iota = _newton([1, 0, 1], iota, q)
    cs = [(re + im * iota) % q for re, im in gcoeffs]
    ur, ui = _shortest(q, iota)
    roots = []
    for x in residues:
        t = a * _newton(cs, x, q) % q
        # z = t - m*u with m = t/u rounded, u*conj(u) = q
        mr = (2 * t * ur + q) // (2 * q)
        mi = (-2 * t * ui + q) // (2 * q)
        zr, zi = t - mr * ur + mi * ui, -mr * ui - mi * ur
        # homogeneous Horner: v = sum_k gcoeffs[k] z^k a^(d-k)
        vr, vi = gcoeffs[-1]
        scale = 1
        for cr, ci in reversed(gcoeffs[:-1]):
            scale *= a
            vr, vi = vr * zr - vi * zi + cr * scale, vr * zi + vi * zr + ci * scale
        if not (vr or vi):
            roots.append(GaussRat(rational(zr, a), rational(zi, a)))
    roots.sort(key=GaussRat.lex_key)
    return roots


def linear_roots(p: ExactPoly):
    """All roots of p lying in Q(i), with multiplicity, plus the rootless
    cofactor; the (x - root) factors times the cofactor reproduce p exactly.

    Powers of x are stripped first; the other roots are those of the
    squarefree part (``squarefree_roots``), each divided out of p as often
    as it goes.  Roots are returned sorted by the (re, im) key.
    """
    if p.is_zero():
        raise ZeroDivisionError("roots of the zero polynomial requested")
    roots = []
    work = p
    # strip powers of x
    while work.degree() >= 1 and work[0].is_zero():
        roots.append(ZERO)
        work = ExactPoly(work.coeffs[1:])
    if work.degree() >= 1:
        for r in squarefree_roots(squarefree_part(work)):
            while True:
                quo, rem = divmod(work, ExactPoly((-r, ONE)))
                if not rem.is_zero():
                    break
                roots.append(r)
                work = quo
    roots.sort(key=GaussRat.lex_key)
    return roots, work
