"""Dense univariate polynomials over Q(i) and exact root extraction.

Coefficients are stored lowest degree first with no trailing zeros, so the
zero polynomial has an empty coefficient tuple and degree -1.

Root finding stays inside Q(i): candidate roots a/b are produced from the
Gaussian-integer divisors of the trailing and leading coefficients (after
clearing denominators), divisors are enumerated by factoring the
integer norm, and only candidates inside an exact root bound are tried.
Anything irrational is returned untouched as the cofactor.
"""

from __future__ import annotations

import math

from .errors import ParseError
from .gaussian import ONE, ZERO, GaussRat, rational


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


def poly_gcd(p: ExactPoly, q: ExactPoly) -> ExactPoly:
    """Monic gcd by the Euclidean algorithm; gcd(0, 0) = 0."""
    a, b = p, q
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


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
# Gaussian-integer support for rational-root extraction
# ---------------------------------------------------------------------------


def _is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit-ish inputs."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"failed to factor {n}")  # pragma: no cover


def factor_int(n: int) -> dict:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    out: dict = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = m
        # trial division first; Pollard rho for hard cofactors
        found = False
        f = 17
        while f * f <= m and f < 100000:
            if m % f == 0:
                stack.extend([f, m // f])
                found = True
                break
            f += 2
        if not found:
            d = _pollard_rho(m)
            stack.extend([d, m // d])
    return out


class Gint:
    """Gaussian integer a + b*i used only inside root extraction."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def norm(self) -> int:
        return self.a * self.a + self.b * self.b

    def __mul__(self, other: "Gint") -> "Gint":
        return Gint(
            self.a * other.a - self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def __eq__(self, other) -> bool:
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def divmod(self, other: "Gint"):
        """Rounded division making Z[i] Euclidean."""
        n = other.norm()
        pa = self.a * other.a + self.b * other.b
        pb = self.b * other.a - self.a * other.b
        qa = (2 * pa + n) // (2 * n)
        qb = (2 * pb + n) // (2 * n)
        q = Gint(qa, qb)
        r = Gint(self.a - (q * other).a, self.b - (q * other).b)
        return q, r

    def divides(self, other: "Gint") -> bool:
        _, r = other.divmod(self)
        return r.a == 0 and r.b == 0

    def exact_div(self, other: "Gint") -> "Gint":
        q, r = self.divmod(other)
        if r.a or r.b:
            raise ArithmeticError("not an exact Gaussian division")
        return q


_UNITS = (Gint(1, 0), Gint(0, 1), Gint(-1, 0), Gint(0, -1))


def _gaussian_primes_above(p: int):
    """Gaussian primes dividing the rational prime p."""
    if p == 2:
        return [Gint(1, 1)]
    if p % 4 == 3:
        return [Gint(p, 0)]
    # p = 1 mod 4: find s with s^2 = -1 mod p, then gcd(p, s + i)
    c = 2
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    s = pow(c, (p - 1) // 4, p)
    g = _gint_gcd(Gint(p, 0), Gint(s, 1))
    return [g, Gint(g.a, -g.b)]


def _gint_gcd(x: Gint, y: Gint) -> Gint:
    while y.a or y.b:
        _, r = x.divmod(y)
        x, y = y, r
    return x


def gaussian_divisors(z: Gint, max_norm: int | None = None):
    """All divisors of z != 0 up to unit multiples (one per class), or
    only those of norm at most max_norm >= 1.  Each divisor is grown one
    prime factor at a time and norms only grow, so growth stops at the
    limit."""
    if z.norm() == 0:
        raise ZeroDivisionError("divisors of zero requested")
    powers = []
    rest = z
    for p, _ in sorted(factor_int(z.norm()).items()):
        for g in _gaussian_primes_above(p):
            e = 0
            while g.divides(rest):
                rest = rest.exact_div(g)
                e += 1
            if e:
                powers.append((g, e))
    divisors = [Gint(1, 0)]
    for g, e in powers:
        grown = []
        for d in divisors:
            for _ in range(e + 1):
                if max_norm is not None and d.norm() > max_norm:
                    break
                grown.append(d)
                d = d * g
        divisors = grown
    return divisors


def _to_gaussian_integer_poly(p: ExactPoly):
    """Scale p by a positive integer so coefficients land in Z[i], then
    divide out the Gaussian-integer content."""
    lcm = 1
    for c in p.coeffs:
        for part in (c.re, c.im):
            d = int(part.denominator)
            lcm = lcm * d // math.gcd(lcm, d)
    gcoeffs = [
        Gint(int(c.re * lcm), int(c.im * lcm)) for c in p.coeffs
    ]
    content = Gint(0, 0)
    for g in gcoeffs:
        if g.a or g.b:
            content = g if (content.a == 0 and content.b == 0) else _gint_gcd(content, g)
    return [g.exact_div(content) for g in gcoeffs]


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
    with Gaussian-integer coefficients a_0..a_d: Fujiwara's bound
    2 max_k |a_{d-k} / a_d|^(1/k), with a_0 halved, rounded up exactly."""
    d = len(gcoeffs) - 1
    lead = gcoeffs[-1].norm()
    bound = 0
    for k in range(1, d + 1):
        # (B/2)^k >= |a_{d-k} / a_d| (half that for k = d), squared
        num = 4 ** (k - 1 if k == d else k) * gcoeffs[d - k].norm()
        bound = max(bound, _ceil_root(-(-num // lead), 2 * k))
    return bound


def linear_roots(p: ExactPoly):
    """All roots of p lying in Q(i), with multiplicity, plus the rootless
    cofactor; the (x - root) factors times the cofactor reproduce p exactly.

    Candidates are the unit multiples of num/den, for Gaussian-integer
    divisors num of the trailing and den of the leading coefficient,
    inside an exact root bound; they are tried in increasing norm until
    no linear factor is left.  Roots are returned sorted by the (re, im)
    key.
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
        gcoeffs = _to_gaussian_integer_poly(work)
        bound = _root_bound(gcoeffs) ** 2
        dens = gaussian_divisors(gcoeffs[-1])
        max_num = bound * max(den.norm() for den in dens)
        candidates = set()
        for num in gaussian_divisors(gcoeffs[0], max_num):
            for den in dens:
                if num.norm() > bound * den.norm():
                    continue
                base = GaussRat(
                    rational(num.a), rational(num.b)
                ) / GaussRat(rational(den.a), rational(den.b))
                for u in _UNITS:
                    candidates.add(GaussRat(rational(u.a), rational(u.b)) * base)
        for cand in sorted(candidates, key=lambda c: (c.norm(), c.lex_key())):
            if work.degree() < 1:
                break
            while work.degree() >= 1 and work(cand).is_zero():
                roots.append(cand)
                work = work // ExactPoly((-cand, ONE))
    roots.sort(key=GaussRat.lex_key)
    return roots, work
