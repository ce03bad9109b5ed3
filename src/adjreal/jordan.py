"""Jordan-Chevalley decomposition X = X_s + X_n over Q(i).

The semisimple part is s(X), where s is the semisimple part of t in the
ring Q(i)[t]/(chi), chi the characteristic polynomial: the unique
semisimple residue with t - s nilpotent, written as its polynomial of
degree < deg chi.  It is found by Newton's iteration on the squarefree
part q of chi, started at s = t, with one inverse computed once:
w = (q')^-1 mod q, by an extended gcd of degree deg q, which exists
because gcd(q, q') = 1.  Each step is

    s <- s - q(s) w(s)  (mod chi).

From w q' = 1 + h q, w(s) q'(s) = 1 (mod q(s)), so the new q(s) lies in
the ideal of the old q(s)^2: the iteration converges quadratically, in at
most ceil(log2(n)) steps for an n x n matrix, and no eigenvalues or field
extensions are needed (Couty, Esterle and Zarouf, "Decomposition effective
de Jordan-Chevalley", Gazette des Mathematiciens 129, 2011).

Residues are Gaussian-integer coefficient vectors over one positive
integer denominator.  Products and the reduction by chi, cleared to
Gaussian-integer coefficients, run in Python ints; each result is divided
by the gcd of its numbers once.
"""

from __future__ import annotations

import math

from .errors import SelfCheckFailed, SizeMismatch, _FrozenRecord
from .gaussian import GaussRat, _cleared, rational
from .matrix import ExactMatrix, char_poly, eval_poly
from .polynomial import ExactPoly, poly_xgcd, squarefree_part


class JordanPair(_FrozenRecord):
    """X = semisimple_part + nilpotent_part with witness_poly(X) equal to
    the semisimple part; both parts commute and are polynomials in X."""

    __slots__ = ("semisimple_part", "nilpotent_part", "witness_poly")

    def __init__(
        self, semisimple_part: ExactMatrix, nilpotent_part: ExactMatrix, witness_poly: ExactPoly
    ):
        _FrozenRecord.__init__(self, semisimple_part, nilpotent_part, witness_poly)

    def to_json(self):
        return {
            "semisimple_part": self.semisimple_part.to_json(),
            "nilpotent_part": self.nilpotent_part.to_json(),
            "witness_poly": self.witness_poly.to_json(),
        }


def jordan_chevalley(x: ExactMatrix) -> JordanPair:
    """The unique commuting semisimple + nilpotent splitting of X."""
    if not x.is_square():
        raise SizeMismatch("decomposition of a non-square matrix")
    chi = char_poly(x)
    q = squarefree_part(chi)
    ring = _Quotient(chi)
    s = _vector(ExactPoly.x_power(1) % chi, ring.n)
    qs = ring.evaluate(q, s)
    if not ring.is_zero(qs):
        w = _inverse_mod(q.derivative(), q)
        max_steps = max(1, math.ceil(math.log2(max(2, x.rows))))
        steps = 0
        while not ring.is_zero(qs):
            if steps > max_steps:  # would contradict theory
                raise SelfCheckFailed("Newton iteration failed to converge")
            s = ring.subtract(s, ring.product(qs, ring.evaluate(w, s)))
            steps += 1
            qs = ring.evaluate(q, s)
    a = ring.poly(s)
    xs = eval_poly(a, x)
    return JordanPair(xs, x - xs, a)


def _inverse_mod(p: ExactPoly, modulus: ExactPoly) -> ExactPoly:
    """p^-1 modulo the given polynomial; SelfCheckFailed if they share a
    factor."""
    g, u, _ = poly_xgcd(p, modulus)
    if g.degree() != 0:
        raise SelfCheckFailed("non-invertible element in quotient ring")
    return u % modulus


class _Quotient:
    """Arithmetic in Q(i)[t]/(chi) for a monic chi of degree n.

    A residue is (re, im, den): coefficient lists of length n, lowest
    degree first, of Gaussian integers re[k] + im[k]*i, over one integer
    den > 0, with no common factor of all of them left over.  ``lead`` and
    ``low`` hold D*chi cleared of denominators: D = lead and the nonzero
    coefficients below t^n as (k, re, im)."""

    __slots__ = ("n", "lead", "low")

    def __init__(self, chi: ExactPoly):
        self.n = chi.degree()
        self.lead, terms = _cleared(chi.coeffs)
        self.low = terms[:-1]

    def poly(self, a) -> ExactPoly:
        re, im, den = a
        return ExactPoly(
            [GaussRat(rational(cr, den), rational(ci, den)) for cr, ci in zip(re, im)]
        )

    @staticmethod
    def is_zero(a) -> bool:
        return not any(a[0]) and not any(a[1])

    def product(self, a, b):
        n = self.n
        are, aim, aden = a
        right = [(j, br, bi) for j, (br, bi) in enumerate(zip(b[0], b[1])) if br or bi]
        size = max(2 * n - 1, 0)
        re, im = [0] * size, [0] * size
        for i, (ar, ai) in enumerate(zip(are, aim)):
            if ai:
                for j, br, bi in right:
                    re[i + j] += ar * br - ai * bi
                    im[i + j] += ar * bi + ai * br
            elif ar:
                for j, br, bi in right:
                    re[i + j] += ar * br
                    im[i + j] += ar * bi
        den = aden * b[2]
        # t^k = t^(k-n) t^n and D t^n = -(the cleared terms below t^n)
        lead = self.lead
        for k in range(size - 1, n - 1, -1):
            tr, ti = re[k], im[k]
            if not (tr or ti):
                continue
            if lead != 1:
                for j in range(k):
                    re[j] *= lead
                    im[j] *= lead
                den *= lead
            base = k - n
            for j, cr, ci in self.low:
                re[base + j] -= tr * cr - ti * ci
                im[base + j] -= tr * ci + ti * cr
        return _reduced(re[:n], im[:n], den)

    def subtract(self, a, b):
        (are, aim, aden), (bre, bim, bden) = a, b
        den = math.lcm(aden, bden)
        fa, fb = den // aden, den // bden
        return _reduced(
            [x * fa - y * fb for x, y in zip(are, bre)],
            [x * fa - y * fb for x, y in zip(aim, bim)],
            den,
        )

    def evaluate(self, p: ExactPoly, s):
        """p(s) by Horner's rule on E*p, E the lcm of p's denominators."""
        pre, pim, e = _vector(p, len(p.coeffs))
        out = ([0] * self.n, [0] * self.n, 1)
        for cr, ci in zip(reversed(pre), reversed(pim)):
            if not self.is_zero(out):
                out = self.product(out, s)
            if self.n and (cr or ci):
                re, im, den = out
                re[0] += cr * den
                im[0] += ci * den
        re, im, den = out
        return _reduced(re, im, den * e)


def _vector(p: ExactPoly, length: int):
    """(re, im, E): p's coefficients times the lcm E of their denominators,
    as Gaussian integers in two lists of the given length."""
    e, terms = _cleared(p.coeffs)
    re, im = [0] * length, [0] * length
    for k, cr, ci in terms:
        re[k], im[k] = cr, ci
    return re, im, e


def _reduced(re, im, den):
    """(re, im, den) divided by the gcd of all its numbers."""
    g = math.gcd(den, *re, *im)
    if g == 1:
        return re, im, den
    return [v // g for v in re], [v // g for v in im], den // g
