"""Jordan-Chevalley decomposition X = X_s + X_n over Q(i).

The semisimple part is produced as a polynomial in X by a Newton iteration
on the squarefree part q of the characteristic polynomial, carried out in
the quotient ring Q(i)[t]/(char poly).  No eigenvalues or field extensions
are needed: q' is invertible modulo the characteristic polynomial because
gcd(q, q') = 1, and the iteration converges quadratically, so at most
ceil(log2(n)) steps occur for an n x n matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SelfCheckFailed, SizeMismatch
from .matrix import ExactMatrix, char_poly, eval_poly
from .polynomial import ExactPoly, poly_xgcd, squarefree_part


@dataclass(frozen=True)
class JordanPair:
    """X = semisimple_part + nilpotent_part with witness_poly(X) equal to
    the semisimple part; both parts commute and are polynomials in X."""

    semisimple_part: ExactMatrix
    nilpotent_part: ExactMatrix
    witness_poly: ExactPoly

    def to_json(self):
        return {
            "semisimple_part": self.semisimple_part.to_json(),
            "nilpotent_part": self.nilpotent_part.to_json(),
            "witness_poly": self.witness_poly.to_json(),
        }


def _mod_inverse(p: ExactPoly, modulus: ExactPoly) -> ExactPoly:
    g, u, _ = poly_xgcd(p, modulus)
    if g.degree() != 0:
        raise SelfCheckFailed("non-invertible element in quotient ring")
    return (u.scale(g.leading().inverse())) % modulus


def jordan_chevalley(x: ExactMatrix) -> JordanPair:
    """The unique commuting semisimple + nilpotent splitting of X."""
    if not x.is_square():
        raise SizeMismatch("decomposition of a non-square matrix")
    chi = char_poly(x)
    q = squarefree_part(chi)
    a = ExactPoly.x_power(1) % chi
    dq = q.derivative()
    max_steps = max(1, math.ceil(math.log2(max(2, x.rows))))
    steps = 0
    qa = _compose_mod(q, a, chi)
    while not qa.is_zero():
        if steps > max_steps:  # would contradict theory
            raise SelfCheckFailed("Newton iteration failed to converge")
        dqa = _compose_mod(dq, a, chi)
        a = (a - qa * _mod_inverse(dqa, chi)) % chi
        steps += 1
        qa = _compose_mod(q, a, chi)
    xs = eval_poly(a, x)
    return JordanPair(xs, x - xs, a)


def _compose_mod(p: ExactPoly, a: ExactPoly, modulus: ExactPoly) -> ExactPoly:
    """p(a) reduced modulo the given polynomial (Horner)."""
    out = ExactPoly.zero()
    for c in reversed(p.coeffs):
        out = (out * a + ExactPoly.constant(c)) % modulus
    return out
