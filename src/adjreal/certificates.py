"""Reverser certificates and their zero-tolerance verification.

A certificate packages an algebra element X, a claimed reverser g, the
acting context, and an involution claim.  Verification re-derives every
assertion exactly: group membership, invertibility, g X g^{-1} = -X, and
the involution claim (g^2 = I, or g^2 a scalar matrix for PSL/PSp).  The
anticonjugation is checked multiplicatively, as g X = -(X g): both
products come as canonical rows over Z[i] and are compared row by row,
with no sum formed.  Any failure is reported by naming the violated
equation.
"""

from __future__ import annotations

from .errors import ParseError, _FrozenRecord, _Record
from .liecore import LieContext, algebra_member, group_failure
from .matrix import ExactMatrix


class ReverserCertificate(_FrozenRecord):
    __slots__ = ("element", "reverser", "context", "claims_involution")

    def __init__(
        self,
        element: ExactMatrix,
        reverser: ExactMatrix,
        context: LieContext,
        claims_involution: bool = False,
    ):
        _FrozenRecord.__init__(self, element, reverser, context, claims_involution)

    def to_json(self):
        return {
            "element": self.element.to_json(),
            "reverser": self.reverser.to_json(),
            "context": self.context.to_json(),
            "claims_involution": self.claims_involution,
        }

    @staticmethod
    def from_json(data) -> "ReverserCertificate":
        try:
            claim = data.get("claims_involution", False)
            cert = ReverserCertificate(
                element=ExactMatrix.from_json(data["element"]),
                reverser=ExactMatrix.from_json(data["reverser"]),
                context=LieContext.from_json(data["context"]),
                claims_involution=claim,
            )
        except (AttributeError, KeyError, TypeError) as exc:
            raise ParseError(f"bad certificate JSON: {exc}") from exc
        if not isinstance(claim, bool):
            raise ParseError(
                f"claims_involution must be a JSON boolean, got {claim!r}"
            )
        return cert


class VerificationReport(_Record):
    __slots__ = ("ok", "failures")

    def __init__(self, ok: bool, failures: list | None = None):
        _Record.__init__(self, ok, [] if failures is None else failures)

    def to_json(self):
        return {"verified": self.ok, "failures": list(self.failures)}


def verify_certificate(cert: ReverserCertificate) -> VerificationReport:
    """Exact verification; failures name the violated equations."""
    failures = []
    x, g, ctx = cert.element, cert.reverser, cert.context
    size = ctx.matrix_size
    if not x.is_square() or x.rows != size:
        failures.append(f"ElementShape(size != {size})")
        return VerificationReport(False, failures)
    if not algebra_member(x, ctx):
        failures.append(f"AlgebraMembership(X not in {ctx.algebra})")
    gf = group_failure(g, ctx)
    if gf is not None:
        failures.append(gf)
    else:
        if g * x != -(x * g):  # g X g^-1 = -X, see the module docstring
            failures.append("Anticonjugation(g X g^-1 != -X)")
        if cert.claims_involution:
            g2 = g * g
            if ctx.is_projective:
                if not is_nonzero_scalar(g2):
                    failures.append("InvolutionClaim(g^2 not a central scalar)")
            elif not (g2 == ExactMatrix.identity(size)):
                failures.append("InvolutionClaim(g^2 != I)")
    return VerificationReport(not failures, failures)


def is_nonzero_scalar(m: ExactMatrix) -> bool:
    """m = c I for some c != 0: central in PSL / PSp."""
    c = m[0, 0]
    return not c.is_zero() and m == ExactMatrix.identity(m.rows).scale(c)
