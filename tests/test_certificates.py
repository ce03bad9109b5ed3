"""Certificate verification: pass and named-failure cases."""

from adjreal.certificates import ReverserCertificate, verify_certificate
from adjreal.gaussian import gr
from adjreal.liecore import LieContext, jn_matrix, so_block
from adjreal.matrix import ExactMatrix


def _j1():
    return ExactMatrix.from_rows([[0, -1], [1, 0]])


def test_valid_plain_certificate():
    cert = ReverserCertificate(
        ExactMatrix.diagonal([1, -1]), _j1(), LieContext("sl", "SL", 2), False
    )
    report = verify_certificate(cert)
    assert report.ok and report.failures == []


def test_involution_claim_fails_on_rotation():
    cert = ReverserCertificate(
        ExactMatrix.diagonal([1, -1]), _j1(), LieContext("sl", "SL", 2), True
    )
    report = verify_certificate(cert)
    assert not report.ok
    assert report.failures == ["InvolutionClaim(g^2 != I)"]


def test_group_membership_failure_names_det():
    cert = ReverserCertificate(
        so_block(gr(1)),
        ExactMatrix.diagonal([1, -1]),
        LieContext("so", "SO", 2),
        False,
    )
    report = verify_certificate(cert)
    assert not report.ok
    assert "GroupMembership(det g != 1)" in report.failures


def test_anticonjugation_failure_is_named():
    cert = ReverserCertificate(
        ExactMatrix.diagonal([1, -1]),
        ExactMatrix.identity(2),
        LieContext("sl", "SL", 2),
        False,
    )
    report = verify_certificate(cert)
    assert report.failures == ["Anticonjugation(g X g^-1 != -X)"]


def test_projective_involution_accepts_central_scalar():
    cert = ReverserCertificate(
        ExactMatrix.diagonal([gr(2), gr(-2)]),
        jn_matrix(1),
        LieContext("sp", "PSp", 1),
        True,
    )
    assert verify_certificate(cert).ok


def test_singular_reverser_is_rejected():
    cert = ReverserCertificate(
        ExactMatrix.diagonal([1, -1]),
        ExactMatrix.zeros(2),
        LieContext("gl", "GL", 2),
        False,
    )
    report = verify_certificate(cert)
    assert "Invertibility(det g = 0)" in report.failures


def test_singular_symplectic_reverser_names_invertibility():
    """g^t J g = J is tested before any determinant; a singular g fails it
    and is still reported as singular."""
    cert = ReverserCertificate(
        ExactMatrix.diagonal([2, -2]),
        ExactMatrix.from_rows([[0, 1], [0, 0]]),
        LieContext("sp", "Sp", 1),
        False,
    )
    assert verify_certificate(cert).failures == ["Invertibility(det g = 0)"]


def test_nonsingular_non_symplectic_reverser_names_the_form():
    cert = ReverserCertificate(
        ExactMatrix.diagonal([2, -2]),
        ExactMatrix.from_rows([[0, 2], [1, 0]]),
        LieContext("sp", "Sp", 1),
        False,
    )
    assert verify_certificate(cert).failures == ["GroupMembership(g^t J g != J)"]


def test_certificate_json_round_trip():
    cert = ReverserCertificate(
        ExactMatrix.diagonal([1, -1]), _j1(), LieContext("sl", "SL", 2), False
    )
    again = ReverserCertificate.from_json(cert.to_json())
    assert again == cert
    assert verify_certificate(again).ok


def test_anticonjugation_is_compared_without_matrix_sums(monkeypatch):
    """g X = -(X g) is compared on the two products' rows, with no matrix
    sum, and a g that breaks only that equation is still named."""
    calls = []
    original = ExactMatrix.__add__

    def spy(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(ExactMatrix, "__add__", spy)
    x = ExactMatrix.from_rows([[gr("1/2", 1), gr(3)], [gr(0, "-2/3"), gr("-1/2", -1)]])
    transvection = ExactMatrix.from_rows([[gr(1), gr("1/2", 1)], [gr(0), gr(1)]])
    sl2 = LieContext("sl", "SL", 2)
    report = verify_certificate(ReverserCertificate(x, transvection, sl2, False))
    assert report.failures == ["Anticonjugation(g X g^-1 != -X)"]
    good = ReverserCertificate(
        ExactMatrix.diagonal([gr(2), gr(-2)]), jn_matrix(1), LieContext("sp", "PSp", 1), True
    )
    assert verify_certificate(good).ok
    assert calls == []
