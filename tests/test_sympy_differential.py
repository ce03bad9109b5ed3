"""Differential checks against an independent exact oracle: sympy's
DomainMatrix over QQ_I.  Skipped when sympy is not installed."""

import pytest

sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy import QQ, QQ_I  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from adjreal.gaussian import GaussRat, gr, rational  # noqa: E402
from adjreal.matrix import ExactMatrix, char_poly, eval_poly  # noqa: E402
from adjreal.polynomial import ExactPoly  # noqa: E402

# zero, real, purely imaginary and mixed entries of low height
ENTRIES = [
    gr(0), gr(1), gr(-1), gr(2), gr(0, 1), gr(0, -1), gr(0, 3),
    gr("1/2"), gr("-3/2"), gr(1, -1), gr(rational(1, 3), rational(-2)),
]


@st.composite
def matrices(draw, max_size=8):
    n = draw(st.integers(1, max_size))
    rows = [
        [draw(st.sampled_from(ENTRIES)) for _ in range(n)] for _ in range(n)
    ]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        rows[i] = [gr(0)] * n
    return ExactMatrix.from_rows(rows)


def _to_qqi(v: GaussRat):
    return QQ_I(
        QQ(v.re.numerator, v.re.denominator), QQ(v.im.numerator, v.im.denominator)
    )


def _from_qqi(c) -> GaussRat:
    return GaussRat(
        rational(int(c.x.numerator), int(c.x.denominator)),
        rational(int(c.y.numerator), int(c.y.denominator)),
    )


def _domain_matrix(m: ExactMatrix):
    rows = [[_to_qqi(e) for e in m.row_list(i)] for i in range(m.rows)]
    return DomainMatrix(rows, (m.rows, m.cols), QQ_I)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_char_poly_matches_sympy(m):
    expected = [_from_qqi(c) for c in reversed(_domain_matrix(m).charpoly())]
    assert list(char_poly(m).coeffs) == expected


@settings(max_examples=40, deadline=None)
@given(matrices(max_size=6), st.lists(st.sampled_from(ENTRIES), max_size=6))
def test_eval_poly_matches_sympy_powers(m, coeffs):
    dm = _domain_matrix(m)
    total = dm * QQ_I(0)
    for k, c in enumerate(coeffs):
        total = total + dm**k * _to_qqi(c)
    expected = [[_from_qqi(e) for e in row] for row in total.to_list()]
    assert eval_poly(ExactPoly(coeffs), m).to_lists() == expected


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_eval_poly_annihilates_by_cayley_hamilton(m):
    assert eval_poly(char_poly(m), m).is_zero()
