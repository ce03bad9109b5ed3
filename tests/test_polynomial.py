"""Polynomial gcd, squarefree structure, and Q(i) root extraction."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from adjreal.gaussian import GaussRat, I, ONE, ZERO, _cleared, gr, rational
from adjreal.polynomial import (
    ExactPoly,
    linear_roots,
    poly_gcd,
    poly_xgcd,
    squarefree_decomposition,
    squarefree_part,
    squarefree_roots,
)

X = ExactPoly.x_power(1)
ONE_P = ExactPoly.one()


def test_gcd_shared_linear_factor():
    assert poly_gcd(X * X - ONE_P, X - ONE_P) == X - ONE_P


def test_gcd_monomials():
    assert poly_gcd(X * X, X * X * X) == X * X


def test_gcd_over_gaussian_field():
    # (x^2+1, x-i) -> x-i, confirmed by exact division
    g = poly_gcd(X * X + ONE_P, X - ExactPoly.constant(I))
    assert g == X - ExactPoly.constant(I)
    quo, rem = divmod(X * X + ONE_P, g)
    assert rem.is_zero()
    assert quo * g == X * X + ONE_P


def test_gcd_of_zeros_is_zero():
    z = ExactPoly.zero()
    assert poly_gcd(z, z).is_zero()


def small_polys(max_degree=5):
    coeff = st.integers(min_value=-4, max_value=4)
    def build(res, ims):
        return ExactPoly(
            [GaussRat(rational(r), rational(i)) for r, i in zip(res, ims)]
        )
    lists = st.lists(coeff, min_size=1, max_size=max_degree + 1)
    return st.builds(build, lists, lists)


@given(small_polys(), small_polys())
@settings(max_examples=60)
def test_gcd_divides_both_inputs(p, q):
    g = poly_gcd(p, q)
    if g.is_zero():
        assert p.is_zero() and q.is_zero()
        return
    assert (p % g).is_zero()
    assert (q % g).is_zero()
    assert g.leading() == ONE


def _euclid_gcd(p: ExactPoly, q: ExactPoly) -> ExactPoly:
    """Reference: the monic gcd by Euclid's algorithm over Q(i)."""
    a, b = p, q
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


# contents made of Gaussian primes (1+i, 2+i, 1-2i, 3) and denominators
_CONTENTS = st.builds(
    lambda g, k, d: g**k * gr(rational(1, d)),
    st.sampled_from([gr(1, 1), gr(2, 1), gr(1, -2), gr(3)]),
    st.integers(0, 8),
    st.sampled_from([1, 2, 3, 10]),
)


@given(small_polys(3), small_polys(3), small_polys(3), _CONTENTS, _CONTENTS)
@settings(max_examples=80, deadline=None)
def test_prs_gcd_matches_euclid_on_shared_factors(f, a, b, ca, cb):
    for p, q in ((f * a.scale(ca), f * f * b.scale(cb)), (a.scale(ca), b)):
        assert poly_gcd(p, q) == _euclid_gcd(p, q)
        assert poly_gcd(q, p) == _euclid_gcd(p, q)


def test_prs_remainders_stay_primitive_over_gaussian_integers(monkeypatch):
    """Pseudo-remainders carry powers of the divisor's leading coefficient,
    here powers of 2+i.  Dividing out only the rational-integer content
    let remainders of these products reach about 1,300 bits; with the
    content taken in Z[i] they stay near the inputs' size."""
    from adjreal import polynomial

    widths = []
    strip = polynomial._without_content

    def recorded(re, im):
        re, im = strip(re, im)
        widths.append(max(abs(v).bit_length() for v in re + im))
        return re, im

    monkeypatch.setattr(polynomial, "_without_content", recorded)
    c = ExactPoly.constant(gr(2, 1) ** 9)
    f = ExactPoly([gr(1, 2), gr(-3), ONE])
    a = ExactPoly([gr(2, -1), gr(0, 3), gr(1, 1), gr(3)])
    b = ExactPoly([gr(-1), gr(2, 2), gr(0, -1), gr(2), gr(1, -3)])
    p, q = f * a * c, f * b * c * c
    assert poly_gcd(p, q) == _euclid_gcd(p, q) == f.monic()
    assert widths and max(widths) <= 64


@given(small_polys(), small_polys())
@settings(max_examples=40)
def test_xgcd_bezout_identity(p, q):
    g, u, v = poly_xgcd(p, q)
    assert u * p + v * q == g


@given(small_polys())
@settings(max_examples=60)
def test_squarefree_part_is_squarefree(p):
    if p.degree() <= 0:
        return
    q = squarefree_part(p)
    assert poly_gcd(q, q.derivative()).degree() == 0


def test_squarefree_decomposition_rebuilds_input():
    p = ExactPoly.from_roots([ONE, ONE, -ONE, I, I, I])
    parts = squarefree_decomposition(p)
    rebuilt = ExactPoly.one()
    for f, m in parts:
        for _ in range(m):
            rebuilt = rebuilt * f
    assert rebuilt.monic() == p.monic()
    assert {m for _, m in parts} == {1, 2, 3}


def test_linear_roots_plain():
    roots, cof = linear_roots(X * X - ONE_P)
    assert sorted(map(str, roots)) == ["-1", "1"]
    assert cof == ONE_P


def test_linear_roots_gaussian():
    roots, cof = linear_roots(X * X + ONE_P)
    assert roots == [-I, I]
    assert cof == ONE_P


def test_linear_roots_irrational_cofactor():
    # sqrt(2) is not a Gaussian rational: norm-form divisor search proves
    # there is no root a/b with a | 2 and b | 1 up to units
    p = X * X - ExactPoly.constant(gr(2))
    roots, cof = linear_roots(p)
    assert roots == []
    assert cof == p
    units = [gr(1), gr(-1), I, -I]
    divisors_of_two = [gr(1), gr(1, 1), gr(2), gr(1, -1)]
    for u in units:
        for d in divisors_of_two:
            cand = u * d
            assert not p(cand).is_zero()


def test_linear_roots_multiplicity_and_reexpansion():
    r = gr("1/2") + gr(0, 3)
    p = ExactPoly.from_roots([r, r, -I]) * (X * X - ExactPoly.constant(gr(2)))
    p = p.scale(gr(0, 2))  # non-monic leading unit
    roots, cof = linear_roots(p)
    assert sorted(map(str, roots)) == sorted([str(r), str(r), "-1*i"])
    assert ExactPoly.from_roots(roots) * cof == p


@given(st.lists(st.sampled_from([0, 1, -1, 2, -3]), min_size=1, max_size=4))
@settings(max_examples=40)
def test_linear_roots_reexpansion_on_split_polys(root_ints):
    roots = [GaussRat.from_int(k) for k in root_ints]
    p = ExactPoly.from_roots(roots)
    found, cof = linear_roots(p)
    assert cof.degree() == 0
    assert ExactPoly.from_roots(found) * cof == p
    assert sorted(found, key=GaussRat.lex_key) == sorted(roots, key=GaussRat.lex_key)


@given(
    st.lists(st.tuples(st.integers(-6, 6), st.integers(-3, 3), st.integers(1, 3),
                       st.integers(1, 3)), max_size=4),
    small_polys(max_degree=2),
    st.sampled_from([gr(1), gr(-2), gr(0, 1), gr(3, -1), gr("2/5")]),
)
@settings(max_examples=60, deadline=None)
def test_squarefree_roots_are_the_distinct_linear_roots(roots, cofactor, lead):
    """The lifting core on the squarefree part finds exactly the distinct
    roots that linear_roots reports, zero included."""
    if cofactor.is_zero():
        cofactor = ONE_P
    p = cofactor.scale(lead)
    for a, b, d, mult in roots:
        p = p * ExactPoly.from_roots([GaussRat(rational(a, d), rational(b, d))] * mult)
    found, _ = linear_roots(p)
    assert squarefree_roots(squarefree_part(p)) == sorted(set(found), key=GaussRat.lex_key)


def _box_divisors(a: int, b: int):
    """Every divisor x + y*i of a + b*i != 0 in Z[i], one per unit class
    (x > 0, y >= 0): a box search over the norms m dividing a^2 + b^2,
    and over the points of norm m in the box 0 < x <= sqrt(m)."""
    n = a * a + b * b
    norms = set()
    for m in range(1, math.isqrt(n) + 1):
        if n % m == 0:
            norms |= {m, n // m}
    out = []
    for m in sorted(norms):
        for x in range(1, math.isqrt(m) + 1):
            y = math.isqrt(m - x * x)
            # (a + b*i) / (x + y*i) = (a + b*i)(x - y*i) / m
            if x * x + y * y == m and (a * x + b * y) % m == 0 and (b * x - a * y) % m == 0:
                out.append((x, y))
    return out


def _full_divisor_linear_roots(p: ExactPoly):
    """Reference root search: every unit multiple of num/den over all
    Gaussian-integer divisors num of the trailing and den of the leading
    coefficient (cleared to Z[i], integer content divided out), with no
    bound and no early stop."""
    roots = []
    work = p
    while work.degree() >= 1 and work[0].is_zero():
        roots.append(ZERO)
        work = ExactPoly(work.coeffs[1:])
    if work.degree() >= 1:
        _, nonzero = _cleared(work.coeffs)
        content = math.gcd(*(c for _, re, im in nonzero for c in (re, im)))
        ints = {k: (re // content, im // content) for k, re, im in nonzero}
        candidates = set()
        for num in _box_divisors(*ints[0]):
            for den in _box_divisors(*ints[work.degree()]):
                base = GaussRat(*num) / GaussRat(*den)
                for u in (gr(1), I, gr(-1), -I):
                    candidates.add(u * base)
        for cand in sorted(candidates, key=GaussRat.lex_key):
            while work.degree() >= 1 and work(cand).is_zero():
                roots.append(cand)
                work = work // ExactPoly((-cand, ONE))
    roots.sort(key=GaussRat.lex_key)
    return roots, work


_SQRT2 = X * X - ExactPoly.constant(gr(2))


@pytest.mark.parametrize(
    "p",
    [
        ExactPoly.from_roots([gr(3), gr(-1)]) * _SQRT2,
        ExactPoly.from_roots([gr("1/2"), gr(0, 2)]) * (X * X + X + ONE_P),
        ExactPoly.from_roots([gr(2), gr(-3)]).scale(gr(6)),
        ExactPoly.from_roots([gr("2/3"), gr(1, 1)]).scale(gr(0, 3)),
        ExactPoly.from_roots([gr(1, -2)]).scale(gr(2, 1)) * _SQRT2,
        ExactPoly.from_roots([gr(2), gr(2), gr(2), gr(-1), gr(0, 1), gr(0, 1)]),
        ExactPoly.from_roots([ZERO, ZERO, gr("-5/2"), gr("-5/2")]),
        # roots at the bound: |3+4i| = 5 = B, and for (x-4)(x+2) both
        # Fujiwara terms are 4 = |4|
        ExactPoly.from_roots([gr(3, 4)]),
        ExactPoly.from_roots([gr(4), gr(-2)]),
        ExactPoly.from_roots([gr(-7)]).scale(gr(3)),
        _SQRT2 * _SQRT2,
    ],
    ids=[
        "irrational-cofactor", "irreducible-quadratic", "non-monic",
        "imaginary-leading", "complex-leading-irrational", "repeated",
        "zero-and-repeated", "gaussian-at-bound", "quadratic-at-bound",
        "linear-at-bound", "no-roots",
    ],
)
def test_bounded_root_search_matches_full_divisor_search(p):
    assert linear_roots(p) == _full_divisor_linear_roots(p)


@given(
    st.lists(st.tuples(st.integers(-6, 6), st.integers(-3, 3), st.integers(1, 3)),
             max_size=4),
    small_polys(max_degree=2),
    st.sampled_from([gr(1), gr(-2), gr(0, 1), gr(3, -1), gr("2/5")]),
)
@settings(max_examples=60, deadline=None)
def test_bounded_root_search_matches_full_divisor_search_random(roots, cofactor, lead):
    if cofactor.is_zero():
        cofactor = ONE_P
    p = ExactPoly.from_roots(
        [GaussRat(rational(a, d), rational(b, d)) for a, b, d in roots]
    ) * cofactor.scale(lead)
    assert linear_roots(p) == _full_divisor_linear_roots(p)


def test_poly_json_round_trip():
    p = ExactPoly([gr("1/2"), ZERO, I])
    assert ExactPoly.from_json(p.to_json()) == p
