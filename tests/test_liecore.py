"""Membership predicates, canonical forms, centralizers, anticommutants."""

import pytest
from hypothesis import given, settings, strategies as st

from adjreal.errors import ParseError, SizeMismatch
from adjreal.gaussian import I, ONE, ZERO, gr
from adjreal.liecore import (
    CanonicalSemisimple,
    LieContext,
    algebra_member,
    build_canonical,
    centralizer_algebra,
    group_member,
    jn_matrix,
    reverser_linear_space,
    so_block,
)
from adjreal.matrix import ExactMatrix, det, inverse

from conftest import SMALL_SCALARS


def test_context_compatibility():
    LieContext("sp", "Sp", 2)
    LieContext("sl", "PSL", 3)
    with pytest.raises(ParseError):
        LieContext("sl", "Sp", 2)
    with pytest.raises(ParseError):
        LieContext("so", "GL", 2)
    with pytest.raises(ParseError):
        LieContext("gl", "GL", 0)


def test_algebra_membership_examples():
    assert algebra_member(ExactMatrix.diagonal([1, -1]), LieContext("sl", "SL", 2))
    assert algebra_member(so_block(gr(7)), LieContext("so", "SO", 2))
    assert not algebra_member(ExactMatrix.diagonal([1, 1]), LieContext("sl", "SL", 2))
    with pytest.raises(SizeMismatch):
        algebra_member(ExactMatrix.zeros(3), LieContext("sp", "Sp", 2))


def test_group_membership_examples():
    assert group_member(jn_matrix(1), LieContext("sp", "Sp", 1))
    d = ExactMatrix.diagonal([1, -1])
    assert not group_member(d, LieContext("so", "SO", 2))
    assert group_member(d, LieContext("so", "O", 2))
    assert group_member(ExactMatrix.diagonal([I, -I]), LieContext("sl", "SL", 2))


def test_build_canonical_shapes():
    assert build_canonical(
        CanonicalSemisimple("sl", (gr(5), gr(-5)))
    ) == ExactMatrix.diagonal([5, -5])
    assert build_canonical(CanonicalSemisimple("so", (gr(4),))) == so_block(gr(4))
    assert build_canonical(
        CanonicalSemisimple("sp", (gr(2),))
    ) == ExactMatrix.diagonal([2, -2])


def test_build_canonical_always_in_algebra():
    cases = [
        (CanonicalSemisimple("sl", (gr(1), gr(2), gr(-3))), LieContext("sl", "SL", 3)),
        (CanonicalSemisimple("so", (gr(1), ZERO), 1), LieContext("so", "SO", 5)),
        (CanonicalSemisimple("sp", (gr(1), I)), LieContext("sp", "Sp", 2)),
        (CanonicalSemisimple("gl", (gr(1), gr(7))), LieContext("gl", "GL", 2)),
    ]
    for canon, ctx in cases:
        assert algebra_member(build_canonical(canon), ctx)


def test_centralizer_dimensions():
    # regular diagonal element: the centralizer is the diagonal Cartan
    ctx = LieContext("sl", "SL", 3)
    basis = centralizer_algebra(ExactMatrix.diagonal([1, 2, -3]), ctx)
    assert len(basis) == 2
    # zero element: the whole algebra
    basis = centralizer_algebra(ExactMatrix.zeros(2), LieContext("sl", "SL", 2))
    assert len(basis) == 3
    # diag(x, -x) inside the rank-one symplectic algebra
    basis = centralizer_algebra(
        ExactMatrix.diagonal([gr(5), gr(-5)]), LieContext("sp", "Sp", 1)
    )
    assert len(basis) == 1


def test_anticommutant_examples():
    revs = reverser_linear_space(ExactMatrix.diagonal([gr(3), gr(-3)]))
    assert len(revs) == 2
    for r in revs:
        assert r[0, 0].is_zero() and r[1, 1].is_zero()
    assert len(reverser_linear_space(ExactMatrix.zeros(2))) == 4
    revs = reverser_linear_space(so_block(gr(1)))
    assert len(revs) == 2
    span_targets = [
        ExactMatrix.diagonal([1, -1]),
        ExactMatrix.from_rows([[0, 1], [1, 0]]),
    ]
    # the two bases span the same plane
    for target in span_targets:
        cols = [list(r.entries) for r in revs]
        from adjreal.matrix import solve_linear

        solve_linear(ExactMatrix.from_columns(cols), list(target.entries))


def test_extended_centralizer_index_two(rng):
    """Any two invertible anticommuting elements differ by a centralizer
    element: r1^{-1} r2 commutes with X."""
    x = ExactMatrix.diagonal([gr(2), gr(-2)])
    basis = reverser_linear_space(x)
    found = 0
    for _ in range(40):
        c1 = [rng.choice([gr(1), gr(-1), I, gr(2), ZERO]) for _ in basis]
        c2 = [rng.choice([gr(1), gr(-1), I, gr(2), ZERO]) for _ in basis]
        r1 = ExactMatrix.zeros(2)
        r2 = ExactMatrix.zeros(2)
        for c, b in zip(c1, basis):
            r1 = r1 + b.scale(c)
        for c, b in zip(c2, basis):
            r2 = r2 + b.scale(c)
        if det(r1).is_zero() or det(r2).is_zero():
            continue
        z = inverse(r1) * r2
        assert z * x == x * z
        found += 1
    assert found > 10


def _random_group_element(rng, ctx):
    n = ctx.matrix_size
    if ctx.group in ("O", "SO"):
        # signed permutation matrices are orthogonal
        perm = list(range(n))
        rng.shuffle(perm)
        rows = [[ZERO] * n for _ in range(n)]
        d = ONE
        for i, j in enumerate(perm):
            s = rng.choice([ONE, -ONE])
            rows[i][j] = s
        m = ExactMatrix.from_rows(rows)
        if ctx.group == "SO" and det(m) != 1:
            rows[0] = [-e for e in rows[0]]
            m = ExactMatrix.from_rows(rows)
        return m
    if ctx.group in ("Sp", "PSp"):
        # random products of symplectic shears I + t E with E in sp
        from adjreal.symplectic import sp_basis

        basis = sp_basis(ctx.n)
        m = ExactMatrix.identity(n)
        for _ in range(3):
            e = rng.choice(basis)
            t = rng.choice([ONE, -ONE, I])
            if (e * e).is_zero():
                m = m * (ExactMatrix.identity(n) + e.scale(t))
        return m
    # SL/PSL/GL: elementary shears have determinant one
    m = ExactMatrix.identity(n)
    for _ in range(3):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        t = rng.choice([ONE, -ONE, I, gr(2)])
        e = ExactMatrix.zeros(n).with_entry(i, j, t)
        m = m * (ExactMatrix.identity(n) + e)
    return m


def test_group_membership_closed_under_product(rng):
    contexts = [
        LieContext("sl", "SL", 3),
        LieContext("so", "SO", 3),
        LieContext("so", "O", 4),
        LieContext("sp", "Sp", 2),
    ]
    for ctx in contexts:
        for _ in range(15):
            g = _random_group_element(rng, ctx)
            h = _random_group_element(rng, ctx)
            assert group_member(g, ctx)
            assert group_member(h, ctx)
            assert group_member(g * h, ctx)


def test_context_json_round_trip():
    ctx = LieContext("sp", "PSp", 3)
    assert LieContext.from_json(ctx.to_json()) == ctx


# -- entrywise membership against the product form -----------------------------


def _algebra_member_by_products(x, ctx):
    """The defining equations as dense matrix products."""
    if ctx.algebra == "gl":
        return True
    if ctx.algebra == "sl":
        return x.trace().is_zero()
    if ctx.algebra == "so":
        return (x.transpose() + x).is_zero()
    j = jn_matrix(ctx.n)
    return (x.transpose() * j + j * x).is_zero()


def _group_failure_by_products(g, ctx):
    """``group_failure`` with g^t I g and g^t J g as dense products."""
    if ctx.group in ("GL", "SL", "PSL"):
        d = det(g)
        if d.is_zero():
            return "Invertibility(det g = 0)"
        return None if ctx.group == "GL" or d == 1 else "GroupMembership(det g != 1)"
    if ctx.group in ("O", "SO"):
        form, failure = ExactMatrix.identity(g.rows), "GroupMembership(g^t g != I)"
    else:
        form, failure = jn_matrix(ctx.n), "GroupMembership(g^t J g != J)"
    if g.transpose() * form * g != form:
        return "Invertibility(det g = 0)" if det(g).is_zero() else failure
    if ctx.group == "SO" and det(g) != 1:
        return "GroupMembership(det g != 1)"
    return None


def _random_algebra_member(rng, ctx):
    n = ctx.matrix_size
    pool = [ZERO, ONE, -ONE, gr(2), I, gr("1/2"), gr(1, -1)]
    rows = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
    if ctx.algebra == "sl":
        rows[n - 1][n - 1] = -sum((rows[k][k] for k in range(n - 1)), ZERO)
    elif ctx.algebra == "so":
        for i in range(n):
            rows[i][i] = ZERO
            for j in range(i):
                rows[i][j] = -rows[j][i]
    elif ctx.algebra == "sp":
        m = ctx.n
        for i in range(m):
            for j in range(m):
                rows[m + j][m + i] = -rows[i][j]  # D = -A^t
                if j < i:
                    rows[i][m + j] = rows[j][m + i]  # B = B^t
                    rows[m + i][j] = rows[m + j][i]  # C = C^t
    return ExactMatrix.from_rows(rows)


def _near_misses(x):
    """x with one entry raised by 1 or by i, for every entry."""
    for i in range(x.rows):
        for j in range(x.cols):
            for c in (ONE, I):
                yield x.with_entry(i, j, x[i, j] + c)


def test_algebra_member_matches_product_form(rng):
    contexts = [
        LieContext("gl", "GL", 3),
        LieContext("sl", "SL", 3),
        LieContext("so", "SO", 3),
        LieContext("so", "O", 4),
        LieContext("sp", "Sp", 1),
        LieContext("sp", "Sp", 2),
        LieContext("sp", "PSp", 3),
    ]
    for ctx in contexts:
        for _ in range(3):
            x = _random_algebra_member(rng, ctx)
            assert algebra_member(x, ctx) and _algebra_member_by_products(x, ctx)
            verdicts = []
            for y in _near_misses(x):
                verdicts.append(algebra_member(y, ctx))
                assert verdicts[-1] == _algebra_member_by_products(y, ctx)
            assert ctx.algebra == "gl" or not all(verdicts)


def test_group_failure_matches_product_form(rng):
    from adjreal.liecore import group_failure

    half = gr("1/2")
    # a reflection with entries +-1/2: orthogonal, det -1
    reflection = ExactMatrix.from_rows(
        [[half, half, half, half], [half, half, -half, -half],
         [half, -half, half, -half], [half, -half, -half, half]]
    )
    contexts = [
        LieContext("gl", "GL", 3),
        LieContext("sl", "SL", 3),
        LieContext("sl", "PSL", 2),
        LieContext("so", "SO", 3),
        LieContext("so", "O", 4),
        LieContext("so", "SO", 4),
        LieContext("sp", "Sp", 1),
        LieContext("sp", "Sp", 2),
        LieContext("sp", "PSp", 2),
    ]
    seen = set()
    for ctx in contexts:
        members = [_random_group_element(rng, ctx) for _ in range(3)]
        members.append(ExactMatrix.zeros(ctx.matrix_size))
        if ctx.group in ("Sp", "PSp"):
            members.append(jn_matrix(ctx.n))
        if ctx.matrix_size == 4 and ctx.algebra == "so":
            members.append(reflection)
        for g in members:
            for h in (g, *_near_misses(g)):
                failure = group_failure(h, ctx)
                assert failure == _group_failure_by_products(h, ctx)
                seen.add(failure)
    # every failure kind was met
    assert seen == {
        None, "Invertibility(det g = 0)", "GroupMembership(det g != 1)",
        "GroupMembership(g^t g != I)", "GroupMembership(g^t J g != J)",
    }


@st.composite
def _symplectic_candidates(draw):
    """A product of symplectic shears I + t E (E a square-zero element of
    the sp basis), a dense matrix, or either with one entry moved."""
    from adjreal.symplectic import sp_basis

    n = draw(st.integers(1, 3))
    size = 2 * n
    if draw(st.booleans()):
        g = ExactMatrix.identity(size)
        basis = [e for e in sp_basis(n) if (e * e).is_zero()]
        for _ in range(draw(st.integers(0, 4))):
            e = draw(st.sampled_from(basis))
            g = g * (ExactMatrix.identity(size) + e.scale(draw(st.sampled_from(SMALL_SCALARS))))
    else:
        g = ExactMatrix(size, size, draw(st.lists(
            st.sampled_from(SMALL_SCALARS), min_size=size * size, max_size=size * size)))
    if draw(st.booleans()):
        i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        g = g.with_entry(i, j, g[i, j] + draw(st.sampled_from(SMALL_SCALARS[1:])))
    return n, g


@settings(max_examples=150, deadline=None)
@given(_symplectic_candidates(), st.sampled_from(["Sp", "PSp"]))
def test_symplectic_group_failure_matches_dense_form(case, group):
    """group_failure's K = L^t U test against the dense g^t J g = J."""
    from adjreal.liecore import group_failure

    n, g = case
    ctx = LieContext("sp", group, n)
    assert group_failure(g, ctx) == _group_failure_by_products(g, ctx)
