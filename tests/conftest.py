import random

import pytest
from hypothesis import strategies as st

from adjreal.gaussian import ONE, ZERO, GaussRat
from adjreal.liecore import LieContext
from adjreal.matrix import ExactMatrix
from adjreal.polynomial import ExactPoly


@pytest.fixture
def rng():
    return random.Random(0)


def ctx(algebra: str, group: str, n: int) -> LieContext:
    return LieContext(algebra, group, n)


SMALL_SCALARS = [
    GaussRat.from_int(0),
    GaussRat.from_int(1),
    GaussRat.from_int(-1),
    GaussRat.from_int(2),
    GaussRat.parse("i"),
    GaussRat.parse("-i"),
    GaussRat.parse("1/2"),
    GaussRat.parse("1-1*i"),
]


def random_scalar(rng, pool=SMALL_SCALARS):
    return rng.choice(pool)


def from_roots(roots) -> ExactPoly:
    """Monic product of (x - r) over the given roots."""
    p = ExactPoly.one()
    for r in roots:
        p = p * ExactPoly((-r, ONE))
    return p


def with_entry(m: ExactMatrix, i: int, j: int, value: GaussRat) -> ExactMatrix:
    """m with entry (i, j) replaced by value."""
    flat = list(m.entries)
    flat[i * m.cols + j] = value
    return ExactMatrix(m.rows, m.cols, flat)


def sp_basis(n: int):
    """Deterministic basis of sp(n): blocks [[A, B], [C, -A^t]] with B, C
    symmetric."""
    size = 2 * n
    units = [((p, q), (n + q, n + p), -ONE) for p in range(n) for q in range(n)]
    units += [((p, n + q), (q, n + p), ONE) for p in range(n) for q in range(p, n)]
    units += [((n + p, q), (n + q, p), ONE) for p in range(n) for q in range(p, n)]
    out = []
    for (i, j), (k, l), c in units:
        flat = [ZERO] * (size * size)
        flat[k * size + l] = c
        flat[i * size + j] = ONE
        out.append(ExactMatrix(size, size, flat))
    return out


@st.composite
def conjugated_jordan_matrices(draw, min_size=0, max_size=8):
    """Derogatory test matrices: Jordan blocks whose eigenvalues (real,
    imaginary or mixed) come from a pool of one to three, so blocks share
    them, or a scalar matrix (the zero matrix included), conjugated by
    elementary transvections I + c E_ij, whose inverse is I - c E_ij."""
    n = draw(st.integers(min_size, max_size))
    pool = draw(st.lists(st.sampled_from(SMALL_SCALARS), min_size=1, max_size=3))
    rows = [[ZERO] * n for _ in range(n)]
    if draw(st.booleans()):  # a scalar matrix
        for k in range(n):
            rows[k][k] = pool[0]
    else:
        start = 0
        while start < n:
            size = draw(st.integers(1, n - start))
            lam = draw(st.sampled_from(pool))
            for k in range(start, start + size):
                rows[k][k] = lam
                if k + 1 < start + size:
                    rows[k][k + 1] = ONE
            start += size
    x = ExactMatrix.from_rows(rows)
    for _ in range(draw(st.integers(0, 4)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.sampled_from(SMALL_SCALARS[1:]))
        t = with_entry(ExactMatrix.identity(n), i, j, c)
        x = t * x * with_entry(ExactMatrix.identity(n), i, j, -c)
    return x
