"""Classical algebra/group descriptors, membership tests, and canonical
semisimple forms.

Conventions fixed once for the whole package:

* the symplectic structure matrix is ``J_n = [[0, -I_n], [I_n, 0]]``;
* ``sp(n)`` / ``Sp(n)`` act on 2n-dimensional space, everything else on n;
* elements of the projective groups PSL/PSp are handled through matrix
  representatives lying in SL/Sp, and "involution" for them means the
  square is a scalar matrix (necessarily central).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AlgebraMismatch, ParseError, SizeMismatch
from .gaussian import ONE, ZERO, GaussRat
from .matrix import ExactMatrix, det, json_int, kernel

ALGEBRAS = ("gl", "sl", "so", "sp")
GROUPS = ("GL", "SL", "O", "SO", "Sp", "PSL", "PSp")

_COMPATIBLE = {
    "gl": ("GL",),
    "sl": ("SL", "PSL"),
    "so": ("O", "SO"),
    "sp": ("Sp", "PSp"),
}

PROJECTIVE_GROUPS = ("PSL", "PSp")


@dataclass(frozen=True)
class LieContext:
    """Ambient algebra, acting group, and rank parameter."""

    algebra: str
    group: str
    n: int

    def __post_init__(self):
        if self.algebra not in ALGEBRAS:
            raise ParseError(f"unknown algebra {self.algebra!r}")
        if self.group not in GROUPS:
            raise ParseError(f"unknown group {self.group!r}")
        if self.group not in _COMPATIBLE[self.algebra]:
            raise ParseError(
                f"group {self.group} does not act on algebra {self.algebra}"
            )
        if self.n < 1:
            raise ParseError("rank parameter must be >= 1")

    @property
    def matrix_size(self) -> int:
        return 2 * self.n if self.algebra == "sp" else self.n

    @property
    def is_projective(self) -> bool:
        return self.group in PROJECTIVE_GROUPS

    def to_json(self):
        return {"algebra": self.algebra, "group": self.group, "n": self.n}

    @staticmethod
    def from_json(data) -> "LieContext":
        try:
            n = json_int(data["n"], "context n")
            return LieContext(str(data["algebra"]), str(data["group"]), n)
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad context JSON: {exc}") from exc


def jn_matrix(n: int) -> ExactMatrix:
    """The symplectic structure matrix [[0, -I], [I, 0]] of size 2n: the
    monomial map e_k -> e_{n+k}, e_{n+k} -> -e_k."""
    return ExactMatrix.monomial([(n + k, 1) for k in range(n)] + [(k, -1) for k in range(n)])


def _check_size(x: ExactMatrix, ctx: LieContext):
    if not x.is_square() or x.rows != ctx.matrix_size:
        raise SizeMismatch(
            f"expected a {ctx.matrix_size}x{ctx.matrix_size} matrix for {ctx}"
        )


def algebra_member(x: ExactMatrix, ctx: LieContext) -> bool:
    """Defining equations: trace 0 for sl, X^t + X = 0 for so,
    X^t J + J X = 0 for sp; gl is unconstrained.

    Both transpose equations are read entry by entry.  With X = [[A, B],
    [C, D]] in n x n blocks, X^t J + J X = [[C^t - C, -A^t - D],
    [A + D^t, B - B^t]], so X is in sp(n) when D = -A^t, B = B^t and
    C = C^t."""
    _check_size(x, ctx)
    if ctx.algebra == "gl":
        return True
    if ctx.algebra == "sl":
        return x.trace().is_zero()
    e, size = x.entries, x.rows
    if ctx.algebra == "so":
        return all(
            e[i * size + j] == -e[j * size + i] for i in range(size) for j in range(i, size)
        )
    n = ctx.n
    for i in range(n):
        for j in range(n):
            if e[(n + j) * size + n + i] != -e[i * size + j]:  # D = -A^t
                return False
            if j > i and (
                e[i * size + n + j] != e[j * size + n + i]  # B = B^t
                or e[(n + i) * size + j] != e[(n + j) * size + i]  # C = C^t
            ):
                return False
    return True


def group_failure(g: ExactMatrix, ctx: LieContext) -> str | None:
    """The first group equation g violates, named, or None: det g != 0,
    then det g = 1 for SL/PSL/SO, g^t g = I for O/SO, g^t J g = J for
    Sp/PSp (PSL/PSp test the matrix representative in SL/Sp).

    g^t g = I and g^t J g = J each imply det g = +-1, so for O/SO and
    Sp/PSp the determinant is computed only to name a failure or, for SO,
    to test det g = 1."""
    size = ctx.matrix_size
    if not g.is_square() or g.rows != size:
        return f"GroupMembership(size != {size})"
    if ctx.group in ("GL", "SL", "PSL"):
        d = det(g)
        if d.is_zero():
            return "Invertibility(det g = 0)"
        return None if ctx.group == "GL" or d == 1 else "GroupMembership(det g != 1)"
    if ctx.group in ("O", "SO"):
        failure = "GroupMembership(g^t g != I)"
        holds = g.transpose() * g == ExactMatrix.identity(size)
    else:
        failure = "GroupMembership(g^t J g != J)"
        holds = _preserves_j(g, ctx.n)
    if not holds:
        return "Invertibility(det g = 0)" if det(g).is_zero() else failure
    if ctx.group == "SO" and det(g) != 1:
        return "GroupMembership(det g != 1)"
    return None


def _preserves_j(g: ExactMatrix, n: int) -> bool:
    """g^t J g = J for a g of size 2n.  With U and L the upper and lower
    halves of g's rows, J g stacks -L over U, so g^t J g = K - K^t for
    K = L^t U, a product of inner size n.  K - K^t is antisymmetric, so it
    equals J once it does above the diagonal, where J is -1 at (k, n + k)
    and 0 elsewhere."""
    size, rows = 2 * n, g.entries
    k = ExactMatrix(n, size, rows[n * size:]).transpose() * ExactMatrix(
        n, size, rows[: n * size]
    )
    return all(
        k[j, i] == (k[i, j] + ONE if j == i + n else k[i, j])
        for i in range(size)
        for j in range(i + 1, size)
    )


def group_member(g: ExactMatrix, ctx: LieContext) -> bool:
    """Group equations of ``group_failure``; SizeMismatch for a g of the
    wrong size."""
    _check_size(g, ctx)
    return group_failure(g, ctx) is None


@dataclass(frozen=True)
class CanonicalSemisimple:
    """Canonical diagonal/block data for a semisimple element.

    * gl/sl: ``values`` is the full eigenvalue list (h_1, ..., h_n);
    * so:    ``values`` lists the rotation parameters (x_1, ..., x_m) of the
             2x2 blocks [[0, x], [-x, 0]] and ``zero_block`` is the size r of
             the trailing zero block (matrix size 2m + r);
    * sp:    ``values`` is (h_1, ..., h_n) for diag(h, -h).
    """

    algebra: str
    values: tuple
    zero_block: int = 0

    def __post_init__(self):
        if self.algebra not in ALGEBRAS:
            raise ParseError(f"unknown algebra {self.algebra!r}")
        if self.algebra != "so" and self.zero_block:
            raise ParseError("zero_block is only meaningful for so")
        if self.zero_block < 0:
            raise ParseError("zero_block must be >= 0")
        object.__setattr__(
            self,
            "values",
            tuple(
                v if isinstance(v, GaussRat) else GaussRat.from_int(v)
                for v in self.values
            ),
        )

    @property
    def matrix_size(self) -> int:
        if self.algebra == "so":
            return 2 * len(self.values) + self.zero_block
        if self.algebra == "sp":
            return 2 * len(self.values)
        return len(self.values)


def so_block(x: GaussRat) -> ExactMatrix:
    """The 2x2 rotation generator [[0, x], [-x, 0]]."""
    return ExactMatrix.from_rows([[ZERO, x], [-x, ZERO]])


def build_canonical(c: CanonicalSemisimple) -> ExactMatrix:
    """Materialize the canonical matrix; always algebra_member."""
    if c.algebra in ("gl", "sl"):
        m = ExactMatrix.diagonal(c.values)
        if c.algebra == "sl" and not m.trace().is_zero():
            raise AlgebraMismatch("sl eigenvalues must sum to zero")
        return m
    if c.algebra == "so":
        blocks = [so_block(x) for x in c.values]
        if c.zero_block:
            blocks.append(ExactMatrix.zeros(c.zero_block))
        if not blocks:
            raise ParseError("empty canonical so data")
        return ExactMatrix.block_diagonal(blocks)
    return ExactMatrix.diagonal(list(c.values) + [-v for v in c.values])


# ---------------------------------------------------------------------------
# commutant / anticommutant machinery
# ---------------------------------------------------------------------------


def _vec_index(i: int, j: int, n: int) -> int:
    return i * n + j


def _commutator_rows(x: ExactMatrix, sign: GaussRat):
    """Rows of the linear map A -> A X + sign * X A on vec(A)."""
    n = x.rows
    rows = []
    for i in range(n):
        for j in range(n):
            row = [ZERO] * (n * n)
            for k in range(n):
                # (A X)[i, j] collects A[i, k] X[k, j]
                row[_vec_index(i, k, n)] = row[_vec_index(i, k, n)] + x[k, j]
                # (X A)[i, j] collects X[i, k] A[k, j]
                row[_vec_index(k, j, n)] = row[_vec_index(k, j, n)] + sign * x[i, k]
            rows.append(row)
    return rows


def _algebra_constraint_rows(ctx: LieContext):
    """Linear equations cutting out the algebra inside gl(n)."""
    n = ctx.matrix_size
    rows = []
    if ctx.algebra == "sl":
        row = [ZERO] * (n * n)
        for i in range(n):
            row[_vec_index(i, i, n)] = ONE
        rows.append(row)
    elif ctx.algebra == "so":
        for i in range(n):
            for j in range(i, n):
                row = [ZERO] * (n * n)
                row[_vec_index(i, j, n)] = row[_vec_index(i, j, n)] + ONE
                row[_vec_index(j, i, n)] = row[_vec_index(j, i, n)] + ONE
                rows.append(row)
    elif ctx.algebra == "sp":
        j_m = jn_matrix(ctx.n)
        # (A^t J + J A)[i, j] = sum_k A[k, i] J[k, j] + J[i, k] A[k, j]
        for i in range(n):
            for j in range(i, n):
                row = [ZERO] * (n * n)
                for k in range(n):
                    row[_vec_index(k, i, n)] = row[_vec_index(k, i, n)] + j_m[k, j]
                    row[_vec_index(k, j, n)] = row[_vec_index(k, j, n)] + j_m[i, k]
                rows.append(row)
    return rows


def _matrices_from_kernel(basis, n: int):
    return [ExactMatrix(n, n, vec) for vec in basis]


def centralizer_algebra(x: ExactMatrix, ctx: LieContext):
    """Basis of {A in the algebra : A X - X A = 0}, deterministic."""
    if not algebra_member(x, ctx):
        raise AlgebraMismatch(f"element is not in {ctx.algebra}({ctx.n})")
    n = x.rows
    rows = _commutator_rows(x, GaussRat.from_int(-1))
    rows.extend(_algebra_constraint_rows(ctx))
    a = ExactMatrix.from_rows(rows) if rows else ExactMatrix.zeros(0, n * n)
    return _matrices_from_kernel(kernel(a), n)


def reverser_linear_space(x: ExactMatrix):
    """Basis of the full anticommutant {R : R X + X R = 0} in gl(n)."""
    if not x.is_square():
        raise SizeMismatch("anticommutant of a non-square matrix")
    rows = _commutator_rows(x, ONE)
    return _matrices_from_kernel(kernel(ExactMatrix.from_rows(rows)), x.rows)

