"""Exact linear algebra over Q(i) and over Q(i)[x].

Everything here is deterministic.  Solutions, kernel bases, ranks and
inverses are read off the reduced row echelon form, which is unique.
One engine computes it, for dense matrices and for the mostly-zero
systems of ``solve_sparse`` alike, and builds the Krylov echelons of
``oracle`` a row at a time: sparse fraction-free Gauss-Jordan
elimination over the Gaussian integers.  Each row is cleared of its
denominators once (for ``inverse``, each column), every pivot equals
one common denominator, each update divides exactly in Z[i] by the
previous one, and each entry that is read is divided back once, so the
values are the same unique ones.  Products, matrix-vector products and
determinants also run over Gaussian integers: rows (and, for a
product's right factor, columns) are cleared of their denominators, the
sums are taken in Python ints, and the result is divided back once per
entry.  The Smith-form reduction picks the minimal-degree nonzero entry
with ties broken in row-major order, so repeated runs produce identical
invariant factors.

JSON wire format for matrices:
    {"rows": n, "cols": m, "entries": [["a/b+c/d*i", ...], ...]}
"""

from __future__ import annotations

from .errors import (
    InconsistentSystem,
    ParseError,
    SelfCheckFailed,
    SingularMatrix,
    SizeMismatch,
    SpectrumNotSplit,
)
from .gaussian import ONE, ZERO, GaussRat, _cleared, rational
from .polynomial import ExactPoly, linear_roots, squarefree_part


def json_int(value, what: str) -> int:
    """value if it is a JSON integer (a boolean is not one), else ParseError."""
    if type(value) is not int:
        raise ParseError(f"{what} must be a JSON integer, got {value!r}")
    return value


class ExactMatrix:
    """Immutable dense matrix of GaussRat entries, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        es = tuple(
            e if isinstance(e, GaussRat) else GaussRat.from_int(e) for e in entries
        )
        if len(es) != rows * cols:
            raise SizeMismatch(
                f"expected {rows * cols} entries, got {len(es)}"
            )
        self.rows = rows
        self.cols = cols
        self.entries = es

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(rows) -> "ExactMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise SizeMismatch("ragged rows")
            flat.extend(row)
        return ExactMatrix(r, c, flat)

    @staticmethod
    def zeros(rows: int, cols: int | None = None) -> "ExactMatrix":
        cols = rows if cols is None else cols
        return ExactMatrix(rows, cols, [ZERO] * (rows * cols))

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix.diagonal([ONE] * n)

    @staticmethod
    def diagonal(values) -> "ExactMatrix":
        vals = [v if isinstance(v, GaussRat) else GaussRat.from_int(v) for v in values]
        n = len(vals)
        flat = [ZERO] * (n * n)
        for k, v in enumerate(vals):
            flat[k * n + k] = v
        return ExactMatrix(n, n, flat)

    @staticmethod
    def from_columns(columns) -> "ExactMatrix":
        c = len(columns)
        r = len(columns[0]) if c else 0
        flat = [ZERO] * (r * c)
        for j, col in enumerate(columns):
            if len(col) != r:
                raise SizeMismatch("ragged columns")
            for i, v in enumerate(col):
                flat[i * c + j] = v
        return ExactMatrix(r, c, flat)

    @staticmethod
    def block_diagonal(blocks) -> "ExactMatrix":
        n = sum(b.rows for b in blocks)
        m = sum(b.cols for b in blocks)
        out = [[ZERO] * m for _ in range(n)]
        i0 = j0 = 0
        for b in blocks:
            for i in range(b.rows):
                for j in range(b.cols):
                    out[i0 + i][j0 + j] = b[i, j]
            i0 += b.rows
            j0 += b.cols
        return ExactMatrix.from_rows(out)

    # -- access ------------------------------------------------------------

    def __getitem__(self, ij) -> GaussRat:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row_list(self, i: int):
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def column(self, j: int):
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    def to_lists(self):
        return [self.row_list(i) for i in range(self.rows)]

    def with_entry(self, i: int, j: int, value: GaussRat) -> "ExactMatrix":
        flat = list(self.entries)
        flat[i * self.cols + j] = value
        return ExactMatrix(self.rows, self.cols, flat)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    # -- arithmetic --------------------------------------------------------

    def _check_same_shape(self, other: "ExactMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise SizeMismatch("shape mismatch")

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        return ExactMatrix(
            self.rows, self.cols,
            [a + b for a, b in zip(self.entries, other.entries)],
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        return ExactMatrix(
            self.rows, self.cols,
            [a - b for a, b in zip(self.entries, other.entries)],
        )

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols, [-a for a in self.entries])

    def plus_scalar(self, c: GaussRat) -> "ExactMatrix":
        """X + c*I for square X; touches only the diagonal."""
        if not self.is_square():
            raise SizeMismatch("scalar shift of a non-square matrix")
        flat = list(self.entries)
        if not c.is_zero():
            for k in range(0, len(flat), self.cols + 1):
                flat[k] = flat[k] + c
        return ExactMatrix(self.rows, self.cols, flat)

    def scale(self, c: GaussRat) -> "ExactMatrix":
        if isinstance(c, int):
            c = GaussRat.from_int(c)
        return ExactMatrix(self.rows, self.cols, [a * c for a in self.entries])

    def __mul__(self, other):
        if isinstance(other, (GaussRat, int)):
            return self.scale(other)
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise SizeMismatch("inner dimensions differ")
        n, k, m = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        # row i of A is a_i / d_i and column j of B is b_j / e_j over Z[i],
        # so entry (i, j) of the product is (a_i . b_j) / (d_i e_j)
        right = [[] for _ in range(k)]  # row t of B: (j, re, im)
        col_den = []
        for j in range(m):
            e, col = _cleared(b[j::m])
            col_den.append(e)
            for t, br, bi in col:
                right[t].append((j, br, bi))
        flat = [ZERO] * (n * m)
        for i in range(n):
            d, row = _cleared(a[i * k : (i + 1) * k])
            acc_re, acc_im = [0] * m, [0] * m
            for t, ar, ai in row:
                for j, br, bi in right[t]:
                    acc_re[j] += ar * br - ai * bi
                    acc_im[j] += ar * bi + ai * br
            base = i * m
            for j in range(m):
                re, im = acc_re[j], acc_im[j]
                if re or im:
                    den = d * col_den[j]
                    flat[base + j] = GaussRat(rational(re, den), rational(im, den))
        return ExactMatrix(n, m, flat)

    __rmul__ = scale

    def mul_vector(self, vec):
        if len(vec) != self.cols:
            raise SizeMismatch("vector length mismatch")
        return list((self * ExactMatrix(len(vec), 1, vec)).entries)

    def transpose(self) -> "ExactMatrix":
        flat = [ZERO] * (self.rows * self.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                flat[j * self.rows + i] = self[i, j]
        return ExactMatrix(self.cols, self.rows, flat)

    def trace(self) -> GaussRat:
        if not self.is_square():
            raise SizeMismatch("trace of a non-square matrix")
        t = ZERO
        for i in range(self.rows):
            t = t + self[i, i]
        return t

    def power(self, k: int) -> "ExactMatrix":
        if not self.is_square():
            raise SizeMismatch("power of a non-square matrix")
        out = ExactMatrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[str(e) for e in self.row_list(i)] for i in range(self.rows)],
        }

    @staticmethod
    def from_json(data) -> "ExactMatrix":
        try:
            rows = json_int(data["rows"], "matrix rows")
            cols = json_int(data["cols"], "matrix cols")
            grid = data["entries"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad matrix JSON: {exc}") from exc
        if not isinstance(grid, list) or len(grid) != rows:
            raise ParseError("matrix JSON row count mismatch")
        flat = []
        for row in grid:
            if not isinstance(row, list) or len(row) != cols:
                raise ParseError("matrix JSON column count mismatch")
            for s in row:
                if not isinstance(s, str):
                    raise ParseError(
                        f"matrix JSON entries must be strings, got {s!r}"
                    )
                flat.append(GaussRat.parse(s))
        return ExactMatrix(rows, cols, flat)

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(str(e) for e in self.row_list(i)) for i in range(self.rows)
        )
        return f"ExactMatrix({self.rows}x{self.cols}: [{body}])"


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------


def _cleared_dict(values) -> dict:
    """The nonzero values of a sequence times the lcm of their
    denominators, as a {position: (re, im)} row of Gaussian integers."""
    return {k: (re, im) for k, re, im in _cleared(values)[1]}


def _gauss_quotient(x, y) -> GaussRat:
    """x / y for Gaussian integers x and y != 0, given as (re, im) pairs:
    x * conj(y) / N(y)."""
    (xr, xi), (yr, yi) = x, y
    if not yi:
        return GaussRat(rational(xr, yr), rational(xi, yr))
    norm = yr * yr + yi * yi
    return GaussRat(
        rational(xr * yr + xi * yi, norm), rational(xi * yr - xr * yi, norm)
    )


def _exact_divider(d):
    """z -> z / d for Gaussian integers z that d divides, as a function of
    (re, im); SelfCheckFailed when the quotient is not a Gaussian integer."""
    dr, di = d
    if (dr, di) == (1, 0):
        return lambda zr, zi: (zr, zi)
    if not di:
        def divide_real(zr, zi):
            qr, rr = divmod(zr, dr)
            qi, ri = divmod(zi, dr)
            if rr or ri:
                _inexact()
            return qr, qi
        return divide_real
    norm = dr * dr + di * di

    def divide_complex(zr, zi):
        # z * conj(d) / N(d)
        qr, rr = divmod(zr * dr + zi * di, norm)
        qi, ri = divmod(zi * dr - zr * di, norm)
        if rr or ri:
            _inexact()
        return qr, qi
    return divide_complex


def _inexact():
    raise SelfCheckFailed("inexact Gaussian-integer division in elimination")


class _Echelon:
    """Reduced row echelon form over Z[i], built a row at a time by
    fraction-free Gauss-Jordan elimination (FFGJ, as in sympy's
    ``sdm_rref_den``).

    ``pivots`` maps each pivot column to its row, a {column: (re, im)} map
    of the nonzero Gaussian-integer entries outside the pivot columns.
    Every pivot entry equals the common denominator ``den`` and is not
    stored, so the reduced row echelon form over Q(i) is each row divided
    by ``den`` (``value``).  The entries are minors of the rows added, so
    each update divides exactly, in Z[i], by the previous denominator.
    """

    __slots__ = ("pivots", "den")

    def __init__(self):
        self.pivots: dict = {}
        self.den = (1, 0)

    def value(self, z) -> GaussRat:
        """The Q(i) entry of the reduced form for a stored entry z."""
        return _gauss_quotient(z, self.den)

    def reduce(self, row: dict) -> dict:
        """den * row minus its multiples of the pivot rows, as a new
        {column: (re, im)} row with no entry in a pivot column: over Q(i),
        den times row reduced against the pivots."""
        pivots = self.pivots
        dr, di = self.den
        scaled = dr != 1 or di
        out, cancel = {}, {}
        for c, (fr, fi) in row.items():
            prow = pivots.get(c)
            if prow is None:
                out[c] = (fr * dr - fi * di, fr * di + fi * dr) if scaled else (fr, fi)
                continue
            for k, (pr, pi) in prow.items():
                xr, xi = fr * pr - fi * pi, fr * pi + fi * pr
                if k in cancel:
                    yr, yi = cancel[k]
                    cancel[k] = (yr + xr, yi + xi)
                else:
                    cancel[k] = (xr, xi)
        for k, (xr, xi) in cancel.items():
            if k in out:
                yr, yi = out[k]
                xr, xi = yr - xr, yi - xi
                if xr or xi:
                    out[k] = (xr, xi)
                else:
                    del out[k]
            elif xr or xi:
                out[k] = (-xr, -xi)
        return out

    def add(self, row: dict):
        """Make a nonzero row returned by ``reduce`` a pivot row: its first
        column becomes the pivot and is cleared from the other pivot rows,
        and its entry there becomes the common denominator."""
        p = min(row)
        ar, ai = a = row.pop(p)
        divide = _exact_divider(self.den)
        same_den = a == self.den
        for c, prow in self.pivots.items():
            if not prow:
                continue
            f = prow.pop(p, None)
            if f is None:
                if not same_den:
                    # rescale to the new denominator: a * entry / den
                    for k, (xr, xi) in prow.items():
                        prow[k] = divide(ar * xr - ai * xi, ar * xi + ai * xr)
                continue
            fr, fi = f
            # (a * prow[k] - f * row[k]) / den
            new = {}
            for k, (xr, xi) in prow.items():
                zr, zi = ar * xr - ai * xi, ar * xi + ai * xr
                if k in row:
                    yr, yi = row[k]
                    zr, zi = zr - (fr * yr - fi * yi), zi - (fr * yi + fi * yr)
                    if not (zr or zi):
                        continue
                new[k] = divide(zr, zi)
            for k, (yr, yi) in row.items():
                if k not in prow:
                    new[k] = divide(fi * yi - fr * yr, -(fr * yi + fi * yr))
            self.pivots[c] = new
        self.den = a
        self.pivots[p] = row


def _rref(rows) -> _Echelon:
    """Reduced row echelon form of rows given as {column: (re, im)} maps
    of their nonzero Gaussian-integer entries.

    Each row is reduced against the pivots found so far; its first
    nonzero column becomes a new pivot and is cleared from the earlier
    pivot rows.  The reduced row echelon form is unique, so the result
    does not depend on the order in which rows are taken, nor on the
    scale of each row: short rows go first, which keeps fill-in low.
    """
    echelon = _Echelon()
    for row in sorted(rows, key=len):
        row = echelon.reduce(row)
        if row:
            echelon.add(row)
    return echelon


def _sparse_rows(a: ExactMatrix):
    """The rows of a, each cleared to Gaussian integers."""
    m, es = a.cols, a.entries
    return [_cleared_dict(es[i * m : (i + 1) * m]) for i in range(a.rows)]


def _kernel_from_rref(echelon: _Echelon, ncols: int):
    """Null space basis of the first ncols columns, one vector per free
    column in increasing order."""
    pivots = echelon.pivots
    basis = {f: [ZERO] * ncols for f in range(ncols) if f not in pivots}
    for f, vec in basis.items():
        vec[f] = ONE
    for p, row in pivots.items():
        for k, (xr, xi) in row.items():
            if k in basis:
                basis[k][p] = echelon.value((-xr, -xi))
    return list(basis.values())


def _particular(echelon: _Echelon, n: int):
    """Solution with free variables set to zero of a reduced system whose
    right-hand side is column n; InconsistentSystem if that is a pivot."""
    if n in echelon.pivots:
        raise InconsistentSystem("no solution")
    solution = [ZERO] * n
    for p, row in echelon.pivots.items():
        if n in row:
            solution[p] = echelon.value(row[n])
    return solution


def solve_linear(a: ExactMatrix, b):
    """Solve a x = b exactly.

    Returns (particular, kernel_basis) where particular is a column vector
    (free variables set to zero) and kernel_basis spans the solution space
    of a x = 0.  Raises InconsistentSystem when no solution exists.
    """
    if len(b) != a.rows:
        raise SizeMismatch("right-hand side length mismatch")
    n = a.cols
    echelon = _rref([_cleared_dict(a.row_list(i) + [v]) for i, v in enumerate(b)])
    return _particular(echelon, n), _kernel_from_rref(echelon, n)


def solve_sparse(rows, n: int):
    """Solve the system whose rows are {column: (re, im)} maps of their
    nonzero Gaussian-integer entries, columns 0..n-1 holding the unknowns
    and column n the right-hand side.

    Returns the particular solution ``solve_linear`` gives on the same
    system (free variables set to zero), as a list.  Raises
    InconsistentSystem when no solution exists.
    """
    return _particular(_rref(rows), n)


def kernel(a: ExactMatrix):
    """Basis of the null space of a, deterministic."""
    return _kernel_from_rref(_rref(_sparse_rows(a)), a.cols)


def rank(a: ExactMatrix) -> int:
    return len(_rref(_sparse_rows(a)).pivots)


def det(a: ExactMatrix) -> GaussRat:
    """Determinant by Bareiss fraction-free elimination with first-nonzero
    pivoting, on the rows cleared to Gaussian integers.

    Row i is a_i / d_i with a_i over Z[i], so det A = det(a) / prod d_i.
    Each Bareiss step divides exactly, in Z[i], by the previous pivot
    (``_exact_divider``: an inexact division is SelfCheckFailed).
    """
    if not a.is_square():
        raise SizeMismatch("determinant of a non-square matrix")
    n = a.rows
    re, im = [], []
    den = 1
    for i in range(n):
        d, row = _cleared(a.entries[i * n : (i + 1) * n])
        den *= d
        row_re, row_im = [0] * n, [0] * n
        for j, r, m in row:
            row_re[j], row_im[j] = r, m
        re.append(row_re)
        im.append(row_im)
    sign, pivot = 1, (1, 0)  # the previous pivot
    for c in range(n):
        p = next((i for i in range(c, n) if re[i][c] or im[i][c]), None)
        if p is None:
            return ZERO
        if p != c:
            re[c], re[p], im[c], im[p] = re[p], re[c], im[p], im[c]
            sign = -sign
        cr, ci = re[c][c], im[c][c]
        divide = _exact_divider(pivot)
        top_re, top_im = re[c], im[c]
        for i in range(c + 1, n):
            row_re, row_im = re[i], im[i]
            fr, fi = row_re[c], row_im[c]
            for j in range(c + 1, n):
                # (m_ij * m_cc - m_ic * m_cj) / previous pivot, exact in Z[i]
                xr = (row_re[j] * cr - row_im[j] * ci
                      - fr * top_re[j] + fi * top_im[j])
                xi = (row_re[j] * ci + row_im[j] * cr
                      - fr * top_im[j] - fi * top_re[j])
                row_re[j], row_im[j] = divide(xr, xi)
        pivot = (cr, ci)
    pr, pi = pivot
    return GaussRat(rational(sign * pr, den), rational(sign * pi, den))


def inverse(a: ExactMatrix) -> ExactMatrix:
    """A^-1 from the RREF of [A C | I], where C = diag(c_j) clears each
    column j of A to Gaussian integers: A^-1 = C (A C)^-1.  Callers invert
    matrices whose columns are vectors with one denominator each, which
    this clearing keeps small."""
    if not a.is_square():
        raise SizeMismatch("inverse of a non-square matrix")
    n = a.rows
    rows = [{n + i: (1, 0)} for i in range(n)]
    col_den = []
    for j in range(n):
        c, column = _cleared(a.entries[j::n])
        col_den.append(c)
        for i, re, im in column:
            rows[i][j] = (re, im)
    echelon = _rref(rows)
    pivots = echelon.pivots
    if any(c not in pivots for c in range(n)):
        raise SingularMatrix("matrix is not invertible")
    dr, di = echelon.den
    flat = []
    for i in range(n):
        row, c = pivots[i], col_den[i]
        for j in range(n):
            if n + j in row:
                xr, xi = row[n + j]
                flat.append(_gauss_quotient((c * xr, c * xi), (dr, di)))
            else:
                flat.append(ZERO)
    return ExactMatrix(n, n, flat)


def is_invertible(a: ExactMatrix) -> bool:
    return a.is_square() and not det(a).is_zero()


# ---------------------------------------------------------------------------
# characteristic / minimal polynomial and similarity
# ---------------------------------------------------------------------------


def hessenberg(x: ExactMatrix) -> ExactMatrix:
    """Upper Hessenberg H similar to X, by elementary similarities.

    Column by column, the first nonzero entry at or below the subdiagonal
    is swapped onto the subdiagonal (rows and columns together) and
    clears the entries under it.  An X that is already upper Hessenberg
    comes back unchanged, without arithmetic.
    """
    if not x.is_square():
        raise SizeMismatch("Hessenberg form of a non-square matrix")
    n = x.rows
    h = x.to_lists()
    for k in range(n - 2):
        p = next((i for i in range(k + 1, n) if not h[i][k].is_zero()), None)
        if p is None:
            continue
        if p != k + 1:
            h[p], h[k + 1] = h[k + 1], h[p]
            for row in h:
                row[p], row[k + 1] = row[k + 1], row[p]
        pivot_row = h[k + 1]
        inv = None
        for i in range(k + 2, n):
            row = h[i]
            if row[k].is_zero():
                continue
            if inv is None:
                inv = pivot_row[k].inverse()
            u = row[k] * inv
            # row i -= u * row k+1, then column k+1 += u * column i
            row[k] = ZERO
            for j in range(k + 1, n):
                if not pivot_row[j].is_zero():
                    row[j] = row[j] - u * pivot_row[j]
            for other in h:
                if not other[i].is_zero():
                    other[k + 1] = other[k + 1] + u * other[i]
    return ExactMatrix.from_rows(h)


def char_poly(x: ExactMatrix) -> ExactPoly:
    """Characteristic polynomial det(tI - X), exact, in O(n^3).

    With H the Hessenberg form of X and p_k the characteristic polynomial
    of its leading k x k block, p_0 = 1 and
    p_{k+1} = (t - h_kk) p_k - sum_{i<k} h_ik (h_{i+1,i} ... h_{k,k-1}) p_i.
    """
    h = hessenberg(x)
    n = h.rows
    polys = [[ONE]]  # coefficients of p_k, lowest degree first
    for k in range(n):
        pk = polys[k]
        hkk = h[k, k]
        nxt = [ZERO] + pk  # t p_k
        if not hkk.is_zero():
            for j, c in enumerate(pk):
                nxt[j] = nxt[j] - hkk * c
        # weights w_i for i = k-1, k-2, ...; they vanish past a zero
        # subdiagonal entry
        weights, sub = [], ONE
        for i in range(k - 1, -1, -1):
            sub = sub * h[i + 1, i]
            if sub.is_zero():
                break
            weights.append(h[i, k] * sub)
        if weights:
            stacked = []
            for i in range(k - 1, k - 1 - len(weights), -1):
                stacked.extend(polys[i] + [ZERO] * (k - 1 - i))
            total = ExactMatrix(1, len(weights), weights) * ExactMatrix(
                len(weights), k, stacked
            )
            for j, c in enumerate(total.entries):
                if not c.is_zero():
                    nxt[j] = nxt[j] - c
        polys.append(nxt)
    return ExactPoly(polys[n])


def eval_poly(p: ExactPoly, x: ExactMatrix) -> ExactMatrix:
    """Horner evaluation of p at a square matrix."""
    if not x.is_square():
        raise SizeMismatch("polynomial of a non-square matrix")
    out = ExactMatrix.zeros(x.rows)
    for c in reversed(p.coeffs):
        out = (x * out).plus_scalar(c)
    return out


class PolyMatrix:
    """Dense matrix with ExactPoly entries; carrier for tI - X."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        es = tuple(entries)
        if len(es) != rows * cols:
            raise SizeMismatch("polynomial matrix entry count mismatch")
        self.rows = rows
        self.cols = cols
        self.entries = es

    def __getitem__(self, ij) -> ExactPoly:
        i, j = ij
        return self.entries[i * self.cols + j]

    @staticmethod
    def characteristic(x: ExactMatrix) -> "PolyMatrix":
        """t*I - X as a polynomial matrix."""
        if not x.is_square():
            raise SizeMismatch("characteristic matrix of a non-square matrix")
        n = x.rows
        entries = []
        for i in range(n):
            for j in range(n):
                c = -x[i, j]
                if i == j:
                    entries.append(ExactPoly((c, ONE)))
                else:
                    entries.append(ExactPoly((c,)))
        return PolyMatrix(n, n, entries)


def smith_invariant_factors(pm: PolyMatrix):
    """Diagonal of the Smith normal form over Q(i)[x], monic, ordered so
    that each factor divides the next.

    Pivoting is by minimal degree with row-major tie-breaking; each corner
    step repeats until the pivot divides every remaining entry, which makes
    the divisibility chain hold by construction.
    """
    m = [[pm[i, j] for j in range(pm.cols)] for i in range(pm.rows)]
    nr, nc = pm.rows, pm.cols
    factors = []
    top = 0
    while top < min(nr, nc):
        # locate minimal-degree nonzero entry in the trailing block
        best = None
        for i in range(top, nr):
            for j in range(top, nc):
                if m[i][j].is_zero():
                    continue
                if best is None or m[i][j].degree() < m[best[0]][best[1]].degree():
                    best = (i, j)
        if best is None:
            factors.extend([ExactPoly.zero()] * (min(nr, nc) - top))
            break
        bi, bj = best
        if bi != top:
            m[top], m[bi] = m[bi], m[top]
        if bj != top:
            for row in m:
                row[top], row[bj] = row[bj], row[top]
        pivot = m[top][top]
        dirty = False
        # rows and columns before top are zero from index top on, so the
        # updates touch only the trailing block
        top_row = m[top]
        for i in range(top + 1, nr):
            row = m[i]
            if row[top].is_zero():
                continue
            q, r = divmod(row[top], pivot)
            for j in range(top, nc):
                if not top_row[j].is_zero():
                    row[j] = row[j] - q * top_row[j]
            if not r.is_zero():
                dirty = True
        for j in range(top + 1, nc):
            if top_row[j].is_zero():
                continue
            q, r = divmod(top_row[j], pivot)
            for i in range(top, nr):
                if not m[i][top].is_zero():
                    m[i][j] = m[i][j] - q * m[i][top]
            if not r.is_zero():
                dirty = True
        if dirty:
            continue
        # row/column are clear; make the pivot divide the rest of the block
        # (a nonzero constant divides everything)
        offender = None
        if pivot.degree() > 0:
            offender = next(
                (i for i in range(top + 1, nr)
                 if any(not (m[i][j] % pivot).is_zero() for j in range(top + 1, nc))),
                None,
            )
        if offender is not None:
            for j in range(top, nc):
                top_row[j] = top_row[j] + m[offender][j]
            continue
        factors.append(pivot.monic())
        top += 1
    return factors


def invariant_factors(x: ExactMatrix):
    """Invariant factors d1 | d2 | ... | dn of tI - X (monic); their
    product is the characteristic polynomial and the last one is the
    minimal polynomial."""
    return smith_invariant_factors(PolyMatrix.characteristic(x))


def minimal_polynomial(x: ExactMatrix) -> ExactPoly:
    return invariant_factors(x)[-1]


def is_semisimple(x: ExactMatrix, chi: ExactPoly | None = None) -> bool:
    """True iff X is diagonalizable, i.e. the squarefree part q of its
    characteristic polynomial chi (computed unless given) annihilates X.

    Tested on the Hessenberg form H: q(H) e_s = 0 at each block start s
    (s = 0 and every index after a zero subdiagonal entry), by Horner on
    vectors.  That is exact, because those e_s generate C^n as a
    C[H]-module and q(H) commutes with H.
    """
    h = hessenberg(x)
    q = squarefree_part(char_poly(h) if chi is None else chi)
    n = h.rows
    # nonzero entries of each column of H, which end at the subdiagonal
    cols = [
        [(i, h[i, j]) for i in range(min(j + 2, n)) if not h[i, j].is_zero()]
        for j in range(n)
    ]
    for s in range(n):
        if s and not h[s, s - 1].is_zero():
            continue
        v = [ZERO] * n
        for c in reversed(q.coeffs):
            hv = [ZERO] * n
            for j, vj in enumerate(v):
                if not vj.is_zero():
                    for i, hij in cols[j]:
                        hv[i] = hv[i] + hij * vj
            hv[s] = hv[s] + c
            v = hv
        if not all(e.is_zero() for e in v):
            return False
    return True


def eigenspaces(x: ExactMatrix, chi: ExactPoly):
    """[(lam, kernel basis of X - lam)] for the distinct eigenvalues lam of
    X, whose characteristic polynomial is chi, sorted by GaussRat.lex_key;
    raises SpectrumNotSplit when chi has an irrational factor."""
    roots, cofactor = linear_roots(chi)
    if cofactor.degree() > 0:
        raise SpectrumNotSplit(
            f"characteristic polynomial has irrational factor {cofactor}"
        )
    distinct = sorted(set(roots), key=GaussRat.lex_key)
    return [(lam, kernel(x.plus_scalar(-lam))) for lam in distinct]


def is_nilpotent(x: ExactMatrix) -> bool:
    """True iff the minimal polynomial is a power of x, i.e. X^n = 0."""
    if not x.is_square():
        raise SizeMismatch("nilpotency of a non-square matrix")
    return x.power(x.rows).is_zero()


def similar_to_negative(x: ExactMatrix) -> bool:
    """True iff X and -X have identical invariant-factor lists.

    The factors of -X are the monicized d_i(-t), so one Smith reduction
    suffices; for diagonalizable X this is the statement that the spectrum
    is symmetric under negation with multiplicities.
    """
    for f in invariant_factors(x):
        if f.substitute_negated().monic() != f:
            return False
    return True
