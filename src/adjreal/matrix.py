"""Exact linear algebra over Q(i) and over Q(i)[x].

Everything here is deterministic.  Solutions, kernel bases, ranks,
inverses and determinants are read off the reduced row echelon form,
which is unique.  One engine computes it, and builds the Krylov
echelons v, Av, A^2 v, ... of ``oracle`` and ``symplectic``, and of the
Hessenberg form behind the characteristic polynomial, a row at a time:
sparse fraction-free Gauss-Jordan elimination over the Gaussian
integers.  Each row is cleared of its denominators once (for
``inverse``, each column), every pivot equals one common denominator,
each update divides exactly in Z[i] by the previous one, and each entry
that is read is divided back once.  A matrix keeps its rows once they
are cleared (see ``ExactMatrix``), so products and matrix-vector
products run over Gaussian integers from one to the next: the left
factor's rows and the right factor's columns are read cleared, the sums
are taken in Python ints, and the result is kept as its rows over Z[i],
each in lowest terms, until an entry is read.  The
Smith-form reduction picks the minimal-degree nonzero entry with ties
broken in row-major order, so repeated runs produce identical invariant
factors.

JSON wire format for matrices:
    {"rows": n, "cols": m, "entries": [["a/b+c/d*i", ...], ...]}
"""

from __future__ import annotations

import itertools
import math

from .errors import (
    InconsistentSystem,
    ParseError,
    SelfCheckFailed,
    SingularMatrix,
    SizeMismatch,
    SpectrumNotSplit,
)
from .gaussian import ONE, ZERO, GaussRat, _cleared, rational
from .polynomial import ExactPoly, linear_roots, squarefree_part, squarefree_roots


def json_int(value, what: str) -> int:
    """value if it is a JSON integer (a boolean is not one), else ParseError."""
    if type(value) is not int:
        raise ParseError(f"{what} must be a JSON integer, got {value!r}")
    return value


class ExactMatrix:
    """Immutable dense matrix over Q(i), row-major, held in one or both of
    two forms, each built from the other when first read:

    - ``entries``, the tuple of GaussRat entries;
    - its cleared rows, row i as (d_i, [(j, re, im)]): d_i is the row's
      least common denominator and re + im*i = d_i * entry (i, j) in
      Python ints, listed for the nonzero entries in column order.  The
      form is canonical (d_i is minimal, so it is prime to the parts), so
      two matrices are equal exactly when their cleared rows are.

    Products, transposes, negation, equality, hashing and the elimination
    engine read the cleared rows, and products, transposes, negation and
    ``inverse`` return a matrix that holds only them.  Sums, scaling and
    entry access read ``entries``; ``is_zero`` reads the form at hand.
    """

    __slots__ = ("rows", "cols", "_entries", "_rows_zi")

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
        self._entries = es
        self._rows_zi = None

    @staticmethod
    def _from_cleared(rows: int, cols: int, cleared) -> "ExactMatrix":
        """The matrix whose cleared rows are ``cleared`` (canonical)."""
        out = object.__new__(ExactMatrix)
        out.rows, out.cols, out._entries, out._rows_zi = rows, cols, None, cleared
        return out

    @property
    def entries(self):
        if self._entries is None:
            m = self.cols
            flat = [ZERO] * (self.rows * m)
            for i, (d, row) in enumerate(self._rows_zi):
                base = i * m
                for j, re, im in row:
                    flat[base + j] = GaussRat(rational(re, d), rational(im, d))
            self._entries = tuple(flat)
        return self._entries

    def _cleared_rows(self):
        """Row i as (d_i, [(j, re, im)]), see the class docstring."""
        if self._rows_zi is None:
            m, es = self.cols, self._entries
            self._rows_zi = [_cleared(es[i * m : (i + 1) * m]) for i in range(self.rows)]
        return self._rows_zi

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
    def monomial(images) -> "ExactMatrix":
        """The monomial matrix g with g e_k = s_k e_{i_k}, given as
        images[k] = (i_k, s_k) with the i_k a permutation of 0..n-1 and
        each s_k a unit (+-1 or +-i, as an int or a GaussRat): column k
        holds s_k in row i_k and is zero elsewhere.  This is the
        convention of ``_signed_conjugate``."""
        n = len(images)
        flat = [ZERO] * (n * n)
        for k, (i, s) in enumerate(images):
            flat[i * n + k] = s
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
        return list(self.entries[j :: self.cols])

    def to_lists(self):
        return [self.row_list(i) for i in range(self.rows)]

    def with_entry(self, i: int, j: int, value: GaussRat) -> "ExactMatrix":
        flat = list(self.entries)
        flat[i * self.cols + j] = value
        return ExactMatrix(self.rows, self.cols, flat)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        if self._rows_zi is None:  # clearing would cost more than looking
            return all(e.is_zero() for e in self._entries)
        return not any(row for _, row in self._rows_zi)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._cleared_rows() == other._cleared_rows()
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(
            (d, tuple(row)) for d, row in self._cleared_rows()
        )))

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
        return ExactMatrix._from_cleared(self.rows, self.cols, [
            (d, [(j, -re, -im) for j, re, im in row]) for d, row in self._cleared_rows()
        ])

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
        # row i of A is a_i / d_i and column j of B is b_j / c_j over Z[i], so
        # entry (i, j) of AB is (a_i . b_j) / (d_i c_j): row i of AB is the
        # row of the (a_i . b_j) (e / c_j) over d_i e, for e the lcm of the c_j.
        # Clearing B by columns keeps the b_j, and so the sums, short; a B
        # over Z[i] has c_j = 1 and is read by its rows as they are.
        m, out = other.cols, []
        right = other._cleared_rows()  # row t of B: (j, re, im)
        if all(d == 1 for d, _ in right):
            right, e, scale = [row for _, row in right], 1, [1] * m
        else:
            columns = other.transpose()._cleared_rows()
            right = [[] for _ in range(other.rows)]
            for j, (_, column) in enumerate(columns):
                for t, br, bi in column:
                    right[t].append((j, br, bi))
            e = math.lcm(*(c for c, _ in columns))
            scale = [e // c for c, _ in columns]
        for d, row in self._cleared_rows():
            acc_re, acc_im = [0] * m, [0] * m
            for t, ar, ai in row:
                for j, br, bi in right[t]:
                    acc_re[j] += ar * br - ai * bi
                    acc_im[j] += ar * bi + ai * br
            out.append(_lowest_terms(d * e, [
                (j, s * re, s * im)
                for j, (re, im, s) in enumerate(zip(acc_re, acc_im, scale)) if re or im
            ]))
        return ExactMatrix._from_cleared(self.rows, m, out)

    __rmul__ = scale

    def mul_vector(self, vec):
        if len(vec) != self.cols:
            raise SizeMismatch("vector length mismatch")
        return list((self * ExactMatrix(len(vec), 1, vec)).entries)

    def transpose(self) -> "ExactMatrix":
        # column j over the lcm e_j of the d_i of its nonzero entries
        rows = self._cleared_rows()
        dens = [1] * self.cols
        for d, row in rows:
            if d != 1:
                for j, _, _ in row:
                    if dens[j] % d:
                        dens[j] = math.lcm(dens[j], d)
        columns = [[] for _ in range(self.cols)]
        for i, (d, row) in enumerate(rows):
            for j, re, im in row:
                s = dens[j] // d
                columns[j].append((i, s * re, s * im) if s != 1 else (i, re, im))
        return ExactMatrix._from_cleared(self.cols, self.rows, [
            _lowest_terms(e, column) for e, column in zip(dens, columns)
        ])

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


def _lowest_terms(den: int, row):
    """The cleared form (d, row') of row / den, for a positive den and a
    sparse Gaussian-integer row [(j, re, im)]: both divided by their gcd."""
    if not row:
        return 1, row
    g = den
    for _, re, im in row:
        g = math.gcd(g, re, im)
        if g == 1:
            return den, row
    return den // g, [(j, re // g, im // g) for j, re, im in row]


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

    ``pivots`` maps each pivot column, in the order found, to its row, a
    {column: (re, im)} map of the nonzero Gaussian-integer entries outside
    the pivot columns.  Every pivot entry equals the common denominator
    ``den`` and is not stored, so the reduced row echelon form over Q(i)
    is each row divided by ``den`` (``value``).  The entries are minors of
    the rows added, so each update divides exactly, in Z[i], by the
    previous denominator.
    """

    __slots__ = ("pivots", "den")

    def __init__(self):
        self.pivots: dict = {}
        self.den = (1, 0)

    def copy(self) -> "_Echelon":
        out = _Echelon()
        out.pivots, out.den = {c: dict(r) for c, r in self.pivots.items()}, self.den
        return out

    def value(self, z, scale: int = 1) -> GaussRat:
        """The Q(i) entry of the reduced form for a stored z, over scale."""
        dr, di = self.den
        return _gauss_quotient(z, (scale * dr, scale * di))

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
    return [{j: (re, im) for j, re, im in row} for _, row in a._cleared_rows()]


def _cleared_columns(a: ExactMatrix):
    """(d, columns): a = M / d with M over Z[i] and d the lcm of the
    denominators of a; column j of M as a list of its nonzero entries
    (i, re, im)."""
    rows = a._cleared_rows()
    d = math.lcm(*(di for di, _ in rows))
    columns = [[] for _ in range(a.cols)]
    for i, (di, row) in enumerate(rows):
        s = d // di
        for j, re, im in row:
            columns[j].append((i, s * re, s * im))
    return d, columns


def _apply(columns, w: dict) -> dict:
    """M w for M given by its cleared columns and w a {row: (re, im)}
    vector of Gaussian integers."""
    out: dict = {}
    for j, (wr, wi) in w.items():
        for i, mr, mi in columns[j]:
            xr, xi = mr * wr - mi * wi, mr * wi + mi * wr
            if i in out:
                yr, yi = out[i]
                out[i] = (yr + xr, yi + xi)
            else:
                out[i] = (xr, xi)
    return {i: z for i, z in out.items() if z[0] or z[1]}


def _poly_on_vector(p: ExactPoly, cleared, v):
    """p(A) v for A = M / d, cleared = (d, columns of M).

    With p = P / e and v = V / f over Z[i], p(A) v is
    sum_i P_i d^(deg p - i) M^i V / (e f d^(deg p)); Horner's rule on the
    Gaussian-integer vectors computes the sum."""
    d, columns = cleared
    e, coeffs = _cleared(p.coeffs)
    f, vec = _cleared(v)
    coeff = {i: (re, im) for i, re, im in coeffs}
    out: dict = {}
    scale = 1  # d^(deg p - i)
    for i in range(p.degree(), -1, -1):
        out = _apply(columns, out)
        if i in coeff:
            cr, ci = coeff[i]
            cr, ci = cr * scale, ci * scale
            for j, vr, vi in vec:
                xr, xi = cr * vr - ci * vi, cr * vi + ci * vr
                yr, yi = out.get(j, (0, 0))
                if yr + xr or yi + xi:
                    out[j] = (yr + xr, yi + xi)
                else:
                    out.pop(j, None)
        scale *= d
    den = e * f * d ** p.degree()
    return [
        GaussRat(rational(out[j][0], den), rational(out[j][1], den)) if j in out
        else ZERO
        for j in range(len(v))
    ]


def _krylov_echelon(cleared, v, base: _Echelon | None = None):
    """(echelon, p) for A = M / d, cleared = (d, columns of M): the
    fraction-free echelon of v, Av, ..., A^(k-1) v and the minimal monic p
    of degree k with p(A) v = 0, or, given the echelon ``base`` of an
    A-invariant space S, with p(A) v in S (``base`` is left as it is).

    Rows are Gaussian-integer {column: (re, im)} maps; A^i v is kept as
    M^i V / (f d^i) with v = V / f, and its row carries the scale f d^i
    in column n + i, so that column holds a row's coefficient of A^i v.
    Each A^i v is reduced once against the pivots found so far; the
    first one with nothing left in columns < n is a dependence, and its
    coefficients divided by that of A^i v are p."""
    d, columns = cleared
    n = len(columns)
    echelon = _Echelon() if base is None else base.copy()
    scale, vec = _cleared(v)
    w = {j: (re, im) for j, re, im in vec}
    for k in itertools.count():
        row = dict(w)
        row[n + k] = (scale, 0)
        row = echelon.reduce(row)
        if min(row) >= n:
            lead = row[n + k]
            return echelon, ExactPoly([
                _gauss_quotient(row[n + i], lead) if n + i in row else ZERO
                for i in range(k + 1)
            ])
        echelon.add(row)
        w = _apply(columns, w)
        scale *= d


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


def kernel(a: ExactMatrix):
    """Basis of the null space of a, deterministic."""
    return _kernel_from_rref(_rref(_sparse_rows(a)), a.cols)


def rank(a: ExactMatrix) -> int:
    return len(_rref(_sparse_rows(a)).pivots)


def _permutation_sign(perm) -> int:
    inversions = sum(p > q for k, p in enumerate(perm) for q in perm[k + 1:])
    return -1 if inversions % 2 else 1


def det(a: ExactMatrix) -> GaussRat:
    """det A = det(a) / prod d_i for rows a_i / d_i with a_i over Z[i].
    Once every row of a is a pivot row of its echelon, the echelon's
    denominator is the minor on the rows in the order added and the pivot
    columns in the order found: det(a) times the signs of both orders."""
    if not a.is_square():
        raise SizeMismatch("determinant of a non-square matrix")
    n, rows, den = a.rows, [], 1
    for d, row in a._cleared_rows():
        den *= d
        rows.append({j: (re, im) for j, re, im in row})
    order = sorted(range(n), key=lambda i: len(rows[i]))  # as _rref takes them
    echelon = _rref([rows[i] for i in order])
    if len(echelon.pivots) < n:
        return ZERO
    sign = _permutation_sign(order) * _permutation_sign(list(echelon.pivots))
    return _gauss_quotient(echelon.den, (sign * den, 0))


def inverse(a: ExactMatrix) -> ExactMatrix:
    """A^-1 from the RREF of [A C | I], where C = diag(c_j) clears each
    column j of A to Gaussian integers: A^-1 = C (A C)^-1.  Callers invert
    matrices whose columns are vectors with one denominator each, which
    this clearing keeps small."""
    if not a.is_square():
        raise SizeMismatch("inverse of a non-square matrix")
    n = a.rows
    rows = [{n + i: (1, 0)} for i in range(n)]
    columns = a.transpose()._cleared_rows()
    for j, (_, column) in enumerate(columns):
        for i, re, im in column:
            rows[i][j] = (re, im)
    echelon = _rref(rows)
    pivots = echelon.pivots
    if any(c not in pivots for c in range(n)):
        raise SingularMatrix("matrix is not invertible")
    # row i of A^-1 is c_i times the pivot row of column i, over den:
    # z / den = z u / den' with den' = |den| (u = +-1) or N(den) (u = conj den)
    dr, di = echelon.den
    if di:
        den, ur, ui = dr * dr + di * di, dr, -di
    else:
        den, ur, ui = abs(dr), (1 if dr > 0 else -1), 0
    out = []
    for i, (c, _) in enumerate(columns):
        row = [
            (k - n, c * (xr * ur - xi * ui), c * (xr * ui + xi * ur))
            for k, (xr, xi) in sorted(pivots[i].items())
        ]
        out.append(_lowest_terms(den, row))
    return ExactMatrix._from_cleared(n, n, out)


def _signed_conjugate(m: ExactMatrix, images) -> ExactMatrix:
    """T M T^-1 for the signed permutation T e_k = s_k e_{i_k}, given as
    images[k] = (i_k, s_k) with s_k = +-1: entry (k, l) of M moves to
    (i_k, i_l) with sign s_k s_l.  No product and no elimination."""
    n = m.rows
    flat = [ZERO] * (n * n)
    for k, (ik, sk) in enumerate(images):
        for l, (il, sl) in enumerate(images):
            e = m[k, l]
            flat[ik * n + il] = e if sk == sl else -e
    return ExactMatrix(n, n, flat)


# ---------------------------------------------------------------------------
# characteristic / minimal polynomial and similarity
# ---------------------------------------------------------------------------


def _unit_krylov_walk(cleared, tagged: bool = False):
    """The blocks of a basis of C^n for A = M / d, cleared = (d, columns
    of M): for each unit vector e_s outside the A-invariant span of the
    earlier blocks, in increasing s, the block e_s, A e_s, ... up to the
    first dependence, added to one fraction-free echelon.

    Yields (s, start, end, row) once a block is added: it holds basis
    vectors start .. end - 1, and row is the reduced row of A^(end-start)
    e_s.  With ``tagged``, basis vector m = A^j e_s enters as the row of
    M^j e_s with its scale d^j in column n + m, so the dependent row's
    columns n .. n + end hold the coefficients of a relation among basis
    vectors 0 .. end, as in ``_krylov_echelon``."""
    d, columns = cleared
    n, span, m = len(columns), _Echelon(), 0
    for s in range(n):
        w, scale, start = {s: (1, 0)}, 1, m
        while True:
            row = span.reduce({**w, n + m: (scale, 0)} if tagged else w)
            if not row or min(row) >= n:
                break
            span.add(row)
            m += 1
            w = _apply(columns, w)
            scale *= d
        if m > start:
            yield s, start, m, row


def hessenberg(x: ExactMatrix) -> ExactMatrix:
    """Upper Hessenberg H = P^-1 X P with subdiagonal entries 0 or 1, read
    off one Krylov echelon of X over Gaussian integers (no pivot inverse).

    The columns of P are the blocks of ``_unit_krylov_walk``, so H has a 1
    on the subdiagonal inside a block and a 0 where a block starts.  At a
    block's first dependence, X times its last vector is a combination of
    all the vectors so far; the row's tags give those coefficients, and
    they fill the block's last column of H.
    """
    if not x.is_square():
        raise SizeMismatch("Hessenberg form of a non-square matrix")
    n = x.rows
    h = [ZERO] * (n * n)
    for _, start, end, row in _unit_krylov_walk(_cleared_columns(x), tagged=True):
        for k in range(start + 1, end):
            h[k * n + k - 1] = ONE
        # row[n + end] X v_(end-1) + sum_(i < end) row[n + i] v_i = 0
        lead = row[n + end]
        for i in range(end):
            if n + i in row:
                zr, zi = row[n + i]
                h[i * n + end - 1] = _gauss_quotient((-zr, -zi), lead)
    return ExactMatrix(n, n, h)


def char_poly(x: ExactMatrix) -> ExactPoly:
    """Characteristic polynomial det(tI - X), exact.

    With H the Hessenberg form of X and p_k the characteristic polynomial
    of its leading k x k block, p_0 = 1 and
    p_{k+1} = (t - h_kk) p_k - sum_{i<k} h_ik (h_{i+1,i} ... h_{k,k-1}) p_i.
    ``hessenberg`` puts only 0 and 1 on the subdiagonal, and nonzero h_ik
    (i < k) only in the last column of each block, so the sum runs over
    that block's nonzero terms, and a subdiagonal 1 is not multiplied in.
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
        # the nonzero terms for i = k-1, k-2, ...; the weights vanish past
        # a zero subdiagonal entry
        weights, stacked, sub = [], [], ONE
        for i in range(k - 1, -1, -1):
            below = h[i + 1, i]
            if below.is_zero():
                break
            if below != ONE:
                sub = sub * below
            if not h[i, k].is_zero():
                weights.append(h[i, k] * sub)
                stacked.extend(polys[i] + [ZERO] * (k - 1 - i))
        if weights:
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

    q(X) e_s = 0 is tested by Horner on X's own Gaussian-integer columns,
    only for the unit vectors e_s outside the X-invariant span of the
    earlier ones; that span grows in one echelon by e_s, X e_s, ... up to
    the first dependence (``_unit_krylov_walk``, untagged).  The e_s
    tested generate C^n as a C[X]-module and q(X) commutes with X, so the
    test is exact.
    """
    if not x.is_square():
        raise SizeMismatch("diagonalizability of a non-square matrix")
    q = squarefree_part(char_poly(x) if chi is None else chi)
    n, cleared = x.rows, _cleared_columns(x)
    for s, _, _, _ in _unit_krylov_walk(cleared):
        unit = [ONE if i == s else ZERO for i in range(n)]
        if any(not e.is_zero() for e in _poly_on_vector(q, cleared, unit)):
            return False
    return True


def eigenspaces(x: ExactMatrix, chi: ExactPoly):
    """[(lam, kernel basis of X - lam)] for the distinct eigenvalues lam of
    X, whose characteristic polynomial is chi, sorted by GaussRat.lex_key.

    The eigenvalues are the roots of chi's squarefree part q, which splits
    exactly when it has deg q of them in Q(i); otherwise SpectrumNotSplit
    names chi's rootless cofactor.  The kernels are not checked to span
    C^n, so X need not be diagonalizable.
    """
    q = squarefree_part(chi)
    roots = squarefree_roots(q)
    if len(roots) < q.degree():
        _, cofactor = linear_roots(chi)
        raise SpectrumNotSplit(
            f"characteristic polynomial has irrational factor {cofactor}"
        )
    return [(lam, kernel(x.plus_scalar(-lam))) for lam in roots]


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
