"""Known answers for the semisimple workload, from the README's decision
table applied to an element's constructed spectrum.

Nothing here calls adjreal's decision code: the verdict follows from the
multiset of eigenvalues, the acting group and the rank parameter alone.
Eigenvalues are wire strings ("1", "-2*i", "1/2+i", ...) compared as
exact Gaussian rationals.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction


def parse_gaussian(text: str):
    """(re, im) Fractions of an ``a/b+c/d*i`` wire scalar."""
    s = text.replace(" ", "")
    re = im = Fraction(0)
    start = 0
    terms = []
    for k in range(1, len(s)):
        if s[k] in "+-" and s[k - 1] not in "+-/*":
            terms.append(s[start:k])
            start = k
    terms.append(s[start:])
    for term in terms:
        if term.endswith("i"):
            body = term[:-1].rstrip("*")
            im += Fraction(body + "1") if body in ("", "+", "-") else Fraction(body)
        else:
            re += Fraction(term)
    return re, im


def expected_verdict(algebra: str, group: str, n: int, spectrum):
    """(real, strongly_real, reason) per the README decision table.

    ``n`` is the rank parameter of the context (the matrix size except for
    sp, where the matrix size is 2n); ``spectrum`` lists all eigenvalues
    with multiplicity.
    """
    values = Counter(parse_gaussian(v) for v in spectrum)
    zero = (Fraction(0), Fraction(0))
    if set(values) <= {zero}:
        return "yes", "yes", "ZeroElement"
    symmetric = values == Counter({(-re, -im): m for (re, im), m in values.items()})
    has_zero = values[zero] > 0
    if group in ("GL", "SL", "PSL"):
        if not symmetric:
            return "no", "no", "SpectrumAsymmetric"
        if group == "GL":
            return "yes", "yes", "SpectrumSymmetric"
        if group == "PSL":
            return "yes", "yes", "ProjectiveAlwaysStrong"
        if has_zero:
            return "yes", "yes", "ZeroEigenvalue"
        if n % 4 != 2:
            return "yes", "yes", "NMod4"
        return "yes", "no", "NMod4"
    if group == "O":
        return "yes", "yes", "OrthogonalAlwaysStrong"
    if group == "SO":
        if has_zero:
            return "yes", "yes", "ZeroEigenvalue"
        if n % 4 != 2:
            return "yes", "yes", "NMod4"
        if n == 2:
            return "no", "no", "SO2NotReal"
        return "undetermined", "no", "PaperSilent"
    if group == "Sp":
        if all(m % 2 == 0 for v, m in values.items() if v != zero):
            return "yes", "yes", "EvenMultiplicity"
        return "yes", "no", "OddMultiplicity"
    if group == "PSp":
        return "yes", "yes", "ProjectiveAlwaysStrong"
    raise ValueError(f"unknown group {group!r}")


def expected_exit_codes(verdict):
    """README exit-code contract for the decide and witness commands:
    0 affirmative, 1 negative or undetermined.  Witness asks for an
    involution exactly when strong reality is granted, so it succeeds
    exactly when plain reality is granted."""
    real, _strong, _reason = verdict
    code = 0 if real == "yes" else 1
    return {"decide": code, "witness": code}


# -- independent matrix checks ------------------------------------------------
#
# Plain Fraction arithmetic on (re, im) pairs, so a certificate or a
# Jordan part accepted here does not rest on adjreal's own arithmetic.

_ZERO = (Fraction(0), Fraction(0))
_ONE = (Fraction(1), Fraction(0))


def _add(p, q):
    return p[0] + q[0], p[1] + q[1]


def _mul(p, q):
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def _div(p, q):
    n = q[0] * q[0] + q[1] * q[1]
    return (p[0] * q[0] + p[1] * q[1]) / n, (p[1] * q[0] - p[0] * q[1]) / n


def matrix_from_wire(wire):
    return [[parse_gaussian(s) for s in row] for row in wire["entries"]]


def matmul(a, b):
    out = []
    for row in a:
        acc = [_ZERO] * len(b[0])
        for t, av in enumerate(row):
            if av == _ZERO:
                continue
            acc = [_add(c, _mul(av, bv)) for c, bv in zip(acc, b[t])]
        out.append(acc)
    return out


def eval_poly(coeffs, a):
    """p(A) by Horner's rule, coefficients as (re, im) pairs, highest
    degree first."""
    n = len(a)
    out = [[_ZERO] * n for _ in range(n)]
    for c in coeffs:
        out = matmul(out, a)
        for i in range(n):
            out[i][i] = _add(out[i][i], c)
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def identity(n):
    return [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]


def symplectic_form(n):
    """J_n = [[0, -I], [I, 0]] of size 2n."""
    j = [[_ZERO] * (2 * n) for _ in range(2 * n)]
    for k in range(n):
        j[k][n + k] = (Fraction(-1), Fraction(0))
        j[n + k][k] = _ONE
    return j


def determinant(a):
    rows = [list(r) for r in a]
    n = len(rows)
    out = _ONE
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c] != _ZERO), None)
        if p is None:
            return _ZERO
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            out = (-out[0], -out[1])
        out = _mul(out, rows[c][c])
        for i in range(c + 1, n):
            f = _div(rows[i][c], rows[c][c])
            if f != _ZERO:
                rows[i] = [_add(x, _mul((-f[0], -f[1]), y)) for x, y in zip(rows[i], rows[c])]
    return out


def _is_nonzero_scalar(m):
    c = m[0][0]
    n = len(m)
    return c != _ZERO and all(
        m[i][j] == (c if i == j else _ZERO) for i in range(n) for j in range(n)
    )


def reverser_failures(element, reverser, ctx, claims_involution: bool):
    """Names of the reverser equations the certificate violates."""
    x = matrix_from_wire(element)
    g = matrix_from_wire(reverser)
    size = len(x)
    failures = []
    if len(g) != size:
        return ["shape"]
    if any(_add(a, b) != _ZERO for ra, rb in zip(matmul(g, x), matmul(x, g)) for a, b in zip(ra, rb)):
        failures.append("gX + Xg != 0")
    group = ctx["group"]
    d = determinant(g)
    if d == _ZERO:
        failures.append("det g = 0")
    if group in ("SL", "PSL", "SO") and d != _ONE:
        failures.append("det g != 1")
    if group in ("O", "SO") and matmul(transpose(g), g) != identity(size):
        failures.append("g^t g != I")
    if group in ("Sp", "PSp"):
        j = symplectic_form(size // 2)
        if matmul(matmul(transpose(g), j), g) != j:
            failures.append("g^t J g != J")
    if claims_involution:
        g2 = matmul(g, g)
        if group in ("PSL", "PSp"):
            if not _is_nonzero_scalar(g2):
                failures.append("g^2 not scalar")
        elif g2 != identity(size):
            failures.append("g^2 != I")
    return failures
