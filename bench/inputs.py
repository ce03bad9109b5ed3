"""Seeded inputs for the three benchmark workloads.

Every element is built here from an explicit spectrum or Jordan structure
using only adjreal's exact scalars and matrix products; none of adjreal's
own constructions (canonical forms, partition models) are used, because
their basis choices may legitimately change.  The same seed always gives
the same elements, byte for byte; ``digest`` fingerprints them.

An element is a plain dict:

* ``cls``: the class name inside the workload's schedule;
* ``size``: the matrix size;
* ``matrix``: the matrix in adjreal's JSON wire format;
* ``ctx``: the context JSON (semisimple only);
* ``spectrum``: the eigenvalues with multiplicity as wire strings
  (semisimple only), the input of the known-answer table;
* ``partition`` and ``semisimple_eigenvalues``: the Jordan type of the
  nilpotent part and the distinct eigenvalues of the semisimple part
  (sp-reverse only);
* ``similar_to_negative``: True where the construction makes X similar
  to -X (similarity-oracles, nilpotent and plus-minus classes only).
"""

from __future__ import annotations

import hashlib
import json
import random

from adjreal.gaussian import GaussRat
from adjreal.matrix import ExactMatrix

ZERO = GaussRat(0)
ONE = GaussRat(1)
I = GaussRat(0, 1)

# Nonzero eigenvalue pool: small Gaussian integers and one half-integer,
# so the spectrum stays in Q(i) and rational-root search stays cheap.
EIGEN_POOL = [GaussRat.parse(s) for s in ("1", "2", "3", "i", "2*i", "1+i", "1-i", "1/2")]

# Semisimple schedule: (algebra, group, matrix size, spectrum kind).  It
# covers symmetric and asymmetric spectra, zero and repeated eigenvalues
# and n = 2 (mod 4); sizes stop where the seed code still answers within
# a few seconds (about 12 for sl, 10 for so, 2n = 12 for sp).
SEMISIMPLE_CLASSES = [
    ("gl", "GL", 4, "asym"),
    ("gl", "GL", 6, "sym"),
    ("sl", "SL", 4, "asym"),
    ("sl", "SL", 6, "sym"),
    ("sl", "SL", 8, "repeated"),
    ("sl", "PSL", 9, "sym"),
    ("sl", "SL", 10, "zero"),
    ("sl", "SL", 12, "sym"),
    ("so", "SO", 2, "sym"),
    ("so", "O", 6, "sym"),
    ("so", "SO", 6, "sym"),
    ("so", "SO", 7, "sym"),
    ("so", "SO", 8, "repeated"),
    ("so", "SO", 10, "zero"),
    ("sp", "PSp", 6, "sym"),
    ("sp", "Sp", 8, "odd"),
    ("sp", "Sp", 8, "zero"),
    ("sp", "Sp", 12, "even"),
]

# sp-reverse schedule: (class name, n, A blocks, B entries, D pattern,
# partition).
# X = [[D + A, B], [0, -(D + A)^t]] with A a direct sum of nilpotent
# Jordan blocks (sizes listed) that commute with the diagonal D (pattern
# read by _d_values), and B symmetric with sign entries at the listed
# (i, j) positions, allowed
# only where d_j = -d_i so that the nilpotent part commutes with
# X_s = diag(D, -D).  ``partition`` is the Jordan type of the nilpotent
# part, checked in the tests from rank sequences.  Dense conjugates make
# the sl2-triple systems far costlier and their cost swing with the
# signs, so each element is conjugated by a single transvection, which
# keeps it within a few seconds on the seed code.
SP_REVERSE_CLASSES = [
    # nilpotent elements
    ("nil-22", 2, (2,), (), None, (2, 2)),
    ("nil-4", 2, (2,), ((1, 1),), None, (4,)),
    ("nil-33", 3, (3,), (), None, (3, 3)),
    ("nil-2211", 3, (2, 1), (), None, (2, 2, 1, 1)),
    ("nil-6", 3, (3,), ((2, 2),), None, (6,)),
    ("nil-422", 4, (2, 2), ((1, 1),), None, (4, 2, 2)),
    ("nil-44", 4, (4,), (), None, (4, 4)),
    ("nil-66", 6, (6,), (), None, (6, 6)),
    # mixed elements X_s + X_n, semisimple part with Q(i) eigenvalues
    ("mix-22", 2, (2,), (), "aa", (2, 2)),
    ("mix-2211", 4, (2, 1, 1), (), "aab-b", (2, 2, 1, 1, 1, 1)),
    ("mix-332", 4, (3, 1), ((3, 3),), "aaa0", (3, 3, 2)),
    ("mix-4422", 6, (4, 2), (), "aaaabb", (4, 4, 2, 2)),
]

# similarity-oracles schedule: (class name, size, kind).
SIMILARITY_CLASSES = [
    ("rand-4", 4, "random"),
    ("rand-5", 5, "random"),
    ("nil-5", 5, "nilpotent"),
    ("rand-6", 6, "random"),
    ("pm-6", 6, "plusminus"),
    ("rand-7", 7, "random"),
    ("nil-7", 7, "nilpotent"),
    ("pm-8", 8, "plusminus"),
    ("rand-8", 8, "random"),
]

SCHEDULES = {
    "semisimple": SEMISIMPLE_CLASSES,
    "sp-reverse": SP_REVERSE_CLASSES,
    "similarity-oracles": SIMILARITY_CLASSES,
}


def _rows(m):
    return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]


# -- spectra -----------------------------------------------------------------


def _distinct_reps(rng: random.Random, k: int):
    """k pool values, no two equal or negatives of each other."""
    return rng.sample(EIGEN_POOL, k)


def linear_spectrum(rng: random.Random, n: int, kind: str):
    """Eigenvalue list of length n for gl/sl; sl spectra sum to zero."""
    if kind == "asym":
        # a, a, -2a breaks the symmetry and keeps the trace zero
        a = rng.choice(EIGEN_POOL[:3])
        rest = n - 3
        reps = _distinct_reps(rng, rest // 2)
        vals = [a, a, -(a + a)]
        for v in reps:
            vals += [v, -v]
        if rest % 2:
            vals.append(ZERO)
        return vals
    zeros = 2 if kind == "zero" else n % 2
    pairs = (n - zeros) // 2
    if kind == "repeated":
        reps = _distinct_reps(rng, (pairs + 1) // 2)
        reps = (reps * 2)[:pairs]
    else:
        reps = _distinct_reps(rng, pairs)
    vals = []
    for v in reps:
        vals += [v, -v]
    return vals + [ZERO] * zeros


def so_parameters(rng: random.Random, n: int, kind: str):
    """Rotation parameters a of the 2x2 blocks [[0, a], [-a, 0]] and the
    size of the trailing zero block (eigenvalues +-i*a and zeros)."""
    zeros = 2 if kind == "zero" else n % 2
    blocks = (n - zeros) // 2
    if kind == "repeated":
        params = _distinct_reps(rng, (blocks + 1) // 2)
        params = (params * 2)[:blocks]
    else:
        params = _distinct_reps(rng, blocks)
    return params, zeros


def sp_values(rng: random.Random, n: int, kind: str):
    """h for X = diag(h, -h) in sp(n).  'even' repeats every value, so
    every nonzero eigenvalue has even multiplicity; 'odd' and 'sym' use
    distinct values; 'zero' adds a zero pair."""
    if kind == "even":
        reps = _distinct_reps(rng, n // 2)
        return reps + reps
    if kind == "zero":
        return _distinct_reps(rng, n - 1) + [ZERO]
    return _distinct_reps(rng, n)


# -- conjugators ---------------------------------------------------------------


def _sign(rng: random.Random):
    """Conjugator coefficients are signs: heights then grow alike on every
    seed, so a class costs about the same work whatever the seed."""
    return GaussRat(rng.choice((-1, 1)))


def conjugate_unimodular(x: ExactMatrix, rng, where, steps: int) -> ExactMatrix:
    """P X P^-1 for P a product of elementary transvections I + c E_ij;
    ``where`` draws the positions (i, j), ``rng`` the coefficients c."""
    rows = _rows(x)
    n = x.rows
    for _ in range(steps):
        i, j = where.sample(range(n), 2)
        c = _sign(rng)
        # T X T^-1 with T = I + c E_ij: row_i += c row_j, col_j -= c col_i
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        for r in rows:
            r[j] = r[j] - c * r[i]
    return ExactMatrix.from_rows(rows)


def reflection(v) -> ExactMatrix:
    """I - 2 v v^t / (v^t v): complex orthogonal and its own inverse."""
    q = sum((a * a for a in v), ZERO)
    n = len(v)
    two_over_q = GaussRat(2) / q
    return ExactMatrix.from_rows(
        [
            [(ONE if i == j else ZERO) - two_over_q * v[i] * v[j] for j in range(n)]
            for i in range(n)
        ]
    )


def conjugate_orthogonal(x: ExactMatrix, rng, where, steps: int) -> ExactMatrix:
    """R X R for R a product of rational reflections in vectors with
    three entries +-1 (so v^t v = 3); ``where`` draws their support,
    ``rng`` the signs."""
    n = x.rows
    for _ in range(steps):
        v = [ZERO] * n
        for k in where.sample(range(n), min(n, 3)):
            v[k] = _sign(rng)
        r = reflection(v)
        x = r * x * r
    return x


def symplectic_transvection(n: int, v, c: GaussRat) -> ExactMatrix:
    """I + c v v^t J on C^{2n}, J = [[0, -I], [I, 0]]; symplectic."""
    size = 2 * n
    # (v^t J)_k = v_{k+n} for k < n and -v_{k-n} for k >= n
    vj = [v[k + n] if k < n else -v[k - n] for k in range(size)]
    return ExactMatrix.from_rows(
        [
            [(ONE if i == j else ZERO) + c * v[i] * vj[j] for j in range(size)]
            for i in range(size)
        ]
    )


def conjugate_symplectic(x: ExactMatrix, rng, where, steps: int) -> ExactMatrix:
    """T X T^-1 for T a product of transvections on v = e_i + s e_j;
    ``where`` draws the positions (i, j), ``rng`` the coefficients."""
    n = x.rows // 2
    for _ in range(steps):
        i, j = where.sample(range(2 * n), 2)
        v = [ZERO] * (2 * n)
        v[i] = ONE
        v[j] = _sign(rng)
        c = _sign(rng)
        t = symplectic_transvection(n, v, c)
        t_inv = symplectic_transvection(n, v, -c)
        x = t * x * t_inv
    return x


# -- workloads -----------------------------------------------------------------


def semisimple_element(rng: random.Random, where: random.Random, cls) -> dict:
    algebra, group, size, kind = cls
    if algebra in ("gl", "sl"):
        values = linear_spectrum(where, size, kind)
        # more transvections make the cost swing by up to 2x with the signs
        x = conjugate_unimodular(ExactMatrix.diagonal(values), rng, where, size // 2 + 2)
        n = size
        spectrum = values
    elif algebra == "so":
        params, zeros = so_parameters(where, size, kind)
        blocks = [[ZERO] * size for _ in range(size)]
        spectrum = []
        for b, a in enumerate(params):
            blocks[2 * b][2 * b + 1] = a
            blocks[2 * b + 1][2 * b] = -a
            spectrum += [I * a, -(I * a)]
        spectrum += [ZERO] * zeros
        x = conjugate_orthogonal(ExactMatrix.from_rows(blocks), rng, where, max(1, size // 2))
        n = size
    else:
        n = size // 2
        h = sp_values(where, n, kind)
        spectrum = h + [-v for v in h]
        x = conjugate_symplectic(ExactMatrix.diagonal(spectrum), rng, where, size)
    return {
        "cls": f"{group}-{size}-{kind}",
        "size": size,
        "ctx": {"algebra": algebra, "group": group, "n": n},
        "matrix": x.to_json(),
        "spectrum": sorted(str(v) for v in spectrum),
    }


def _jordan_blocks(sizes):
    """Direct sum of nilpotent Jordan blocks (ones on the superdiagonal)."""
    n = sum(sizes)
    a = [[ZERO] * n for _ in range(n)]
    start = 0
    for s in sizes:
        for k in range(start, start + s - 1):
            a[k][k + 1] = ONE
        start += s
    return a


def _d_values(pattern: str, rng: random.Random):
    """'a', 'b' draw distinct pool values, '-b' negates, '0' is zero."""
    a, b = _distinct_reps(rng, 2)
    out = []
    k = 0
    while k < len(pattern):
        if pattern[k] == "-":
            out.append(-{"a": a, "b": b}[pattern[k + 1]])
            k += 2
            continue
        out.append({"a": a, "b": b, "0": ZERO}[pattern[k]])
        k += 1
    return out


def sp_reverse_element(rng: random.Random, where: random.Random, cls) -> dict:
    name, n, a_blocks, b_entries, d_pattern, partition = cls
    a = _jordan_blocks(a_blocks)
    d = _d_values(d_pattern, where) if d_pattern else [ZERO] * n
    size = 2 * n
    rows = [[ZERO] * size for _ in range(size)]
    for i in range(n):
        for j in range(n):
            top = a[i][j] + (d[i] if i == j else ZERO)
            rows[i][j] = top
            rows[n + j][n + i] = -top
    for i, j in b_entries:
        c = _sign(rng)
        rows[i][n + j] = c
        rows[j][n + i] = c
    x = conjugate_symplectic(ExactMatrix.from_rows(rows), rng, where, 1)
    return {
        "cls": name,
        "size": size,
        "matrix": x.to_json(),
        "partition": list(partition),
        "semisimple_eigenvalues": sorted({str(v) for v in d} | {str(-v) for v in d}),
    }


SPARSE_POOL = [GaussRat.parse(s) for s in ("1", "-1", "2", "-2", "i", "-i", "1+i", "1/2")]


def _sparse_entry(rng: random.Random, where: random.Random):
    """Zero with probability 0.65 (drawn by ``where``), else a pool value."""
    return rng.choice(SPARSE_POOL) if where.random() < 0.35 else ZERO


def similarity_element(rng: random.Random, where: random.Random, cls) -> dict:
    """'random': i.i.d. mostly-zero entries; 'nilpotent': a strictly upper
    triangular mostly-zero matrix conjugated by a unimodular matrix
    (always similar to its negative, rarely diagonalizable);
    'plusminus': diag(M, -M) for a random M, conjugated likewise
    (always similar to its negative)."""
    name, size, kind = cls
    if kind == "random":
        rows = [[_sparse_entry(rng, where) for _ in range(size)] for _ in range(size)]
        x = ExactMatrix.from_rows(rows)
    elif kind == "nilpotent":
        rows = [
            [_sparse_entry(rng, where) if j > i else ZERO for j in range(size)]
            for i in range(size)
        ]
        x = conjugate_unimodular(ExactMatrix.from_rows(rows), rng, where, size)
    else:
        half = size // 2
        m = [[_sparse_entry(rng, where) for _ in range(half)] for _ in range(half)]
        rows = [[ZERO] * size for _ in range(size)]
        for i in range(half):
            for j in range(half):
                rows[i][j] = m[i][j]
                rows[half + i][half + j] = -m[i][j]
        x = conjugate_unimodular(ExactMatrix.from_rows(rows), rng, where, size)
    element = {"cls": name, "size": size, "matrix": x.to_json()}
    if kind != "random":
        element["similar_to_negative"] = True
    return element


MAKERS = {
    "semisimple": semisimple_element,
    "sp-reverse": sp_reverse_element,
    "similarity-oracles": similarity_element,
}


def make_round(workload: str, seed: int, round_index: int):
    """One element per class of the workload's schedule, in schedule
    order.  Round r of seed s is the same whatever else is generated."""
    rng = random.Random(f"{workload}/{seed}/{round_index}")
    maker = MAKERS[workload]
    # Structure (spectra, Jordan data, sparsity patterns, conjugator
    # positions) depends on the class alone and numbers (conjugator
    # coefficients, matrix entries) on the seed, so a class costs about
    # the same work on every seed while no two seeds share an input.
    return [maker(rng, random.Random(repr(cls)), cls) for cls in SCHEDULES[workload]]


def wire_inputs(element: dict):
    """What the program receives for this element."""
    return {"ctx": element.get("ctx"), "matrix": element["matrix"]}


def digest(elements) -> str:
    """SHA-256 of the program inputs, canonical JSON."""
    h = hashlib.sha256()
    for e in elements:
        h.update(json.dumps(wire_inputs(e), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()
