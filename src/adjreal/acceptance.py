"""End-to-end acceptance suites, exact arithmetic throughout.

Each criterion function returns a CriterionResult; `run_all` executes all
eight.  Randomized suites draw from `random.Random(seed + criterion)` so
runs are reproducible; the seed comes from the SEED environment variable
(default 0) unless given explicitly.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from .certificates import is_nonzero_scalar, verify_certificate
from .errors import NotRealizable
from .gaussian import GaussRat, ONE, ZERO
from .liecore import (
    CanonicalSemisimple,
    LieContext,
    build_canonical,
    jn_matrix,
    so_block,
)
from .matrix import (
    ExactMatrix,
    char_poly,
    det,
    eval_poly,
    invariant_factors,
    similar_to_negative,
)
from .jordan import jordan_chevalley
from .oracle import (
    height_pool,
    involution_determinant_census,
    rcf_similar,
    enumerate_involutive_reversers,
    search_reverser,
    sp1_involution_obstruction,
)
from .polynomial import ExactPoly
from .semisimple import (
    YES,
    NO,
    UNDETERMINED,
    decide_semisimple,
    witness_semisimple,
)
from .symplectic import (
    build_sigma,
    chain_decomposition,
    mixed_from_partition,
    nilpotent_from_partition,
    reverse_full,
    symplectic_partitions,
)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.number} ({self.name}): {self.detail}"


def _seed() -> int:
    return int(os.environ.get("SEED", "0"))


def _nonzero_pool(height: int):
    return [v for v in height_pool(height) if not v.is_zero()]


def _check(cond: bool, message: str, failures: list):
    if not cond:
        failures.append(message)


# ---------------------------------------------------------------------------


def criterion_1_special_linear(seed: int) -> CriterionResult:
    """Strong reality in the special linear family: zero eigenvalue or
    rank not congruent to 2 mod 4; all granted witnesses verify."""
    rng = random.Random(seed + 1)
    pool = _nonzero_pool(3)
    failures: list = []
    cases = 0
    for n in range(2, 9):
        ctx = LieContext("sl", "SL", n)
        for _ in range(50):
            r_choices = [r for r in range(0, min(n, 4)) if (n - r) % 2 == 0]
            r = rng.choice(r_choices)
            m = (n - r) // 2
            values = []
            for _ in range(m):
                v = rng.choice(pool)
                values.extend([v, -v])
            values.extend([ZERO] * r)
            rng.shuffle(values)
            canon = CanonicalSemisimple("sl", tuple(values))
            x = build_canonical(canon)
            verdict = decide_semisimple(x, ctx)
            expected_strong = (r > 0) or (n % 4 != 2)
            _check(verdict.is_real == YES, f"n={n}: expected real", failures)
            _check(
                verdict.is_strongly_real == (YES if expected_strong else NO),
                f"n={n} r={r}: strong-reality criterion mismatch",
                failures,
            )
            if m > 0:
                plain = witness_semisimple(canon, ctx, False)
                _check(
                    verify_certificate(plain).ok,
                    f"n={n}: plain witness failed",
                    failures,
                )
            if expected_strong:
                wit = witness_semisimple(canon, ctx, True)
                _check(
                    verify_certificate(wit).ok,
                    f"n={n}: involution witness failed",
                    failures,
                )
                g = wit.reverser
                _check(
                    g * g == ExactMatrix.identity(n) and det(g) == 1,
                    f"n={n}: involution witness not a det-1 involution",
                    failures,
                )
            else:
                try:
                    witness_semisimple(canon, ctx, True)
                    failures.append(f"n={n}: denied involution was produced")
                except NotRealizable:
                    pass
            cases += 1
    detail = f"{cases} spectra across n=2..8" + (
        "" if not failures else f"; first failure: {failures[0]}"
    )
    return CriterionResult(1, "special linear suite", not failures, detail)


def criterion_2_sl_obstruction(seed: int) -> CriterionResult:
    """Zero-free spectra in ranks 2 and 6: involution search exhausts in
    the determinant-one group, and every involutive anticommutant element
    has determinant -1."""
    rng = random.Random(seed + 2)
    pool = _nonzero_pool(3)
    failures: list = []
    detail_bits = []
    for n in (2, 6):
        ctx = LieContext("sl", "SL", n)
        values = []
        seen = set()
        while len(values) < n // 2:
            v = rng.choice(pool)
            if v in seen or (-v) in seen:
                continue
            seen.add(v)
            values.append(v)
        diag = []
        for v in values:
            diag.extend([v, -v])
        x = ExactMatrix.diagonal(diag)
        out = search_reverser(x, ctx, 2, True)
        _check(
            not out.found and out.note.startswith("exhausted"),
            f"n={n}: involution search did not exhaust",
            failures,
        )
        count, dets, samples = involution_determinant_census(x, 2)
        _check(count > 0, f"n={n}: census found no involutions", failures)
        _check(
            dets == {GaussRat.from_int(-1)},
            f"n={n}: found involution with determinant != -1",
            failures,
        )
        _check(samples >= 1, f"n={n}: no census samples verified", failures)
        detail_bits.append(f"n={n}: {count} involutions, all det -1")
    return CriterionResult(
        2, "determinant obstruction", not failures,
        "; ".join(detail_bits) if not failures else failures[0],
    )


def criterion_3_orthogonal(seed: int) -> CriterionResult:
    """Orthogonal suite: every canonical rotation element is strongly
    real under the full orthogonal group; the special orthogonal verdict
    follows the zero-eigenvalue / n mod 4 criterion; the rank-two
    dichotomy is reproduced by search."""
    rng = random.Random(seed + 3)
    pool = height_pool(2)
    failures: list = []
    cases = 0
    for n in range(2, 10):
        for _ in range(12):
            r = n % 2
            m = (n - r) // 2
            if m >= 2 and rng.random() < 0.3:
                m -= 1
                r += 2
            values = tuple(rng.choice(pool) for _ in range(m))
            canon = CanonicalSemisimple("so", values, r)
            x = build_canonical(canon)
            octx = LieContext("so", "O", n)
            soctx = LieContext("so", "SO", n)
            vo = decide_semisimple(x, octx)
            _check(
                vo.is_real == YES and vo.is_strongly_real == YES,
                f"O({n}): expected strongly real",
                failures,
            )
            wo = witness_semisimple(canon, octx, True)
            _check(verify_certificate(wo).ok, f"O({n}): witness failed", failures)
            zero_spec = r > 0 or any(v.is_zero() for v in values)
            expected_strong = zero_spec or (n % 4 != 2)
            vs = decide_semisimple(x, soctx)
            _check(
                vs.is_strongly_real == (YES if expected_strong else NO),
                f"SO({n}): strong criterion mismatch (r={r})",
                failures,
            )
            if expected_strong:
                ws = witness_semisimple(canon, soctx, True)
                _check(
                    verify_certificate(ws).ok and det(ws.reverser) == 1,
                    f"SO({n}): witness failed",
                    failures,
                )
                _check(vs.is_real == YES, f"SO({n}): strong but not real", failures)
            elif n == 2:
                _check(vs.is_real == NO, "SO(2): expected not real", failures)
            else:
                _check(
                    vs.is_real == UNDETERMINED and vs.reason == "PaperSilent",
                    f"SO({n}): expected undetermined verdict",
                    failures,
                )
            cases += 1
    # the rank-two dichotomy
    x2 = so_block(ONE)
    found = search_reverser(x2, LieContext("so", "O", 2), 2, True)
    _check(
        found.found and det(found.certificate.reverser) == -ONE,
        "O(2) search should find a det -1 involution",
        failures,
    )
    diag_pm = ExactMatrix.diagonal([1, -1])
    _check(
        any(
            r == diag_pm
            for r in enumerate_involutive_reversers(x2, 2)
        ),
        "diag(1,-1) missing from the O(2) involution family",
        failures,
    )
    so_search = search_reverser(x2, LieContext("so", "SO", 2), 2, True)
    _check(
        not so_search.found,
        "SO(2) involution search should exhaust",
        failures,
    )
    detail = f"{cases} canonical elements across n=2..9; rank-2 dichotomy reproduced"
    return CriterionResult(
        3, "orthogonal suite", not failures,
        detail if not failures else failures[0],
    )


def _sp_matrix_multiplicity_even(values) -> bool:
    counts: dict = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    reps = set()
    for v in counts:
        if v.is_zero():
            continue
        rep = v if v.lex_key() >= (-v).lex_key() else -v
        reps.add(rep)
    for rep in reps:
        mult = counts.get(rep, 0) + counts.get(-rep, 0)
        if mult % 2:
            return False
    return True


def criterion_4_symplectic_semisimple(seed: int) -> CriterionResult:
    """Symplectic semisimple suite: strong reality iff every nonzero
    eigenvalue has even multiplicity; rank-one impossibility is checked
    on exact matrices over a grid that proves its polynomial identities."""
    rng = random.Random(seed + 4)
    pool = _nonzero_pool(2)
    failures: list = []
    cases = 0
    for n in range(1, 5):
        ctx = LieContext("sp", "Sp", n)
        for _ in range(12):
            values = []
            while len(values) < n:
                v = rng.choice(pool)
                reps = rng.choice([1, 1, 2])
                take = min(reps, n - len(values))
                values.extend([v] * take)
            if rng.random() < 0.25 and n > 1:
                values[rng.randrange(n)] = ZERO
            rng.shuffle(values)
            canon = CanonicalSemisimple("sp", tuple(values))
            x = build_canonical(canon)
            verdict = decide_semisimple(x, ctx)
            expected = _sp_matrix_multiplicity_even(values)
            _check(verdict.is_real == YES, f"Sp({n}): expected real", failures)
            _check(
                verdict.is_strongly_real == (YES if expected else NO),
                f"Sp({n}): multiplicity criterion mismatch {values}",
                failures,
            )
            plain = witness_semisimple(canon, ctx, False)
            _check(verify_certificate(plain).ok, f"Sp({n}): plain witness", failures)
            if expected:
                wit = witness_semisimple(canon, ctx, True)
                ok = verify_certificate(wit).ok
                g = wit.reverser
                _check(
                    ok and g * g == ExactMatrix.identity(2 * n),
                    f"Sp({n}): involution witness failed",
                    failures,
                )
            else:
                try:
                    witness_semisimple(canon, ctx, True)
                    failures.append(f"Sp({n}): denied involution produced")
                except NotRealizable:
                    pass
            cases += 1
    rec = sp1_involution_obstruction()
    _check(rec.passed, "symbolic rank-one obstruction failed", failures)
    detail = f"{cases} spectra across n=1..4; symbolic obstruction machine-checked"
    return CriterionResult(
        4, "symplectic semisimple suite", not failures,
        detail if not failures else failures[0],
    )


def criterion_5_nilpotent_chains(seed: int) -> CriterionResult:
    """Every symplectic partition of 2n <= 10: chain data invariants and
    the chain sign operator."""
    failures: list = []
    cases = 0
    for total in (2, 4, 6, 8, 10):
        n = total // 2
        j = jn_matrix(n)
        for parts in symplectic_partitions(total):
            if max(parts) == 1:
                # all-ones partition: the element is zero and admits no
                # sl2-triple; its reverser is trivially the identity
                continue
            x = nilpotent_from_partition(parts)
            cd = chain_decomposition(x)
            _check(
                sorted(cd.partition(), reverse=True) == sorted(parts, reverse=True),
                f"{parts}: partition mismatch {cd.partition()}",
                failures,
            )
            _check(
                sum(d * cd.counts[d] for d in cd.parts) == total,
                f"{parts}: chain dimensions do not fill the space",
                failures,
            )
            for d in cd.parts:
                g = cd.gram[d]
                sign = -ONE if d % 2 else ONE
                _check(
                    g.transpose() == g.scale(sign),
                    f"{parts}: form parity broken at d={d}",
                    failures,
                )
                _check(
                    not det(g).is_zero(),
                    f"{parts}: degenerate chain form at d={d}",
                    failures,
                )
                if d % 2:
                    _check(
                        cd.counts[d] % 2 == 0,
                        f"{parts}: odd part with odd chain count",
                        failures,
                    )
            sigma = build_sigma(cd)
            _check(
                sigma.transpose() * j * sigma == j,
                f"{parts}: sigma not symplectic",
                failures,
            )
            _check(
                (sigma * x + x * sigma).is_zero(),
                f"{parts}: sigma fails to negate the nilpotent",
                failures,
            )
            cases += 1
    detail = f"{cases} partitions of 2n <= 10, all chain invariants exact"
    return CriterionResult(
        5, "nilpotent chain suite", not failures,
        detail if not failures else failures[0],
    )


def _mixed_configurations():
    """(partition, pairable part lengths) choices admitting X_s != 0 and
    X_n != 0 (some part of length >= 2)."""
    out = []
    for total in (4, 6):
        for parts in symplectic_partitions(total):
            if max(parts) == 1:
                continue
            counts: dict = {}
            for p in parts:
                counts[p] = counts.get(p, 0) + 1
            pairable = [d for d, c in counts.items() if c >= 2]
            if pairable:
                out.append((parts, sorted(pairable)))
    return out


def criterion_6_full_symplectic(seed: int) -> CriterionResult:
    """100 mixed elements of sp(n <= 3): the decomposition is recovered
    exactly and the two-factor reverser verifies."""
    rng = random.Random(seed + 6)
    pool = _nonzero_pool(2)
    configs = _mixed_configurations()
    failures: list = []
    cases = 0
    for _ in range(100):
        parts, pairable = configs[rng.randrange(len(configs))]
        params: dict = {}
        nonzero_somewhere = False
        for d in pairable:
            npairs = sum(1 for p in parts if p == d) // 2
            vals = []
            for _ in range(npairs):
                v = rng.choice(pool)
                vals.append(v)
                nonzero_somewhere = True
            params[d] = vals
        if not nonzero_somewhere:
            continue
        x, xs, xn = mixed_from_partition(parts, params)
        pair = jordan_chevalley(x)
        _check(
            pair.semisimple_part == xs and pair.nilpotent_part == xn,
            f"{parts}: decomposition not recovered",
            failures,
        )
        _check(
            eval_poly(pair.witness_poly, x) == xs,
            f"{parts}: witness polynomial does not evaluate to X_s",
            failures,
        )
        again = jordan_chevalley(xs)
        _check(
            again.semisimple_part == xs and again.nilpotent_part.is_zero(),
            f"{parts}: decomposition not idempotent",
            failures,
        )
        cert = reverse_full(x)
        _check(
            verify_certificate(cert).ok,
            f"{parts}: full reverser failed verification",
            failures,
        )
        cases += 1
    detail = f"{cases} mixed elements, decomposition and reverser exact"
    return CriterionResult(
        6, "full symplectic suite", not failures,
        detail if not failures else failures[0],
    )


def criterion_7_cross_oracle(seed: int) -> CriterionResult:
    """500 random matrices up to size 5: the Smith-form similarity test
    agrees with the cyclic-decomposition oracle, and the invariant-factor
    chain and product identities hold."""
    rng = random.Random(seed + 7)
    scalars = [
        ZERO, ZERO, ZERO, ONE, -ONE,
        GaussRat.from_int(2), GaussRat.from_int(-2),
        GaussRat.parse("i"), GaussRat.parse("-i"), GaussRat.parse("1+1*i"),
    ]
    failures: list = []
    agreements = 0
    for _ in range(500):
        n = rng.randrange(2, 6)
        x = ExactMatrix(
            n, n, [rng.choice(scalars) for _ in range(n * n)]
        )
        facs = invariant_factors(x)
        prod = ExactPoly.one()
        for k in range(len(facs) - 1):
            _check(
                (facs[k + 1] % facs[k]).is_zero(),
                "divisibility chain broken",
                failures,
            )
        for f in facs:
            prod = prod * f
        _check(prod == char_poly(x), "factor product != char poly", failures)
        lhs = similar_to_negative(x)
        rhs = rcf_similar(x, -x)
        _check(lhs == rhs, "similarity oracles disagree", failures)
        agreements += lhs == rhs
    detail = f"{agreements}/500 matrices agree; chain and product identities exact"
    return CriterionResult(
        7, "cross-oracle suite", not failures,
        detail if not failures else failures[0],
    )


def criterion_8_projective(seed: int) -> CriterionResult:
    """Projective groups: canonical semisimple elements are strongly
    real, with witnesses squaring to central scalars."""
    rng = random.Random(seed + 8)
    pool = _nonzero_pool(2)
    failures: list = []
    cases = 0
    for n in range(2, 7):
        ctx = LieContext("sl", "PSL", n)
        for _ in range(10):
            r_choices = [r for r in range(0, n) if (n - r) % 2 == 0]
            r = rng.choice(r_choices)
            values = []
            for _ in range((n - r) // 2):
                v = rng.choice(pool)
                values.extend([v, -v])
            values.extend([ZERO] * r)
            rng.shuffle(values)
            canon = CanonicalSemisimple("sl", tuple(values))
            verdict = decide_semisimple(build_canonical(canon), ctx)
            _check(
                verdict.is_strongly_real == YES
                and verdict.reason in ("ProjectiveAlwaysStrong", "ZeroElement"),
                f"PSL({n}): expected strongly real",
                failures,
            )
            wit = witness_semisimple(canon, ctx, True)
            _check(verify_certificate(wit).ok, f"PSL({n}): witness failed", failures)
            g2 = wit.reverser * wit.reverser
            _check(
                is_nonzero_scalar(g2), f"PSL({n}): witness square not scalar", failures
            )
            cases += 1
    for n in range(1, 5):
        ctx = LieContext("sp", "PSp", n)
        for _ in range(10):
            values = tuple(rng.choice(pool + [ZERO]) for _ in range(n))
            canon = CanonicalSemisimple("sp", values)
            verdict = decide_semisimple(build_canonical(canon), ctx)
            _check(
                verdict.is_strongly_real == YES,
                f"PSp({n}): expected strongly real",
                failures,
            )
            wit = witness_semisimple(canon, ctx, True)
            _check(verify_certificate(wit).ok, f"PSp({n}): witness failed", failures)
            g2 = wit.reverser * wit.reverser
            _check(
                is_nonzero_scalar(g2), f"PSp({n}): witness square not scalar", failures
            )
            cases += 1
    detail = f"{cases} projective elements, all squares central scalars"
    return CriterionResult(
        8, "projective suite", not failures,
        detail if not failures else failures[0],
    )


_CRITERIA = [
    criterion_1_special_linear,
    criterion_2_sl_obstruction,
    criterion_3_orthogonal,
    criterion_4_symplectic_semisimple,
    criterion_5_nilpotent_chains,
    criterion_6_full_symplectic,
    criterion_7_cross_oracle,
    criterion_8_projective,
]
CRITERIA = len(_CRITERIA)


def run_criterion(number: int, seed: int | None = None) -> CriterionResult:
    if not 1 <= number <= CRITERIA:
        raise ValueError(f"no criterion {number}")
    return _CRITERIA[number - 1](_seed() if seed is None else seed)


def run_all(seed: int | None = None):
    seed = _seed() if seed is None else seed
    return [fn(seed) for fn in _CRITERIA]
