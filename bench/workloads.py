"""Running one element of a workload and checking its answers.

CLI commands run in-process through ``adjreal.cli.main(argv)`` with
stdout captured and parsed as JSON, exactly as a shell user would see
them but without interpreter start-up.  Only the program's calls are
timed; building argv and checking answers are not.

Each runner returns an ``Outcome``: per-command clock windows and the list of
problems found (empty when every command gave the known answer).  Library
functions are called through their modules, so the traced run's rebinding
reaches them; work done only to check answers runs inside ``untraced()``.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

from adjreal import cli, jordan, matrix, oracle

from known import (
    eval_poly,
    expected_exit_codes,
    expected_verdict,
    matrix_from_wire,
    parse_gaussian,
    reverser_failures,
)


@dataclass
class Outcome:
    windows: dict = field(default_factory=dict)  # command -> (start, end)
    problems: list = field(default_factory=list)
    charpoly: list | None = None  # coefficients to compare with sympy later
    semisimple_part: dict | None = None  # wire X_s, checked with sympy later
    similar: bool | None = None  # similarity-oracles: X similar to -X
    certificates: int = 0  # certificates the CLI emitted

    @property
    def times(self) -> dict:
        """Command -> wall seconds."""
        return {k: end - start for k, (start, end) in self.windows.items()}

    @property
    def seconds(self) -> float:
        return sum(self.times.values())


def run_cli(argv, outcome: Outcome, label: str):
    """(exit code, parsed stdout) of one in-process CLI command."""
    buf = io.StringIO()
    clock = time.perf_counter
    with contextlib.redirect_stdout(buf):
        start = clock()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
        outcome.windows[label] = (start, clock())
    try:
        payload = json.loads(buf.getvalue())
    except json.JSONDecodeError:
        outcome.problems.append(f"{label}: stdout is not JSON")
        payload = None
    return code, payload


def _expect(outcome: Outcome, cond: bool, message: str):
    if not cond:
        outcome.problems.append(message)


def _check_certificate(outcome, label, cert, element, ctx, involution):
    outcome.certificates += 1
    _expect(outcome, cert.get("element") == element, f"{label}: element changed")
    _expect(outcome, cert.get("context") == ctx, f"{label}: context changed")
    _expect(
        outcome,
        cert.get("claims_involution") is involution,
        f"{label}: claims_involution is {cert.get('claims_involution')!r}",
    )
    bad = reverser_failures(element, cert["reverser"], ctx, involution)
    _expect(outcome, not bad, f"{label}: certificate fails {bad}")


def _verify(outcome: Outcome, cert):
    code, report = run_cli(["verify", json.dumps(cert)], outcome, "verify")
    _expect(outcome, code == 0, f"verify: exit {code}")
    _expect(
        outcome,
        report == {"verified": True, "failures": []},
        f"verify: {report}",
    )


def run_semisimple(element: dict, untraced=contextlib.nullcontext) -> Outcome:
    """decide, then witness (--involution exactly when strong reality is
    granted), then verify on the emitted certificate."""
    out = Outcome()
    ctx, matrix = element["ctx"], element["matrix"]
    expected = expected_verdict(ctx["algebra"], ctx["group"], ctx["n"], element["spectrum"])
    codes = expected_exit_codes(expected)
    common = ["--ctx", json.dumps(ctx), "--matrix", json.dumps(matrix)]
    code, verdict = run_cli(["decide", *common], out, "decide")
    _expect(out, code == codes["decide"], f"decide: exit {code}, expected {codes['decide']}")
    if verdict is None:
        return out
    got = (verdict.get("real"), verdict.get("strongly_real"), verdict.get("reason"))
    _expect(out, got == expected, f"decide: {got}, expected {expected}")
    involution = expected[1] == "yes"
    argv = ["witness", *common] + (["--involution"] if involution else [])
    code, cert = run_cli(argv, out, "witness")
    _expect(out, code == codes["witness"], f"witness: exit {code}, expected {codes['witness']}")
    if cert is None:
        return out
    if code != 0:
        _expect(out, cert.get("witness", 0) is None, f"witness: refusal without null witness: {cert}")
        return out
    _check_certificate(out, "witness", cert, matrix, ctx, involution)
    _verify(out, cert)
    return out


def run_sp_reverse(element: dict, untraced=contextlib.nullcontext) -> Outcome:
    """reverse, then verify on the emitted certificate."""
    out = Outcome()
    matrix = element["matrix"]
    ctx = {"algebra": "sp", "group": "Sp", "n": element["size"] // 2}
    code, cert = run_cli(["reverse", "--matrix", json.dumps(matrix)], out, "reverse")
    _expect(out, code == 0, f"reverse: exit {code}")
    if cert is None or code != 0:
        return out
    _check_certificate(out, "reverse", cert, matrix, ctx, False)
    _verify(out, cert)
    return out


def run_similarity(element: dict, untraced=contextlib.nullcontext) -> Outcome:
    """similar_to_negative (Smith route), rcf_similar(x, -x) (Krylov
    route) and jordan_chevalley as library calls."""
    out = Outcome()
    with untraced():
        x = matrix.ExactMatrix.from_json(element["matrix"])
        neg = -x
    clock = time.perf_counter
    start = clock()
    smith = matrix.similar_to_negative(x)
    mid = clock()
    krylov = oracle.rcf_similar(x, neg)
    mid2 = clock()
    pair = jordan.jordan_chevalley(x)
    end = clock()
    out.windows = {"smith": (start, mid), "krylov": (mid, mid2), "jordan": (mid2, end)}
    out.similar = smith
    _expect(out, smith == krylov, f"oracles disagree: smith {smith}, krylov {krylov}")
    with untraced():
        xs, xn = pair.semisimple_part, pair.nilpotent_part
        _expect(out, xs + xn == x, "jordan: parts do not recombine to X")
        _expect(out, xs * xn == xn * xs, "jordan: parts do not commute")
        _expect(out, xn.power(x.rows).is_zero(), "jordan: nilpotent part is not nilpotent")
        out.semisimple_part = xs.to_json()
        product = None
        for f in matrix.invariant_factors(x):
            product = f if product is None else product * f
        out.charpoly = [str(c) for c in product.coeffs]
    return out


RUNNERS = {
    "semisimple": run_semisimple,
    "sp-reverse": run_sp_reverse,
    "similarity-oracles": run_similarity,
}

# commands whose median each workload reports
COMMANDS = {
    "semisimple": ("decide", "witness", "verify"),
    "sp-reverse": ("reverse", "verify"),
    "similarity-oracles": ("smith", "krylov", "jordan"),
}


def reference_mismatches(elements, outcomes):
    """(index, problem) for each similarity-oracles answer that differs
    from a reference computed here, untimed, with sympy over QQ_I:

    * the invariant-factor product must be sympy's characteristic
      polynomial;
    * X_s must be semisimple: the squarefree part of that polynomial,
      evaluated at X_s in plain Fraction arithmetic, must vanish;
    * the similarity verdict must be the known one where the input was
      built similar to -X, and otherwise sympy's, from comparing the
      invariant factors of xI - X and xI + X over QQ_I[x]."""
    from sympy import Symbol
    from sympy.polys.domains import QQ, QQ_I
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import invariant_factors
    from sympy.polys.sqfreetools import dup_sqf_part

    ring = QQ_I[Symbol("x")]

    def to_qqi(text):
        re, im = parse_gaussian(text)
        return QQ_I(QQ(re.numerator, re.denominator), QQ(im.numerator, im.denominator))

    def pair(c):
        return Fraction(c.x.numerator, c.x.denominator), Fraction(c.y.numerator, c.y.denominator)

    def monic_invariant_factors(rows, sign):
        n = len(rows)
        x = ring.gens[0]
        char = [[(x if i == j else ring.zero) - ring.convert(sign * v) for j, v in enumerate(row)] for i, row in enumerate(rows)]
        return [f.monic() for f in invariant_factors(DomainMatrix(char, (n, n), ring))]

    bad = []
    for k, (element, outcome) in enumerate(zip(elements, outcomes)):
        if outcome.charpoly is None:
            continue
        rows = [[to_qqi(s) for s in row] for row in element["matrix"]["entries"]]
        ref = DomainMatrix(rows, (len(rows), len(rows)), QQ_I).charpoly()
        if [parse_gaussian(c) for c in reversed(outcome.charpoly)] != [pair(c) for c in ref]:
            bad.append((k, "char poly differs from sympy over QQ_I"))
        squarefree = [pair(c) for c in dup_sqf_part(ref, QQ_I)]
        xs = matrix_from_wire(outcome.semisimple_part)
        if any(v != (0, 0) for row in eval_poly(squarefree, xs) for v in row):
            bad.append((k, "jordan: semisimple part is not semisimple"))
        similar = element.get("similar_to_negative")
        if similar is None:
            similar = monic_invariant_factors(rows, 1) == monic_invariant_factors(rows, -1)
        if outcome.similar is not similar:
            bad.append((k, f"similar to -X is {outcome.similar}, expected {similar}"))
    return bad
