"""adjreal benchmark: how long a user waits for an exact, verified answer.

    python3 bench/run.py --workload semisimple --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout; the program under test is the
checkout's ``src/adjreal``.  One client, one process, no threads, closed
loop: each element's commands run back to back and the next element
starts when the previous one is checked.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end
metrics; ``--trace 1`` runs each element of one fixed round untraced and
then traced, and reports the per-layer metrics.  The last stdout line is the
result JSON; the line before it is the full report (environment,
per-command medians, tail sample count, failures, input digests).
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("semisimple", "sp-reverse", "similarity-oracles")

# Fixed per workload so a parent and a change compare the same statistic:
# at the seed code's speed each leaves about ten samples beyond it in one
# run of BENCHMARK.json's length.
TAIL_PERCENTILE = {"semisimple": 80, "sp-reverse": 60, "similarity-oracles": 90}

SETUP_REPEATS = 9
SETUP_ARGV = [
    "decide",
    "--ctx",
    '{"algebra": "sl", "group": "SL", "n": 2}',
    "--matrix",
    '{"rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "-1"]]}',
]
SETUP_ANSWER = {"real": "yes", "strongly_real": "no", "reason": "NMod4", "witness": None}
SETUP_CODE = "import sys\nfrom adjreal.cli import main\nsys.exit(main(sys.argv[1:]))"

SIZE_CLASSES = (4, 6, 8, 10, 12)


def size_class(size: int) -> str:
    """Bucket name for a matrix size: n_le4, n_le6, ..., n_le12."""
    for bound in SIZE_CLASSES:
        if size <= bound:
            return f"n_le{bound}"
    return f"n_gt{SIZE_CLASSES[-1]}"


def mix_rate(by_class) -> float:
    """Elements per second at the stated mix: one round, one element of
    each of the K classes, takes the sum of the class mean latencies."""
    round_s = sum(statistics.fmean(v) for v in by_class.values())
    return len(by_class) / round_s if round_s else 0.0


def mix_percentile(by_class, percentile: float) -> float:
    """Element latency at a percentile of the stated mix.

    Every class weighs 1/K and shares its weight equally among its
    samples, so a run that stops inside a round still reports the
    workload's stated mix while spread inside a class moves the result.
    Each sample sits at the centre of its weight band and the percentile
    interpolates linearly between neighbours, which keeps it from jumping
    between classes of very different cost."""
    atoms = sorted((v, 1 / (len(by_class) * len(samples))) for samples in by_class.values() for v in samples)
    centres, below = [], 0.0
    for _value, weight in atoms:
        centres.append(below + weight / 2)
        below += weight
    target = percentile / 100
    hi = bisect.bisect_left(centres, target)
    if hi == 0:
        return atoms[0][0]
    if hi == len(atoms):
        return atoms[-1][0]
    lo = hi - 1
    share = (target - centres[lo]) / (centres[hi] - centres[lo])
    return atoms[lo][0] + share * (atoms[hi][0] - atoms[lo][0])


def measure_setup():
    """Time of a fresh interpreter importing adjreal and answering one 2x2
    decide, at the reference host speed.

    Each start is timed right after a bare interpreter start (``-c pass``)
    on the same core; the median ratio of the two, scaled by a bare
    start's reference time, is the result.  Start-up slows down under
    host contention as a bare start does (measured ratio 2.62 on a fast
    host, 2.63 on a slow one), not as the Fraction probe does.  One
    unmeasured pair first compiles bytecode."""
    from hostspeed import REFERENCE_BARE_START_S

    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", SETUP_CODE, *SETUP_ARGV]
    ratios, wall, problems = [], [], []
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    try:
        for k in range(SETUP_REPEATS + 1):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], env=env, capture_output=True, timeout=120)
            bare = time.perf_counter() - start
            start = time.perf_counter()
            proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
            elapsed = time.perf_counter() - start
            try:
                answer = json.loads(proc.stdout)
            except json.JSONDecodeError:
                answer = None
            if proc.returncode != 0 or answer != SETUP_ANSWER:
                problems.append(f"setup decide: exit {proc.returncode}, {proc.stdout!r} {proc.stderr[-300:]!r}")
            if k:
                wall.append(elapsed)
                ratios.append(elapsed / bare)
    finally:
        os.sched_setaffinity(0, cores)
    return statistics.median(ratios) * REFERENCE_BARE_START_S, statistics.median(wall), problems


def run_element(runner, element, untraced=contextlib.nullcontext):
    """Run and check one element; a traceback is a failure, not a crash."""
    from workloads import Outcome

    try:
        return runner(element, untraced)
    except Exception:  # noqa: BLE001 - the benchmark records and goes on
        return Outcome(problems=[traceback.format_exc(limit=3)])


def environment(args, digests):
    from adjreal import gaussian

    backend = "gmpy2" if gaussian.rational(1).__class__.__module__.startswith("gmpy2") else "fractions"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rational_backend": backend,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "input_digests": digests,
    }


def end_to_end(args):
    import inputs
    from hostspeed import HostSpeed
    from workloads import COMMANDS, RUNNERS, reference_mismatches

    setup_s, setup_wall_s, setup_problems = measure_setup()
    runner = RUNNERS[args.workload]
    elements, outcomes, digests = [], [], []
    with HostSpeed() as host:
        deadline = time.perf_counter() + args.seconds
        # Always finish the first round, so every class of the mix is measured.
        while time.perf_counter() < deadline or len(digests) == 1 and len(outcomes) < len(elements):
            if len(outcomes) == len(elements):
                batch = inputs.make_round(args.workload, args.seed, len(digests))
                digests.append(inputs.digest(batch))
                elements.extend(batch)
            outcomes.append(run_element(runner, elements[len(outcomes)]))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    elements = elements[: len(outcomes)]
    if args.workload == "similarity-oracles":
        for k, problem in reference_mismatches(elements, outcomes):
            outcomes[k].problems.append(problem)

    def seconds(outcome, cmd=None):
        """Reference-speed seconds of one command, or of all of them."""
        windows = [outcome.windows[cmd]] if cmd else outcome.windows.values()
        return sum(host.reference_seconds(t0, t1) for t0, t1 in windows)

    done = [o for o in outcomes if not o.problems]
    failed = len(outcomes) - len(done)
    by_class, wall_by_class = {}, {}
    for e, o in zip(elements, outcomes):
        if not o.problems:
            by_class.setdefault(e["cls"], []).append(seconds(o))
            wall_by_class.setdefault(e["cls"], []).append(o.seconds)
    by_class = by_class or {"none": [0.0]}
    wall_by_class = wall_by_class or {"none": [0.0]}
    tail = mix_percentile(by_class, TAIL_PERCENTILE[args.workload])
    beyond = sum(v > tail for samples in by_class.values() for v in samples)
    metrics = {
        "setup_s": (setup_s, "s"),
        "elements_per_s": (mix_rate(by_class), "1/s"),
        "latency_p50_s": (mix_percentile(by_class, 50), "s"),
        "latency_tail_s": (tail, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    commands = {}
    for cmd in COMMANDS[args.workload]:
        samples = [seconds(o, cmd) for o in done if cmd in o.windows]
        if samples:
            commands[f"{cmd}_p50_s"] = {"value": statistics.median(samples), "unit": "s", "samples": len(samples)}
    report = {
        "environment": environment(args, digests),
        "tracing_overhead": None,
        "commands": commands,
        "latency_tail": {"percentile": TAIL_PERCENTILE[args.workload], "samples": len(done), "beyond": beyond},
        "failed_ratio": failed / len(outcomes),
        "class_means_s": {c: statistics.fmean(v) for c, v in by_class.items()},
        "wall_clock": {
            "elements_per_s": mix_rate(wall_by_class),
            "latency_p50_s": mix_percentile(wall_by_class, 50),
            "setup_s": setup_wall_s,
            "slow_probe_share": host.slow_share(),
        },
        "problems": setup_problems + [p for o in outcomes for p in o.problems][:20],
    }
    if args.workload == "similarity-oracles":
        report["similar_share"] = sum(bool(o.similar) for o in done) / max(1, len(done))
    correct = failed == 0 and not setup_problems
    return metrics, report, correct, len(outcomes), failed


def per_layer(args):
    import inputs
    import spans
    from workloads import RUNNERS, reference_mismatches

    runner = RUNNERS[args.workload]
    elements = inputs.make_round(args.workload, args.seed, 0)
    tracer = spans.Tracer()
    plain, traced = [], []
    # Each element runs untraced and then traced, back to back, so host
    # speed drifts between runs do not show up as tracing overhead.
    for k, e in enumerate(elements):
        plain.append(run_element(runner, e))
        tracer.start_element(k, size_class(e["size"]))
        tracer.install()
        try:
            traced.append(run_element(runner, e, tracer.paused))
        finally:
            tracer.uninstall()
    outcomes = plain + traced
    if args.workload == "similarity-oracles":
        for k, problem in reference_mismatches(elements + elements, outcomes):
            outcomes[k].problems.append(problem)
    failed = sum(1 for o in outcomes if o.problems)
    plain_s = sum(o.seconds for o in plain)
    overhead = sum(o.seconds for o in traced) / plain_s - 1 if plain_s else None
    self_sum, total = spans.summarize(tracer.spans)
    metrics = layer_metrics(tracer, self_sum, len(elements), sum(o.certificates for o in traced))
    metrics.update(scalar_timings(tracer.samples))
    (HERE / "out").mkdir(exist_ok=True)
    trace_file = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "element"], "spans": tracer.spans}, fh)
    report = {
        "environment": environment(args, [inputs.digest(elements)]),
        "tracing_overhead": overhead,
        "profile": profile_checks(args.workload, tracer, self_sum, total, len(elements)),
        "trace_file": str(trace_file.relative_to(HERE.parent)),
        "problems": [p for o in outcomes for p in o.problems][:20],
    }
    return metrics, report, failed == 0, len(outcomes), failed


SELF_TIME_LAYERS = (
    "matrix.invariant_factors",
    "matrix.char_poly",
    "matrix.solve",
    "matrix.mul",
    "matrix.inverse",
    "matrix.det",
    "matrix.eval_poly",
    "polynomial.linear_roots",
    "polynomial.squarefree",
    "liecore.algebra_member",
    "jordan.jordan_chevalley",
    "semisimple.decide_semisimple",
    "semisimple.witness_general_semisimple",
    "symplectic.sl2_triple",
    "symplectic.chain_decomposition",
    "symplectic.build_sigma",
    "symplectic.build_tau",
    "symplectic.reverse_full",
    "oracle.rcf_invariant_factors",
    "certificates.verify_certificate",
    "cli.parse",
    "cli.emit",
)


def layer_metrics(tracer, self_sum, n, certificates):
    """Per-layer numbers, each per element of the traced round of n."""
    out = {}
    for op in ("mul", "add", "div"):
        out[f"gaussian.{op}.count"] = (tracer.op_counts[op] / n, "count")
    bits = tracer.max_bits
    out["gaussian.max_bits"] = (max(bits.values(), default=0), "bits")
    out["matrix.invariant_factors.max_bits"] = (
        max((b for (_c, name), b in bits.items() if name == "matrix.invariant_factors"), default=0),
        "bits",
    )
    for name in SELF_TIME_LAYERS:
        out[f"{name}.self_s"] = (self_sum.get(name, 0.0) / n, "s")
    out["matrix.char_poly.calls"] = (tracer.calls["matrix.char_poly"] / n, "count")
    out["matrix.mul.calls"] = (tracer.calls["matrix.mul"] / n, "count")
    out["matrix.solve.nonzero_ratio"] = (
        tracer.solve_nonzeros / tracer.solve_entries if tracer.solve_entries else 0.0,
        "ratio",
    )
    out["certificates.verify_certificate.calls_per_certificate"] = (
        tracer.calls["certificates.verify_certificate"] / certificates if certificates else 0.0,
        "count",
    )
    for bound in SIZE_CLASSES:
        cls = f"n_le{bound}"
        out[f"gaussian.max_bits.{cls}"] = (max((b for (c, _n), b in bits.items() if c == cls), default=0), "bits")
        out[f"matrix.invariant_factors.max_bits.{cls}"] = (bits.get((cls, "matrix.invariant_factors"), 0), "bits")
    return out


def scalar_timings(samples, repeats: int = 5):
    """ns per GaussRat mul / add / div on scalar results sampled from the
    traced run (so operand sizes are the workload's own)."""
    from adjreal.gaussian import GaussRat

    if len(samples) < 2:
        samples = [GaussRat(3, 1), GaussRat(-2, 5)]
    pairs = [(samples[k], samples[(7 * k + 3) % len(samples)]) for k in range(len(samples))]
    divisible = [(a, b) for a, b in pairs if b]
    clock = time.perf_counter_ns
    out = {}
    for op, fn, operands in (
        ("mul", GaussRat.__mul__, pairs),
        ("add", GaussRat.__add__, pairs),
        ("div", GaussRat.__truediv__, divisible),
    ):
        runs = []
        for _ in range(repeats):
            start = clock()
            for a, b in operands:
                fn(a, b)
            runs.append((clock() - start) / len(operands))
        out[f"gaussian.{op}_ns"] = (statistics.median(runs), "ns")
    return out


def profile_checks(workload, tracer, self_sum, total, n):
    """Shares the ROADMAP baseline profile predicts, from the traced round."""
    import spans

    within = spans.inclusive_within(tracer.spans)
    layer_totals = {k: v for k, v in total.items() if not k.startswith("cli.")}
    out = {
        "largest_inclusive": max(layer_totals, key=layer_totals.get, default=None),
        "largest_self": max(self_sum, key=self_sum.get, default=None),
    }
    if workload == "sp-reverse" and total.get("cli.reverse"):
        out["sl2_triple_share_of_reverse"] = within.get(("cli.reverse", "symplectic.sl2_triple"), 0.0) / total["cli.reverse"]
    if workload == "semisimple" and total.get("cli.decide"):
        out["char_poly_calls_per_element"] = tracer.calls["matrix.char_poly"] / n
        smith_and_charpoly = within.get(("cli.decide", "matrix.invariant_factors"), 0.0) + within.get(
            ("cli.decide", "matrix.char_poly"), 0.0
        )
        out["smith_and_char_poly_share_of_decide"] = smith_and_charpoly / total["cli.decide"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "adjreal" / "__init__.py").is_file():
        print(f"error: no adjreal package at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import adjreal

    if Path(adjreal.__file__).resolve().parent != (SRC / "adjreal").resolve():
        print(f"error: imported adjreal from {adjreal.__file__}, not {SRC}", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    metrics, report, correct, attempted, failed = measure(args)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"report": report}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
