"""Tests of the benchmark's own parts: input generators, the known-answer
table, the independent certificate check and span self time.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import inputs  # noqa: E402
import known  # noqa: E402
import spans  # noqa: E402
from known import matmul, matrix_from_wire, symplectic_form, transpose  # noqa: E402

ZERO = (Fraction(0), Fraction(0))


def _rank(a) -> int:
    rows = [list(r) for r in a]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(rank, len(rows)) if rows[i][c] != ZERO), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != ZERO:
                f = known._div(rows[i][c], rows[rank][c])
                rows[i] = [known._add(x, known._mul((-f[0], -f[1]), y)) for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _shift(a, lam):
    return [[known._add(v, (-lam[0], -lam[1])) if i == j else v for j, v in enumerate(row)] for i, row in enumerate(a)]


def _jordan_type(a, eigenvalues):
    """Block sizes of a at the given eigenvalues, from rank sequences."""
    n = len(a)
    sizes = []
    for text in eigenvalues:
        b = _shift(a, known.parse_gaussian(text))
        ranks = [n]
        power = b
        while True:
            ranks.append(_rank(power))
            if ranks[-1] == ranks[-2]:
                break
            power = matmul(power, b)
        # blocks of size >= k: ranks[k-1] - ranks[k]
        at_least = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))] + [0]
        for k in range(1, len(at_least)):
            sizes += [k] * (at_least[k - 1] - at_least[k])
    return sorted(sizes, reverse=True)


def _is_zero(a):
    return all(v == ZERO for row in a for v in row)


def _add(a, b):
    return [[known._add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


@pytest.mark.parametrize("workload", sorted(inputs.SCHEDULES))
def test_generators_are_deterministic_per_seed(workload):
    first = inputs.make_round(workload, 3, 1)
    assert first == inputs.make_round(workload, 3, 1)
    assert inputs.digest(first) == inputs.digest(inputs.make_round(workload, 3, 1))
    assert inputs.digest(first) != inputs.digest(inputs.make_round(workload, 4, 1))
    assert inputs.digest(first) != inputs.digest(inputs.make_round(workload, 3, 2))
    assert [e["size"] for e in first] == [e["size"] for e in inputs.make_round(workload, 4, 1)]


@pytest.mark.parametrize("seed", [1, 2])
def test_semisimple_elements_are_members_with_their_spectrum(seed):
    for element in inputs.make_round("semisimple", seed, 0):
        ctx = element["ctx"]
        x = matrix_from_wire(element["matrix"])
        size = len(x)
        assert size == element["size"] == (2 * ctx["n"] if ctx["algebra"] == "sp" else ctx["n"])
        if ctx["algebra"] == "sl":
            trace = (sum(x[i][i][0] for i in range(size)), sum(x[i][i][1] for i in range(size)))
            assert trace == ZERO
        elif ctx["algebra"] == "so":
            assert _is_zero(_add(transpose(x), x))
        elif ctx["algebra"] == "sp":
            j = symplectic_form(ctx["n"])
            assert _is_zero(_add(matmul(transpose(x), j), matmul(j, x)))
        # diagonalizable with exactly the recorded spectrum
        spectrum = element["spectrum"]
        for value in set(spectrum):
            nullity = size - _rank(_shift(x, known.parse_gaussian(value)))
            assert nullity == spectrum.count(value), (element["cls"], value)


def test_semisimple_schedule_covers_every_verdict_kind():
    reasons = set()
    for element in inputs.make_round("semisimple", 1, 0):
        ctx = element["ctx"]
        reasons.add(known.expected_verdict(ctx["algebra"], ctx["group"], ctx["n"], element["spectrum"])[2])
    assert {"SpectrumAsymmetric", "NMod4", "ZeroEigenvalue", "PaperSilent", "SO2NotReal",
            "EvenMultiplicity", "OddMultiplicity", "ProjectiveAlwaysStrong"} <= reasons


@pytest.mark.parametrize("seed", [1, 2])
def test_sp_reverse_elements_are_members_with_their_jordan_type(seed):
    for element in inputs.make_round("sp-reverse", seed, 0):
        x = matrix_from_wire(element["matrix"])
        j = symplectic_form(len(x) // 2)
        assert _is_zero(_add(matmul(transpose(x), j), matmul(j, x)))
        assert _jordan_type(x, element["semisimple_eigenvalues"]) == element["partition"], element["cls"]


def test_similarity_nilpotent_class_is_nilpotent():
    for element in inputs.make_round("similarity-oracles", 5, 0):
        if element["cls"].startswith("nil-"):
            x = matrix_from_wire(element["matrix"])
            power = x
            for _ in range(len(x) - 1):
                power = matmul(power, x)
            assert _is_zero(power)


@pytest.mark.parametrize(
    "algebra, group, n, spectrum, verdict",
    [
        # README examples and table rows
        ("sl", "SL", 2, ["1", "-1"], ("yes", "no", "NMod4")),
        ("sl", "SL", 4, ["1", "-1", "2", "-2"], ("yes", "yes", "NMod4")),
        ("sl", "SL", 6, ["1", "-1", "2", "-2", "0", "0"], ("yes", "yes", "ZeroEigenvalue")),
        ("sl", "SL", 3, ["1", "1", "-2"], ("no", "no", "SpectrumAsymmetric")),
        ("sl", "PSL", 2, ["1", "-1"], ("yes", "yes", "ProjectiveAlwaysStrong")),
        ("gl", "GL", 2, ["1", "2"], ("no", "no", "SpectrumAsymmetric")),
        ("gl", "GL", 2, ["1*i", "-1*i"], ("yes", "yes", "SpectrumSymmetric")),
        ("so", "O", 2, ["1*i", "-1*i"], ("yes", "yes", "OrthogonalAlwaysStrong")),
        ("so", "SO", 2, ["1*i", "-1*i"], ("no", "no", "SO2NotReal")),
        ("so", "SO", 4, ["1*i", "-1*i", "2*i", "-2*i"], ("yes", "yes", "NMod4")),
        ("so", "SO", 6, ["i", "-i", "2*i", "-2*i", "1/2*i", "-1/2*i"], ("undetermined", "no", "PaperSilent")),
        ("so", "SO", 7, ["i", "-i", "2*i", "-2*i", "3*i", "-3*i", "0"], ("yes", "yes", "ZeroEigenvalue")),
        ("sp", "Sp", 2, ["1", "1", "-1", "-1"], ("yes", "yes", "EvenMultiplicity")),
        ("sp", "Sp", 2, ["1", "2", "-1", "-2"], ("yes", "no", "OddMultiplicity")),
        ("sp", "Sp", 2, ["0", "0", "1", "-1"], ("yes", "no", "OddMultiplicity")),
        ("sp", "PSp", 2, ["1", "2", "-1", "-2"], ("yes", "yes", "ProjectiveAlwaysStrong")),
        ("sl", "SL", 2, ["0", "0"], ("yes", "yes", "ZeroElement")),
    ],
)
def test_known_answer_table_matches_readme(algebra, group, n, spectrum, verdict):
    assert known.expected_verdict(algebra, group, n, spectrum) == verdict
    code = 0 if verdict[0] == "yes" else 1
    assert known.expected_exit_codes(verdict) == {"decide": code, "witness": code}


@pytest.mark.parametrize(
    "text, value",
    [("0", (0, 0)), ("2", (2, 0)), ("-1*i", (0, -1)), ("i", (0, 1)), ("1/2-3*i", (Fraction(1, 2), -3)),
     ("-2/3+1/4*i", (Fraction(-2, 3), Fraction(1, 4)))],
)
def test_parse_gaussian(text, value):
    assert known.parse_gaussian(text) == value


def _wire(rows):
    return {"rows": len(rows), "cols": len(rows[0]), "entries": rows}


def test_independent_reverser_check():
    x = _wire([["1", "0"], ["0", "-1"]])
    rotation = _wire([["0", "-1"], ["1", "0"]])
    swap = _wire([["0", "1"], ["1", "0"]])
    sl = {"algebra": "sl", "group": "SL", "n": 2}
    assert known.reverser_failures(x, rotation, sl, False) == []
    assert known.reverser_failures(x, rotation, sl, True) == ["g^2 != I"]
    assert known.reverser_failures(x, swap, sl, True) == ["det g != 1"]
    assert known.reverser_failures(x, swap, {**sl, "group": "GL"}, True) == []
    assert known.reverser_failures(x, _wire([["1", "0"], ["0", "1"]]), sl, False) == ["gX + Xg != 0"]


def test_self_time_on_synthetic_span_tree():
    # a [0, 10] holds b [1, 4] and d [5, 7] plus e [6, 8], which overlaps
    # d; b holds c [2, 3].  Self time subtracts the union of the children.
    tree = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["d", 5.0, 7.0, 0, 0],
        ["e", 6.0, 8.0, 0, 0],
        ["a", 8.5, 9.5, 0, 0],
    ]
    assert spans.self_times(tree) == [10 - 3 - 3 - 1, 2, 1, 2, 2, 1]
    self_sum, total = spans.summarize(tree)
    assert self_sum["a"] == 4 and total["a"] == 10  # nested "a" not counted twice
    within = spans.inclusive_within(tree)
    assert within[("a", "c")] == 1 and within[("b", "c")] == 1 and ("c", "a") not in within


def test_tracer_spans_with_fake_clock():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)

    def outer_fn():
        inner()
        inner()

    tracer.wrap("outer", outer_fn)()
    # outer [0, 5] holds inner [1, 2] and [3, 4]
    assert [s[:4] for s in tracer.spans] == [["outer", 0.0, 5.0, -1], ["inner", 1.0, 2.0, 0], ["inner", 3.0, 4.0, 0]]
    assert spans.self_times(tracer.spans) == [3.0, 1.0, 1.0]


def test_tracer_counts_repeat_and_install_restores():
    from adjreal import matrix, semisimple
    from adjreal.gaussian import GaussRat

    originals = (matrix.char_poly, semisimple.char_poly, GaussRat.__add__, matrix.ExactMatrix.from_json)
    x = matrix.ExactMatrix.from_rows([[GaussRat(1), GaussRat(2)], [GaussRat(3, 1), GaussRat(-1)]])
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert semisimple.char_poly is not originals[1]
            semisimple.char_poly(x)
        finally:
            tracer.uninstall()
        counts.append(dict(tracer.op_counts))
        assert tracer.calls["matrix.char_poly"] == 1 and tracer.calls["matrix.mul"] >= 1
    assert counts[0] == counts[1] and counts[0]["mul"] > 0
    assert (matrix.char_poly, semisimple.char_poly, GaussRat.__add__, matrix.ExactMatrix.from_json) == originals


def test_mix_percentile_weights_classes_equally():
    import run

    one_each = {"a": [4.0], "b": [1.0], "c": [3.0], "d": [2.0]}
    assert run.mix_percentile(one_each, 50) == 2.5
    assert run.mix_percentile(one_each, 0) == 1.0 and run.mix_percentile(one_each, 100) == 4.0
    assert run.mix_percentile(one_each, 75) == 3.5
    assert run.mix_percentile({"a": [0.7]}, 95) == 0.7
    # class b's two samples share its half of the weight: centres at
    # 0.125 (1.0), 0.375 (3.0) and 0.75 (10.0)
    uneven = {"a": [10.0], "b": [1.0, 3.0]}
    assert run.mix_percentile(uneven, 25) == 2.0
    assert run.mix_percentile(uneven, 50) == 3.0 + (0.5 - 0.375) / (0.75 - 0.375) * 7.0
    # a slow sample inside a class moves the tail
    assert run.mix_percentile({"a": [1.0, 1.0, 1.0, 9.0]}, 90) > run.mix_percentile({"a": [1.0] * 4}, 90)


def test_host_speed_scales_by_the_probes_inside_a_window():
    import gc

    import hostspeed

    host = hostspeed.HostSpeed()
    host.starts, host.durations = [1.0, 2.0, 3.0, 5.0], [0.0005, 0.0005, 0.00025, 0.0005]
    ref = hostspeed.REFERENCE_PROBE_S
    # speeds 1/0.0005 and 1/0.00025 average to 1/0.000375... as a harmonic mean
    assert host.probe_time(0.5, 3.5) == pytest.approx(3 / (2 / 0.0005 + 1 / 0.00025))
    assert host.reference_seconds(2.5, 4.5) == 2.0 * ref / 0.00025
    assert host.probe_time(3.5, 4.5) == pytest.approx(2 / (1 / 0.00025 + 1 / 0.0005))  # the two either side
    host.starts, host.durations = [], []
    host._sample(None, None)
    assert len(host.durations) == 1 and host.durations[0] > 0 and gc.isenabled()


def _similarity_outcome(element, **fields):
    from workloads import run_similarity

    outcome = run_similarity(element)
    assert outcome.problems == []
    for name, value in fields.items():
        setattr(outcome, name, value)
    return outcome


def test_reference_checks_pass_the_program_answers():
    from workloads import reference_mismatches

    elements = inputs.make_round("similarity-oracles", 2, 0)
    outcomes = [_similarity_outcome(e) for e in elements]
    assert reference_mismatches(elements, outcomes) == []
    # the constructed classes carry their known verdict, the random ones do not
    assert {e["cls"] for e in elements if e.get("similar_to_negative")} == {"nil-5", "pm-6", "nil-7", "pm-8"}
    assert {o.similar for e, o in zip(elements, outcomes) if e["cls"].startswith("rand-")} == {True, False}


def test_reference_checks_catch_a_fake_jordan_pair():
    from workloads import reference_mismatches

    # X = [[1, 1], [0, 1]] is not semisimple, so (X, 0) is a wrong answer
    # that still recombines to X, commutes and has a nilpotent part.
    element = {"cls": "rand-2", "size": 2, "matrix": _wire([["1", "1"], ["0", "1"]])}
    outcome = _similarity_outcome(element, semisimple_part=element["matrix"])
    assert reference_mismatches([element], [outcome]) == [(0, "jordan: semisimple part is not semisimple")]


def test_reference_checks_catch_a_wrong_similarity_verdict():
    from workloads import reference_mismatches

    for rows, similar in ((_wire([["1", "0"], ["0", "-1"]]), True), (_wire([["1", "1"], ["0", "2"]]), False)):
        element = {"cls": "rand-2", "size": 2, "matrix": rows}
        outcome = _similarity_outcome(element)
        assert outcome.similar is similar
        outcome.similar = not similar
        assert reference_mismatches([element], [outcome]) == [
            (0, f"similar to -X is {not similar}, expected {similar}")
        ]
    element = {"cls": "pm-2", "size": 2, "matrix": _wire([["1", "0"], ["0", "-1"]]), "similar_to_negative": True}
    assert reference_mismatches([element], [_similarity_outcome(element, similar=False)]) == [
        (0, "similar to -X is False, expected True")
    ]


def test_size_class_buckets():
    import run

    assert [run.size_class(n) for n in (2, 4, 5, 8, 12, 13)] == ["n_le4", "n_le4", "n_le6", "n_le8", "n_le12", "n_gt12"]
