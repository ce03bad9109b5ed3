"""Command-line surface: JSON round trips, exit codes, fresh-process
verification of produced certificates."""

import contextlib
import io
import json
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from adjreal.cli import main
from adjreal.gaussian import gr
from adjreal.matrix import ExactMatrix
from adjreal.symplectic import nilpotent_from_partition

SL2_CTX = '{"algebra":"sl","group":"SL","n":2}'


def _matrix_file(tmp_path, name, matrix):
    path = tmp_path / name
    path.write_text(json.dumps(matrix.to_json()))
    return str(path)


def _run_main(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_decide_exit_codes_and_payload(tmp_path, capsys):
    mfile = _matrix_file(tmp_path, "h.json", ExactMatrix.diagonal([1, -1]))
    code, payload = _run_main(capsys, ["decide", "--ctx", SL2_CTX, "--matrix", mfile])
    assert code == 0
    assert payload["real"] == "yes"
    assert payload["strongly_real"] == "no"
    assert payload["reason"] == "NMod4"


def test_decide_negative_exit_code(tmp_path, capsys):
    mfile = _matrix_file(tmp_path, "h.json", ExactMatrix.diagonal([gr(1), gr(-2)]))
    ctx = '{"algebra":"gl","group":"GL","n":2}'
    code, payload = _run_main(capsys, ["decide", "--ctx", ctx, "--matrix", mfile])
    assert code == 1
    assert payload["real"] == "no"


def test_size_mismatch_message_shows_the_context_repr(capsys):
    """The one place a class repr reaches CLI output: the context in the
    SizeMismatch message."""
    x = json.dumps(ExactMatrix.identity(3).to_json())
    code, payload = _run_main(capsys, ["decide", "--ctx", SL2_CTX, "--matrix", x])
    assert code == 2
    assert payload == {
        "error": "SizeMismatch",
        "message": "expected a 2x2 matrix for LieContext(algebra='sl', group='SL', n=2)",
    }


def test_witness_then_verify_same_process(tmp_path, capsys):
    mfile = _matrix_file(
        tmp_path, "h.json", ExactMatrix.diagonal([gr(1), gr(2), gr(-1), gr(-2)])
    )
    ctx = '{"algebra":"sl","group":"SL","n":4}'
    cert_file = str(tmp_path / "cert.json")
    code, payload = _run_main(
        capsys,
        ["witness", "--ctx", ctx, "--matrix", mfile, "--involution", "--out", cert_file],
    )
    assert code == 0
    assert payload["claims_involution"] is True
    code, report = _run_main(capsys, ["verify", cert_file])
    assert code == 0
    assert report["verified"] is True


def test_witness_verify_fresh_process(tmp_path):
    mfile = _matrix_file(
        tmp_path, "h.json", ExactMatrix.diagonal([gr(1), gr(2), gr(-1), gr(-2)])
    )
    ctx = '{"algebra":"sl","group":"SL","n":4}'
    cert_file = str(tmp_path / "cert.json")
    run = subprocess.run(
        [sys.executable, "-m", "adjreal.cli", "witness", "--ctx", ctx,
         "--matrix", mfile, "--involution", "--out", cert_file],
        capture_output=True, text=True,
    )
    assert run.returncode == 0
    run = subprocess.run(
        [sys.executable, "-m", "adjreal.cli", "verify", cert_file],
        capture_output=True, text=True,
    )
    assert run.returncode == 0
    assert json.loads(run.stdout)["verified"] is True


def test_witness_with_64_bit_prime_eigenvalues_is_fast(tmp_path):
    """diag(a, -a) with a = (2^64 - 59)(2^64 - 83), a product of two
    primes: the eigenvalues are found without factoring a, so witness
    answers well inside the timeout (a factoring root search would take
    hours)."""
    a = (2**64 - 59) * (2**64 - 83)
    mfile = _matrix_file(tmp_path, "h.json", ExactMatrix.diagonal([gr(a), gr(-a)]))
    cert_file = str(tmp_path / "cert.json")
    run = subprocess.run(
        [sys.executable, "-m", "adjreal.cli", "witness", "--ctx", SL2_CTX,
         "--matrix", mfile, "--out", cert_file],
        capture_output=True, text=True, timeout=30,
    )
    assert run.returncode == 0
    run = subprocess.run(
        [sys.executable, "-m", "adjreal.cli", "verify", cert_file],
        capture_output=True, text=True, timeout=30,
    )
    assert run.returncode == 0
    assert json.loads(run.stdout)["verified"] is True


def test_results_past_the_int_digit_limit_round_trip(tmp_path):
    """[[3, -6a], [0, -3]] in sl(2) with a = 10^3000 + 7: the reverser has
    entries of about 6,000 digits, past the 4,300 digits to which Python
    caps int <-> str conversion by default.  witness still prints its
    certificate and verify parses it back."""
    a = 10**3000 + 7
    x = ExactMatrix.from_rows([[3, -6 * a], [0, -3]])
    mfile = _matrix_file(tmp_path, "x.json", x)
    cert_file = str(tmp_path / "cert.json")
    run = subprocess.run(
        [sys.executable, "-m", "adjreal.cli", "witness", "--ctx", SL2_CTX,
         "--matrix", mfile, "--out", cert_file],
        capture_output=True, text=True, timeout=30,
    )
    assert run.returncode == 0, run.stderr
    entries = json.loads(run.stdout)["reverser"]["entries"]
    assert max(len(e) for row in entries for e in row) > 4300
    run = subprocess.run(
        [sys.executable, "-m", "adjreal.cli", "verify", cert_file],
        capture_output=True, text=True, timeout=30,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["verified"] is True


def _one_gib_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _search_in_one_gib(*argv):
    run = subprocess.run(
        [sys.executable, "-m", "adjreal.cli", "search", *argv],
        capture_output=True, text=True, timeout=30,
        preexec_fn=_one_gib_address_space,
    )
    assert "Traceback" not in run.stderr
    return run.returncode, json.loads(run.stdout)


def test_search_builds_no_pool_for_an_empty_anticommutant():
    """diag(1, 2) in gl(2) anticommutes only with 0: one candidate, and no
    height pool (about 2.4e13 scalars at height 2000) to read."""
    code, out = _search_in_one_gib(
        "--ctx", '{"algebra":"gl","group":"GL","n":2}',
        "--matrix", '{"rows":2,"cols":2,"entries":[["1","0"],["0","2"]]}',
        "--height", "2000",
    )
    assert code == 1
    assert out["outcome"] == "exhausted"
    assert out["candidates_checked"] == 1


def test_search_refuses_a_huge_pool_before_counting_it():
    """At height 100000 the (2h+1)^2 Gaussian integers alone put the
    involution count past the limit, so nothing is counted or built."""
    code, out = _search_in_one_gib(
        "--ctx", SL2_CTX,
        "--matrix", '{"rows":2,"cols":2,"entries":[["1","0"],["0","-1"]]}',
        "--height", "100000", "--involution",
    )
    assert code == 2
    assert out["error"] == "SearchSpaceTooLarge"


def test_verify_tampered_certificate_exit_two(tmp_path, capsys):
    mfile = _matrix_file(tmp_path, "h.json", ExactMatrix.diagonal([1, -1]))
    cert_file = str(tmp_path / "cert.json")
    code, _ = _run_main(
        capsys, ["witness", "--ctx", SL2_CTX, "--matrix", mfile, "--out", cert_file]
    )
    assert code == 0
    blob = json.loads(open(cert_file).read())
    blob["reverser"]["entries"][0][0] = "7"
    bad_file = str(tmp_path / "bad.json")
    open(bad_file, "w").write(json.dumps(blob))
    code, report = _run_main(capsys, ["verify", bad_file])
    assert code == 2
    assert report["verified"] is False
    assert any("Anticonjugation" in f for f in report["failures"])


def test_denied_witness_exit_one(tmp_path, capsys):
    mfile = _matrix_file(tmp_path, "h.json", ExactMatrix.diagonal([1, -1]))
    code, payload = _run_main(
        capsys, ["witness", "--ctx", SL2_CTX, "--matrix", mfile, "--involution"]
    )
    assert code == 1
    assert payload["error"] == "NotRealizable"


def test_out_is_rewritten_by_refusals_and_errors(tmp_path, capsys):
    """Every JSON document printed after the arguments parse also goes to
    --out, so a refusal or an error never leaves an older certificate
    there to be verified."""
    out = str(tmp_path / "c.json")
    good = _matrix_file(tmp_path, "h.json", ExactMatrix.diagonal([1, -1]))
    code, _ = _run_main(capsys, ["witness", "--ctx", SL2_CTX, "--matrix", good, "--out", out])
    assert code == 0
    refused = _matrix_file(tmp_path, "h2.json", ExactMatrix.diagonal([2, -2]))
    argv = ["witness", "--ctx", SL2_CTX, "--matrix", refused, "--involution", "--out", out]
    code, payload = _run_main(capsys, argv)
    assert code == 1
    with open(out, encoding="utf-8") as fh:
        assert json.load(fh) == payload
    code, _ = _run_main(capsys, ["verify", out])
    assert code == 2
    # a typed error after parsing (an unreadable matrix) is written too
    code, payload = _run_main(
        capsys, ["decide", "--ctx", SL2_CTX, "--matrix", "/nonexistent.json", "--out", out]
    )
    assert code == 2
    with open(out, encoding="utf-8") as fh:
        assert json.load(fh) == payload == {"error": "ParseError", "message": payload["message"]}


def test_unwritable_out_is_a_json_parse_error(tmp_path, capsys):
    out = str(tmp_path / "missing" / "c.json")
    mfile = _matrix_file(tmp_path, "h.json", ExactMatrix.diagonal([1, -1]))
    for matrix in (mfile, "/nonexistent.json"):
        code, payload = _run_main(
            capsys, ["decide", "--ctx", SL2_CTX, "--matrix", matrix, "--out", out]
        )
        assert code == 2
        assert payload["error"] == "ParseError"
        assert "cannot write" in payload["message"]


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    from adjreal import cli

    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1))
    for _ in range(3):
        _run_main(capsys, ["decide", "--ctx", SL2_CTX, "--matrix", "/nonexistent.json"])
    assert built == []


def test_handler_is_looked_up_when_main_runs(monkeypatch, capsys):
    """A handler rebound after the cached parser is built still runs."""
    from adjreal import cli

    cli._parser()
    seen = []
    monkeypatch.setattr(cli, "_cmd_decide", lambda args: seen.append(args.command) or 7)
    assert main(["decide", "--ctx", SL2_CTX, "--matrix", "/nonexistent.json"]) == 7
    assert seen == ["decide"]
    assert capsys.readouterr().out == ""


# what each command must leave unloaded, in a fresh interpreter
_NOT_LOADED = {
    "decide": {"acceptance", "oracle", "symplectic", "jordan"},
    "witness": {"acceptance", "oracle", "symplectic", "jordan"},
    "verify": {"acceptance", "oracle", "symplectic", "jordan"},
    "reverse": {"acceptance", "oracle"},
    "jordan": {"acceptance", "oracle", "symplectic", "semisimple", "liecore"},
    "sl2": {"acceptance", "oracle"},
    "chains": {"acceptance", "oracle"},
    "search": {"acceptance", "symplectic", "semisimple", "jordan"},
    "selftest": set(),
    "--help": {"semisimple"},
}

_LOADED_AFTER = """
import contextlib, io, json, sys
from adjreal.cli import main
code = None  # --help exits from inside main
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("adjreal")),
                  sorted({"dataclasses", "inspect"} & set(sys.modules))]))
"""


@pytest.mark.parametrize("command", list(_NOT_LOADED))
def test_each_command_loads_only_its_modules(command, tmp_path, capsys):
    sl4 = '{"algebra":"sl","group":"SL","n":4}'
    h4 = json.dumps(ExactMatrix.diagonal([gr(1), gr(2), gr(-1), gr(-2)]).to_json())
    n22 = json.dumps(nilpotent_from_partition([2, 2]).to_json())
    cert = str(tmp_path / "cert.json")
    assert main(["witness", "--ctx", sl4, "--matrix", h4, "--out", cert]) == 0
    capsys.readouterr()
    argv = {
        "decide": ["decide", "--ctx", sl4, "--matrix", h4],
        "witness": ["witness", "--ctx", sl4, "--matrix", h4],
        "verify": ["verify", cert],
        "reverse": ["reverse", "--matrix", n22],
        "jordan": ["jordan", "--matrix", n22],
        "sl2": ["sl2", "--matrix", n22],
        "chains": ["chains", "--matrix", n22],
        "search": ["search", "--ctx", sl4, "--matrix", h4, "--height", "1"],
        "selftest": ["selftest", "--criterion", "4"],
        "--help": ["--help"],
    }[command]
    run = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER, *argv], capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    code, modules, slow_imports = json.loads(run.stdout)
    assert code == (None if command == "--help" else 0)
    assert slow_imports == []  # dataclasses pulls in inspect, ast, dis, tokenize
    loaded = {name.removeprefix("adjreal.") for name in modules}
    assert "cli" in loaded
    assert loaded.isdisjoint(_NOT_LOADED[command])


def test_parse_error_exit_two(capsys):
    code, payload = _run_main(
        capsys, ["decide", "--ctx", SL2_CTX, "--matrix", "/nonexistent.json"]
    )
    assert code == 2
    assert payload["error"] == "ParseError"


def test_jordan_chains_sl2_commands(tmp_path, capsys):
    x = nilpotent_from_partition([2, 2])
    mfile = _matrix_file(tmp_path, "n.json", x)
    code, payload = _run_main(capsys, ["sl2", "--matrix", mfile])
    assert code == 0
    assert set(payload) == {"x", "h", "y"}
    code, payload = _run_main(capsys, ["chains", "--matrix", mfile])
    assert code == 0
    assert payload["parts"] == [2]
    code, payload = _run_main(capsys, ["jordan", "--matrix", mfile])
    assert code == 0
    nil = ExactMatrix.from_json(payload["nilpotent_part"])
    assert nil == x


def test_reverse_command(tmp_path, capsys):
    x = nilpotent_from_partition([2])
    mfile = _matrix_file(tmp_path, "n.json", x)
    code, payload = _run_main(capsys, ["reverse", "--matrix", mfile])
    assert code == 0
    cert_file = str(tmp_path / "rcert.json")
    open(cert_file, "w").write(json.dumps(payload))
    code, report = _run_main(capsys, ["verify", cert_file])
    assert code == 0 and report["verified"]


def test_reverse_command_irrational_semisimple_exit_one(tmp_path, capsys):
    a = ExactMatrix.from_rows([[0, 1], [2, 0]])
    xs = ExactMatrix.block_diagonal([a, -a.transpose()])
    mfile = _matrix_file(tmp_path, "irr.json", xs)
    code, payload = _run_main(capsys, ["reverse", "--matrix", mfile])
    assert code == 1
    assert payload["error"] == "SpectrumNotSplit"


def test_search_command_exhausted_exit_one(tmp_path, capsys):
    mfile = _matrix_file(tmp_path, "h.json", ExactMatrix.diagonal([gr(3), gr(-3)]))
    ctx = '{"algebra":"sp","group":"Sp","n":1}'
    code, payload = _run_main(
        capsys,
        ["search", "--ctx", ctx, "--matrix", mfile, "--height", "3", "--involution"],
    )
    assert code == 1
    assert payload["outcome"] == "exhausted"


def test_selftest_single_criterion(capsys):
    code = main(["selftest", "--criterion", "2", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("PASS criterion 2")


def test_matrix_round_trip_canonical_strings(tmp_path, capsys):
    x = ExactMatrix.from_rows([[gr("1/2") - gr(0, 3), gr(0)], [gr(0), gr(0, 3) - gr("1/2")]])
    mfile = _matrix_file(tmp_path, "m.json", x)
    code, payload = _run_main(capsys, ["jordan", "--matrix", mfile])
    assert code == 0
    assert ExactMatrix.from_json(payload["semisimple_part"]) == x


_ROTATION_CERT = json.dumps({
    "element": {"rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "-1"]]},
    "reverser": {"rows": 2, "cols": 2, "entries": [["0", "1"], ["-1", "0"]]},
    "context": {"algebra": "sl", "group": "SL", "n": 2},
    "claims_involution": "false",
})
_GL1_CTX = '{"algebra":"gl","group":"GL","n":1}'
_ONE_BY_ONE = '{"rows":1,"cols":1,"entries":[["1"]]}'
# stands for a file whose first byte is 0xff, written by the test
_BAD_UTF8_FILE = "<bad-utf8-file>"
# nested past the decoder's recursion limit, yet one argument stays under
# the kernel's 128 KiB per-argument cap
_DEEP_JSON = "[" * 50000 + "]" * 50000
_SP1_ARGS = ["--ctx", '{"algebra":"sp","group":"Sp","n":1}',
             "--matrix", '{"rows":2,"cols":2,"entries":[["3","0"],["0","-3"]]}']


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", _ROTATION_CERT],
        ["jordan", "--matrix", '{"rows":2,"cols":2,"entries":[[1,0],[0,-1]]}'],
        ["selftest", "--criterion", "9"],
        ["selftest", "--criterion", "0"],
        ["search", *_SP1_ARGS, "--height", "-1"],
        ["search", *_SP1_ARGS, "--height", "0"],
        ["decide", "--ctx", '{"algebra":"gl","group":"GL","n":true}',
         "--matrix", _ONE_BY_ONE],
        ["decide", "--ctx", '{"algebra":"gl","group":"GL","n":1.0}',
         "--matrix", _ONE_BY_ONE],
        ["decide", "--ctx", _GL1_CTX,
         "--matrix", '{"rows":1.9,"cols":1,"entries":[["1"]]}'],
        ["decide", "--ctx", _GL1_CTX,
         "--matrix", '{"rows":1,"cols":"1","entries":[["1"]]}'],
        ["decide", "--ctx", _GL1_CTX,
         "--matrix", '{"rows":true,"cols":1,"entries":[["1"]]}'],
        ["decide", "--ctx", _BAD_UTF8_FILE, "--matrix", _ONE_BY_ONE],
        ["decide", "--ctx", _DEEP_JSON, "--matrix", _ONE_BY_ONE],
    ],
    ids=["claim-string", "integer-entries", "criterion-9", "criterion-0",
         "height-minus-1", "height-0", "n-true", "n-float", "rows-float",
         "cols-string", "rows-true", "file-not-utf8", "nesting-too-deep"],
)
def test_bad_input_is_a_json_parse_error(argv, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff{}")
    argv = [str(bad) if a == _BAD_UTF8_FILE else a for a in argv]
    run = subprocess.run(
        [sys.executable, "-m", "adjreal.cli", *argv], capture_output=True, text=True
    )
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert json.loads(run.stdout)["error"] == "ParseError"


@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "--ctx", "null", "--matrix", "-1e+16"],
        ["verify", "-1e+16"],
        ["decide", "--ctx", _GL1_CTX],
        ["search", *_SP1_ARGS, "--height", "two"],
        ["transpose"],
        [],
    ],
    ids=["option-like-value", "option-like-positional", "missing-option",
         "non-integer-option", "unknown-command", "no-command"],
)
def test_usage_errors_are_a_json_parse_error(argv):
    run = subprocess.run(
        [sys.executable, "-m", "adjreal.cli", *argv], capture_output=True, text=True
    )
    assert run.returncode == 2
    assert run.stderr == ""
    assert json.loads(run.stdout)["error"] == "ParseError"


def test_help_still_prints_usage():
    run = subprocess.run(
        [sys.executable, "-m", "adjreal.cli", "decide", "--help"],
        capture_output=True, text=True,
    )
    assert run.returncode == 0
    assert run.stdout.startswith("usage: adjreal decide")


# -- fuzzed JSON input ------------------------------------------------------------

_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats()
    | st.text(max_size=6)
)
_JSON = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=8,
)
_SCALARS = st.sampled_from(
    ["0", "1", "-1", "2", "i", "-i", "1/2-3*i", "3*i", "1e5", "1.5", "1_000",
     "+-1", "1/0", "", " ", "x", "1+2", "3i", "--1", "NaN", "1" * 40]
) | st.text(alphabet="0123456789+-/*i .e_", max_size=6)


@st.composite
def _matrix_json(draw):
    """Mostly well-formed matrices with hostile entries and shapes."""
    if draw(st.integers(0, 4)) == 0:
        return draw(_JSON)
    rows = draw(st.integers(0, 4))
    cols = draw(st.sampled_from([rows, rows, rows + 1]))
    grid = [[draw(_SCALARS) for _ in range(cols)] for _ in range(rows)]
    doc = {"rows": rows, "cols": cols, "entries": grid}
    if draw(st.booleans()):
        doc[draw(st.sampled_from(["rows", "cols", "entries"]))] = draw(_JSON)
    return doc


@st.composite
def _ctx_json(draw):
    if draw(st.integers(0, 4)) == 0:
        return draw(_JSON)
    return {
        "algebra": draw(st.sampled_from(["gl", "sl", "so", "sp", "su", 3])),
        "group": draw(st.sampled_from(["GL", "SL", "O", "SO", "Sp", "PSL", "PSp", "U"])),
        "n": draw(st.integers(-1, 4) | st.floats() | _JSON),
    }


@st.composite
def _fuzzed_argv(draw):
    command = draw(st.sampled_from(["decide", "witness", "verify"]))
    ctx, mat = draw(_ctx_json()), draw(_matrix_json())
    if command != "verify":
        extra = ["--involution"] if command == "witness" and draw(st.booleans()) else []
        # --opt=value, so that argparse takes a leading "-" as part of the value
        return [command, f"--ctx={json.dumps(ctx)}", f"--matrix={json.dumps(mat)}", *extra]
    cert = {
        "element": mat,
        "reverser": draw(_matrix_json()),
        "context": ctx,
        "claims_involution": draw(st.booleans() | _JSON),
    }
    if draw(st.integers(0, 4)) == 0:
        cert = draw(_JSON)
    return ["verify", json.dumps(cert)]


@settings(max_examples=300, deadline=None)
@given(_fuzzed_argv())
def test_fuzzed_json_gets_an_exit_code_and_json(argv):
    """Malformed matrix, context or certificate JSON never escapes as a
    traceback: the exit code is 0, 1 or 2 and stdout is JSON."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code in (0, 1, 2)
    json.loads(buf.getvalue())
