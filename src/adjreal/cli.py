"""Command-line interface: decide, witness, verify, jordan, sl2, chains,
search, selftest.

All input and output is JSON with exact scalar strings; nothing is ever
rounded.  Exit codes: 0 for an affirmative result, 1 for a verified
negative / undetermined / not-found result (details in the JSON), 2 for
input errors and failed certificate verification.

Each command imports the modules it runs in its own body, so a shell
invocation loads only those; ``main`` looks its handler up by name when
it runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import (
    AdjRealError,
    NotRealizable,
    ParseError,
    SearchSpaceTooLarge,
    SpectrumNotSplit,
)


def _load_json_arg(text: str):
    """Accept inline JSON or a path to a JSON file."""
    text = text.strip()
    inline = text.startswith(("{", "["))
    try:
        if inline:
            return json.loads(text)
        with open(text, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {text}: {exc}") from exc
    # ValueError covers bad JSON and bad UTF-8; too deep a nesting
    # exhausts the decoder's recursion
    except (ValueError, RecursionError) as exc:
        where = "inline JSON" if inline else f"JSON in {text}"
        raise ParseError(f"bad {where}: {exc}") from exc


def _emit(payload, out_path: str | None = None, indent: int | None = 2) -> None:
    """Print payload as JSON and write the same text to out_path, if any."""
    text = json.dumps(payload, indent=indent, sort_keys=True)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ParseError(f"cannot write {out_path}: {exc}") from exc
    print(text)


def _matrix(args):
    from .matrix import ExactMatrix

    return ExactMatrix.from_json(_load_json_arg(args.matrix))


def _matrix_and_context(args):
    from .liecore import LieContext

    ctx = LieContext.from_json(_load_json_arg(args.ctx))
    return _matrix(args), ctx


def _cmd_decide(args) -> int:
    from .semisimple import decide_semisimple

    mat, ctx = _matrix_and_context(args)
    verdict = decide_semisimple(mat, ctx)
    _emit(verdict.to_json(), args.out)
    return 0 if verdict.is_real == "yes" else 1


def _refuse(exc: AdjRealError, out_path: str | None) -> int:
    """Emit a refusal with a null witness; exit 1."""
    _emit({"witness": None, "error": type(exc).__name__, "message": str(exc)}, out_path)
    return 1


def _cmd_witness(args) -> int:
    from .semisimple import witness_general_semisimple

    mat, ctx = _matrix_and_context(args)
    try:
        cert = witness_general_semisimple(mat, ctx, args.involution)
    except (NotRealizable, SpectrumNotSplit) as exc:
        return _refuse(exc, args.out)
    _emit(cert.to_json(), args.out)
    return 0


def _cmd_verify(args) -> int:
    from .certificates import ReverserCertificate, verify_certificate

    cert = ReverserCertificate.from_json(_load_json_arg(args.certificate))
    report = verify_certificate(cert)
    _emit(report.to_json(), args.out)
    return 0 if report.ok else 2


def _cmd_jordan(args) -> int:
    from .jordan import jordan_chevalley

    _emit(jordan_chevalley(_matrix(args)).to_json(), args.out)
    return 0


def _cmd_sl2(args) -> int:
    from .symplectic import sl2_triple

    _emit(sl2_triple(_matrix(args)).to_json(), args.out)
    return 0


def _cmd_chains(args) -> int:
    from .symplectic import chain_decomposition

    _emit(chain_decomposition(_matrix(args)).to_json(), args.out)
    return 0


def _cmd_reverse(args) -> int:
    from .symplectic import reverse_full

    mat = _matrix(args)
    try:
        cert = reverse_full(mat)
    except SpectrumNotSplit as exc:
        return _refuse(exc, args.out)
    _emit(cert.to_json(), args.out)
    return 0


def _cmd_search(args) -> int:
    from .oracle import search_reverser

    if args.height < 1:
        raise ParseError(f"--height must be at least 1, got {args.height}")
    mat, ctx = _matrix_and_context(args)
    try:
        outcome = search_reverser(mat, ctx, args.height, args.involution)
    except SearchSpaceTooLarge as exc:
        _emit(
            {"outcome": "aborted", "error": "SearchSpaceTooLarge", "message": str(exc)},
            args.out,
        )
        return 2
    _emit(outcome.to_json(), args.out)
    return 0 if outcome.found else 1


def _cmd_selftest(args) -> int:
    from .acceptance import CRITERIA, run_all, run_criterion

    if args.criterion is not None:
        if not 1 <= args.criterion <= CRITERIA:
            raise ParseError(
                f"--criterion must be in 1-{CRITERIA}, got {args.criterion}"
            )
        results = [run_criterion(args.criterion, args.seed)]
    else:
        results = run_all(args.seed)
    for res in results:
        print(res.line())
    return 0 if all(r.passed for r in results) else 1


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors raise ParseError, so they take the JSON
    error path (exit 2) like every other input error; ``--help`` still
    prints and exits 0."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="adjreal",
        description=(
            "Decide adjoint reality in the classical complex Lie algebras "
            "and produce exactly verified reverser certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, ctx=True, matrix=True):
        if ctx:
            p.add_argument("--ctx", required=True, help="context JSON or file path")
        if matrix:
            p.add_argument("--matrix", required=True, help="matrix JSON or file path")
        p.add_argument("--out", help="also write the JSON result to this file")

    p = sub.add_parser("decide", help="reality verdict for a semisimple element")
    add_common(p)

    p = sub.add_parser("witness", help="construct a certified reverser")
    add_common(p)
    p.add_argument("--involution", action="store_true", help="demand g^2 = I")

    p = sub.add_parser("verify", help="check a reverser certificate exactly")
    p.add_argument("certificate", help="certificate JSON or file path")
    p.add_argument("--out", help="also write the JSON result to this file")

    p = sub.add_parser("jordan", help="semisimple + nilpotent decomposition")
    add_common(p, ctx=False)

    p = sub.add_parser("sl2", help="complete a nilpotent element of sp(n) to a triple")
    add_common(p, ctx=False)

    p = sub.add_parser("chains", help="chain data for a nilpotent element of sp(n)")
    add_common(p, ctx=False)

    p = sub.add_parser("reverse", help="reverser for an arbitrary element of sp(n)")
    add_common(p, ctx=False)

    p = sub.add_parser("search", help="brute-force reverser search (evidence only)")
    add_common(p)
    p.add_argument("--height", type=int, default=2, help="coefficient height bound")
    p.add_argument("--involution", action="store_true")

    p = sub.add_parser("selftest", help="run the acceptance suites")
    p.add_argument("--criterion", type=int, help="run a single criterion")
    p.add_argument("--seed", type=int, help="override the SEED environment variable")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    out = None
    try:
        args = _parser().parse_args(argv)
        out = getattr(args, "out", None)
        return globals()[f"_cmd_{args.command}"](args)
    except AdjRealError as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
    try:
        _emit(error, out, indent=None)
    except ParseError as exc:  # --out itself cannot be written
        _emit({"error": "ParseError", "message": str(exc)}, indent=None)
    return 2


if __name__ == "__main__":
    sys.exit(main())
