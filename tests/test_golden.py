"""Golden corpus: exit code and exact stdout of the CLI on fixed small
inputs, replayed through in-process ``cli.main``.

``golden_cli.json`` holds, per case, the argv (inline JSON only, so no
files are involved), the exit code and stdout byte for byte.  Any change
to a verdict, witness, certificate or message shows up here.

The inputs come from ``_build_cases``; the recorded outputs are kept as
they are unless an output change is intended, in which case run
``python tests/test_golden.py`` (with ``src`` on the path) to rewrite the
file and review the diff.
"""

import contextlib
import io
import json
import pathlib

import pytest

from adjreal.cli import main

DATA = pathlib.Path(__file__).with_name("golden_cli.json")


def _replay(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


_CASES = {} if __name__ == "__main__" else json.loads(DATA.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(_CASES))
def test_golden_output(name):
    case = _CASES[name]
    code, out = _replay(case["argv"])
    assert code == case["code"]
    assert out == case["stdout"]


# -- building the corpus ---------------------------------------------------------


def _build_cases():
    """name -> argv of every case; matrices are small (n <= 6) and the
    conjugators unimodular, orthogonal or symplectic with entries +-1."""
    from adjreal.gaussian import GaussRat, ONE, ZERO, gr
    from adjreal.matrix import ExactMatrix, inverse
    from adjreal.symplectic import mixed_from_partition, nilpotent_from_partition

    def wire(m):
        return json.dumps(m.to_json(), separators=(",", ":"))

    def ctx(algebra, group, n):
        return json.dumps({"algebra": algebra, "group": group, "n": n})

    def conj_unimodular(x, steps):
        # P X P^-1, P a product of transvections I + c E_ij in a fixed pattern
        n = x.rows
        for k in range(steps):
            i, j = k % n, (3 * k + 1) % n
            if i == j:
                j = (j + 1) % n
            c = ONE if k % 2 == 0 else -ONE
            e = ExactMatrix.identity(n).with_entry(i, j, c)
            x = e * x * inverse(e)
        return x

    def reflection(v):
        q = sum((a * a for a in v), ZERO)
        two_over_q = GaussRat(2) / q
        n = len(v)
        return ExactMatrix.from_rows(
            [[(ONE if i == j else ZERO) - two_over_q * v[i] * v[j] for j in range(n)]
             for i in range(n)]
        )

    def conj_orthogonal(x):
        n = x.rows
        v = [ONE if k < 3 else ZERO for k in range(n)]
        v[1] = -ONE
        r = reflection(v)
        return r * x * r

    def transvection(n, v, c):
        vj = [v[k + n] if k < n else -v[k - n] for k in range(2 * n)]
        return ExactMatrix.from_rows(
            [[(ONE if i == j else ZERO) + c * v[i] * vj[j] for j in range(2 * n)]
             for i in range(2 * n)]
        )

    def conj_symplectic(x, steps):
        n = x.rows // 2
        for k in range(steps):
            v = [ZERO] * (2 * n)
            v[k % (2 * n)] = ONE
            v[(k + n + 1) % (2 * n)] = ONE if k % 2 else -ONE
            x = transvection(n, v, ONE) * x * transvection(n, v, -ONE)
        return x

    def so_blocks(params, zeros):
        size = 2 * len(params) + zeros
        rows = [[ZERO] * size for _ in range(size)]
        for b, a in enumerate(params):
            rows[2 * b][2 * b + 1] = a
            rows[2 * b + 1][2 * b] = -a
        return ExactMatrix.from_rows(rows)

    def sp_diag(values):
        return ExactMatrix.diagonal(list(values) + [-v for v in values])

    semisimple = {
        "gl3": (ctx("gl", "GL", 3), conj_unimodular(ExactMatrix.diagonal([2, -2, 0]), 4)),
        "gl2-no": (ctx("gl", "GL", 2), ExactMatrix.diagonal([gr(1), gr(-2)])),
        "sl4": (ctx("sl", "SL", 4),
                conj_unimodular(ExactMatrix.diagonal([1, 2, -1, -2]), 5)),
        "sl3-gauss": (ctx("sl", "SL", 3),
                      conj_unimodular(ExactMatrix.diagonal([gr(0, 1), gr(0, -1), 0]), 4)),
        "psl2": (ctx("sl", "PSL", 2), conj_unimodular(ExactMatrix.diagonal([3, -3]), 2)),
        "so4": (ctx("so", "SO", 4), conj_orthogonal(so_blocks([gr(1), gr(2)], 0))),
        "o5": (ctx("so", "O", 5), conj_orthogonal(so_blocks([gr(1), gr("1/2")], 1))),
        "sp2": (ctx("sp", "Sp", 2), conj_symplectic(sp_diag([gr(1), gr(2)]), 3)),
        "psp3": (ctx("sp", "PSp", 3),
                 conj_symplectic(sp_diag([gr(1), gr(1), gr(0, 2)]), 4)),
        # an Sp involution granted by even multiplicities, and PSL with an
        # odd number of zero eigenvalues (the reverser takes a power of i)
        "sp3": (ctx("sp", "Sp", 3), conj_symplectic(sp_diag([gr(1), gr(1), ZERO]), 4)),
        "psl3": (ctx("sl", "PSL", 3), conj_unimodular(ExactMatrix.diagonal([1, -1, 0]), 3)),
        "psl5": (ctx("sl", "PSL", 5),
                 conj_unimodular(ExactMatrix.diagonal([1, -1, 2, -2, 0]), 4)),
    }
    cases = {}
    for name, (c, x) in semisimple.items():
        cases[f"decide-{name}"] = ["decide", "--ctx", c, "--matrix", wire(x)]
        cases[f"witness-{name}"] = ["witness", "--ctx", c, "--matrix", wire(x)]
        cases[f"witness-inv-{name}"] = [
            "witness", "--ctx", c, "--matrix", wire(x), "--involution"
        ]

    # an irrational spectrum: decided, but no witness over Q(i)
    irr = conj_unimodular(ExactMatrix.from_rows([[0, 1], [2, 0]]), 2)
    cases["decide-sl2-irrational"] = ["decide", "--ctx", ctx("sl", "SL", 2),
                                      "--matrix", wire(irr)]
    cases["witness-sl2-irrational"] = ["witness", "--ctx", ctx("sl", "SL", 2),
                                       "--matrix", wire(irr)]
    a = ExactMatrix.from_rows([[0, 1], [2, 0]])
    cases["reverse-sp2-irrational"] = [
        "reverse", "--matrix", wire(ExactMatrix.block_diagonal([a, -a.transpose()]))
    ]

    sp_elements = {
        "nil-2-2": nilpotent_from_partition([2, 2]),
        "nil-4": nilpotent_from_partition([4]),
        "nil-3-3": nilpotent_from_partition([3, 3]),
        "nil-2-1-1": nilpotent_from_partition([2, 1, 1]),
        "mixed-2-2": mixed_from_partition([2, 2], {2: [gr(1)]})[0],
        "mixed-1-1-1-1": mixed_from_partition([1, 1, 1, 1], {1: [gr(2), gr(0, 1)]})[0],
        "mixed-3-3": mixed_from_partition([3, 3], {3: [gr(-1)]})[0],
    }
    for name, x in sp_elements.items():
        cases[f"reverse-{name}"] = ["reverse", "--matrix", wire(x)]
        cases[f"jordan-{name}"] = ["jordan", "--matrix", wire(x)]
    for name in ("nil-2-2", "nil-4", "nil-3-3", "nil-2-1-1"):
        x = wire(sp_elements[name])
        cases[f"sl2-{name}"] = ["sl2", "--matrix", x]
        cases[f"chains-{name}"] = ["chains", "--matrix", x]
    # a 4-dimensional kernel whose eigenspace basis is not symplectically
    # paired, and an odd part of multiplicity 4 whose heads need clearing
    v = [gr(e) for e in (-1, 0, 1, -1, 0, 1, -1, 0)]
    sp4_kernel = (transvection(4, v, -ONE) * ExactMatrix.diagonal([0, 0, 1, 1, 0, 0, -1, -1])
                  * transvection(4, v, ONE))
    cases["witness-sp4-kernel"] = ["witness", "--ctx", ctx("sp", "Sp", 4),
                                   "--matrix", wire(sp4_kernel)]
    cases["reverse-sp4-kernel"] = ["reverse", "--matrix", wire(sp4_kernel)]
    v = [gr(e) for e in (1, 0, 1, 0, 1, 1, 1, 1, -1, 0)]
    nil61111 = (transvection(5, v, ONE) * nilpotent_from_partition([6, 1, 1, 1, 1])
                * transvection(5, v, -ONE))
    cases["chains-nil-6-1-1-1-1-conjugated"] = ["chains", "--matrix", wire(nil61111)]
    cases["jordan-gl3-mixed"] = [
        "jordan", "--matrix",
        wire(conj_unimodular(ExactMatrix.from_rows([[2, 1, 0], [0, 2, 0], [0, 0, -1]]), 3)),
    ]
    # two Newton steps on a dense 8x8; a characteristic polynomial with
    # denominators 2 and 3
    mixed8 = mixed_from_partition([3, 3, 1, 1], {3: [gr(1)], 1: [gr(0, 1)]})[0]
    cases["jordan-sp4-mixed-3-3-1-1"] = ["jordan", "--matrix", wire(conj_symplectic(mixed8, 5))]
    half, third = gr("1/2"), gr(0, "1/3")
    cases["jordan-gl3-nonintegral"] = [
        "jordan", "--matrix",
        wire(conj_unimodular(
            ExactMatrix.from_rows([[half, ONE, ZERO], [ZERO, half, ZERO], [ZERO, ZERO, third]]), 3
        )),
    ]

    # verify: a produced certificate, and the same one tampered with
    c, x = semisimple["sl4"]
    code, out = _replay(["witness", "--ctx", c, "--matrix", wire(x)])
    assert code == 0
    cert = json.loads(out)
    cases["verify-sl4"] = ["verify", json.dumps(cert)]
    cert["reverser"]["entries"][0][0] = "7"
    cases["verify-sl4-tampered"] = ["verify", json.dumps(cert)]
    code, out = _replay(["reverse", "--matrix", wire(sp_elements["mixed-2-2"])])
    assert code == 0
    cases["verify-reverse-mixed-2-2"] = ["verify", out]

    sp1 = ["--ctx", ctx("sp", "Sp", 1), "--matrix", wire(ExactMatrix.diagonal([3, -3]))]
    sl2 = ["--ctx", ctx("sl", "SL", 2), "--matrix", wire(ExactMatrix.diagonal([1, -1]))]
    cases["search-sp1-inv-exhausted"] = ["search", *sp1, "--height", "2", "--involution"]
    cases["search-sl2-found"] = ["search", *sl2, "--height", "1"]
    cases["search-sl2-inv-exhausted"] = ["search", *sl2, "--height", "1", "--involution"]
    cases["search-sl2-too-large"] = ["search", *sl2, "--height", "9"]
    return cases


def _write():
    record = {}
    for name, argv in sorted(_build_cases().items()):
        code, out = _replay(argv)
        record[name] = {"argv": argv, "code": code, "stdout": out}
    DATA.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _write()
