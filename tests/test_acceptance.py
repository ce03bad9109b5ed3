"""The eight end-to-end acceptance suites, one test per criterion.

Every assertion inside the suites is zero-tolerance exact arithmetic;
each test prints its criterion's PASS/FAIL line and, at seed 0, checks
it against the pinned ``adjreal selftest`` text.  Seeded via the SEED
environment variable (default 0).
"""

import os

import pytest

from adjreal.acceptance import run_criterion


def _seed():
    return int(os.environ.get("SEED", "0"))


# ``adjreal selftest`` at seed 0, byte for byte
SEED0_LINES = [
    "PASS criterion 1 (special linear suite): 350 spectra across n=2..8",
    "PASS criterion 2 (determinant obstruction): n=2: 48 involutions, all det -1; "
    "n=6: 110592 involutions, all det -1",
    "PASS criterion 3 (orthogonal suite): 96 canonical elements across n=2..9; "
    "rank-2 dichotomy reproduced",
    "PASS criterion 4 (symplectic semisimple suite): 48 spectra across n=1..4; "
    "symbolic obstruction machine-checked",
    "PASS criterion 5 (nilpotent chain suite): 47 partitions of 2n <= 10, "
    "all chain invariants exact",
    "PASS criterion 6 (full symplectic suite): 100 mixed elements, "
    "decomposition and reverser exact",
    "PASS criterion 7 (cross-oracle suite): 500/500 matrices agree; "
    "chain and product identities exact",
    "PASS criterion 8 (projective suite): 90 projective elements, "
    "all squares central scalars",
]


@pytest.mark.parametrize("number", range(1, 9))
def test_acceptance_criterion(number, capsys):
    result = run_criterion(number, _seed())
    with capsys.disabled():
        print(f"\n{result.line()}")
    assert result.passed, result.detail
    if _seed() == 0:
        assert result.line() == SEED0_LINES[number - 1]
