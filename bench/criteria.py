"""Wall time of each acceptance criterion, run once; not a gated workload.

    [SEED=0] python3 bench/criteria.py

Times ``adjreal.acceptance.run_criterion(k)`` for criteria 1 to 8 in one
process, after the import, and prints one line per criterion followed by
a JSON summary.  The seed comes from the ``SEED`` environment variable, as
for the acceptance suite.  The whole set takes minutes with the pure-Python
rational backend, too long to repeat as a benchmark workload.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if not (SRC / "adjreal" / "__init__.py").is_file():
        print(f"error: no adjreal package at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from adjreal import gaussian
    from adjreal.acceptance import _seed, run_criterion

    rows = []
    for k in range(1, 9):
        start = time.perf_counter()
        result = run_criterion(k)
        elapsed = time.perf_counter() - start
        rows.append({"criterion": k, "seconds": elapsed, "passed": result.passed})
        print(f"criterion {k}: {elapsed:.2f} s {'pass' if result.passed else 'FAIL'}", flush=True)
    print(
        json.dumps(
            {
                "seed": _seed(),
                "rational_backend": gaussian.rational(1).__class__.__module__,
                "python": platform.python_version(),
                "total_s": sum(r["seconds"] for r in rows),
                "criteria": rows,
            }
        )
    )
    return 0 if all(r["passed"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
