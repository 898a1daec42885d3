#!/usr/bin/env python3
"""Time the rows of the ROADMAP baseline table, once each.

    python3 benchmark/baseline_rows.py

prints a markdown table (row, workload that covers it, seconds).  These
are single wall-clock readings for orientation, not benchmark metrics;
the benchmark's own figures come from run.py.
"""

import contextlib
import io
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


def timed(fn) -> float:
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0


def cli(*args):
    subprocess.run([sys.executable, "-m", "adicspec.cli", *args], check=True,
                   capture_output=True, cwd=ROOT,
                   env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""})


def main() -> None:
    import test_acceptance as acc
    from adicspec import disc, spectral, tate, valuation

    chain = spectral.finite_space(range(16), [(i, i + 1) for i in range(15)])
    rows = [
        ("criterion 9 (Cech full vs alternating, 50 presheaves)", "cech",
         acc.test_criterion_09_quasi_isomorphism),
        ("criterion 5 (rational intersection)", "disc",
         acc.test_criterion_05_rational_intersection),
        ("criterion 6 (retraction)", "spv", acc.test_criterion_06_retraction),
        ("criterion 7 (factorization)", "spv",
         acc.test_criterion_07_factorization),
    ]
    rows += [(f"`cech-laurent --f T^2-5 -p 5`, N = {n} (subprocess)", "cli",
              lambda n=n: cli("cech-laurent", "--f", "T^2-5", "-N", str(n),
                              "-p", "5"))
             for n in (100, 200, 400)]
    rows += [
        ("`eval --point ball:1/3,1/2 --poly '(T+1)^400' -p 5` (in-process)",
         "cli, disc", lambda: disc.eval_at(disc.ball(5, "1/3", "1/2"),
                                           tate.parse_series("(T+1)^400", 5))),
        ("`PadicContext(10^12+39)`, per construction", "cli",
         lambda: tate.PadicContext(10 ** 12 + 39)),
    ]
    rows += [(f"`spv_enumerate(Z, {b})`", "spv",
              lambda b=b: spectral.spv_enumerate(valuation.RING_Z, b))
             for b in (1000, 3000, 6000)]
    rows += [("`is_sober` on a 16-point chain", "spv",
              lambda: spectral.is_sober(chain))]
    print("| ROADMAP row | covered by | seconds |")
    print("| --- | --- | --- |")
    for label, workload, fn in rows:
        print(f"| {label} | {workload} | {timed(fn):.3f} |", flush=True)


if __name__ == "__main__":
    main()
