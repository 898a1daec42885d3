"""Tier-1 guard for the benchmark's tracer (benchmark/layertrace.py).

The tracer rebinds library functions by name and reads rank's argument as
rows of numbers.  Renaming or deleting a traced helper, or passing rank
something the tracer cannot read, would otherwise fail only the benchmark.
"""

import sys
import time
from pathlib import Path

BENCHMARK = str(Path(__file__).resolve().parents[1] / "benchmark")


def test_tracer_finds_every_name_and_reads_rank_sparsely():
    sys.path.insert(0, BENCHMARK)
    try:
        from layertrace import Tracer
        from workloads import CechWorkload
    finally:
        sys.path.remove(BENCHMARK)
    tracer = Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
        for op in CechWorkload(seed=1).next_round():
            tracer.begin_op()
            t0 = time.perf_counter()
            result = op.call()
            tracer.end_op(time.perf_counter() - t0)
            assert op.check(result)[0]
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["linalg.rank.calls"] > 0
    assert 0 < metrics["linalg.rank.nonzero_ratio"] < 1
