"""Tests of the benchmark itself (not collected by the library's suite).

    python3 -m pytest benchmark/test_benchmark.py -q

They check the results digest (repeats for a seed across processes,
differs for another seed, unchanged by tracing), the bypass predictions
as counts, the cli error-path contract and the shape of the result line.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

WORKLOADS = run.load_library()
NAMES = ("cech", "disc", "spv", "cli")
SPEC = run.spec()


def phase_summary(name, seed):
    """Digest of the first rounds, from a fresh process (its own hash seed)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
         str(seed), "--seconds", "0", "--phase-only"],
        capture_output=True, text=True, env=run.child_env(), timeout=170,
        check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_phase(name, seed, rounds):
    from layertrace import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        ph = run.run_phase(WORKLOADS, name, seed, 0, rounds=rounds,
                           tracer=tracer)
    finally:
        tracer.uninstall()
    return ph, tracer


@pytest.mark.parametrize("name", NAMES)
def test_digest_repeats_for_a_seed_and_differs_for_another(name):
    a, b = phase_summary(name, 11), phase_summary(name, 11)
    assert a["rounds"] == b["rounds"] == run.DIGEST_ROUNDS
    assert a["digest"] == b["digest"]
    assert a["digest"] != phase_summary(name, 12)["digest"]


@pytest.mark.parametrize("name", NAMES)
def test_tracing_leaves_results_unchanged_and_bypasses_hold(name):
    plain = run.run_phase(WORKLOADS, name, 5, 0, rounds=run.DIGEST_ROUNDS)
    ph, tracer = traced_phase(name, 5, run.DIGEST_ROUNDS)
    assert ph.full.hexdigest() == plain.full.hexdigest()
    assert not tracer.missing
    assert "valuation._ORDER_KEY -> ordgroup.group_cmp" in tracer.unreachable
    values = run.layer_values(name, ph, tracer, sum(plain.times))
    assert {m["name"] for m in SPEC["per_layer"]} <= set(values)
    if name in ("disc", "spv"):
        assert values["linalg.rank.calls"] == 0
    if name == "cech":
        assert values["polys.taylor_shift.calls"] == 0
        assert values["disc.eval_at.calls"] == 0
        assert values["linalg.rank.calls"] > 0
        assert 0 < values["linalg.rank.nonzero_ratio"] < 1
    if name == "disc":
        assert values["polys.taylor_shift.repeat_ratio"] > 0.5
    if name == "cli":
        assert values["polys.taylor_shift.calls"] > 0
        assert values["polys.taylor_shift.repeat_ratio"] == 0


def test_names_imported_elsewhere_are_rebound():
    from layertrace import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        from adicspec import cech, disc, value
        assert cech.rank.__wrapped__ is not None
        assert disc.generates_unit_ideal.__wrapped__ is not None
        assert value.group_cmp.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert "cech.rank" in tracer.sites["linalg.rank"]
    assert "value.group_cmp" in tracer.sites["ordgroup.group_cmp"]
    assert not hasattr(cech.rank, "__wrapped__")


def test_cli_fails_only_on_the_declared_known_defects():
    ph = run.run_phase(WORKLOADS, "cli", 3, 0, rounds=run.DIGEST_ROUNDS)
    rounds = run.DIGEST_ROUNDS
    assert not ph.unexpected_failures
    assert ph.known_defects <= 2 * rounds
    assert ph.cli_exits["domain"] == 2 * rounds
    # a fixed known defect ends in exit 2 like the other usage errors
    assert ph.cli_exits["usage"] == 4 * rounds - ph.known_defects


def test_tail_has_ten_samples_beyond_it():
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0
    assert run.tail([1.0, 2.0]) == (1.0, 50.0)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_metric(trace, key):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "spv", "--seed",
         "2", "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert [*result["metrics"]] == [m["name"] for m in SPEC[key]]
    for m in SPEC[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
