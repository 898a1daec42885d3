#!/usr/bin/env python3
"""adicspec benchmark: one workload per process, one closed-loop client.

    python3 benchmark/run.py --workload cech --seed 1 --seconds 25 --trace 0

runs the ``cech`` workload for about 25 s of timed operations and prints a
report followed, on the last line, by one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` they are its per-layer metrics, taken by replaying in a
traced process exactly the rounds an untraced process completed.

    python3 benchmark/run.py --workload all --seconds 25

runs every workload in its own process and prints every end-to-end
metric, the error rate and the CLI cold start, by name and unit.

The library is imported from ``src/`` next to this directory and from
nowhere else; without it the benchmark exits with status 2.  See
``benchmark/NOTES.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DIGEST_ROUNDS = 2      # rounds covered by the seed-comparable digest
TAIL_BEYOND = 10       # samples beyond the reported tail percentile
SAMPLES = 9            # set-up probes and cold starts per run, each
CHILD_TIMEOUT = 170


class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without a result line."""


def load_library():
    """Import adicspec from this checkout's src/ and nowhere else."""
    if not (SRC / "adicspec" / "__init__.py").is_file():
        raise BenchError(f"no library at {SRC / 'adicspec'}")
    if sys.flags.optimize:
        raise BenchError("run without -O: the library's asserts are checks")
    sys.path.insert(0, str(SRC))
    import adicspec
    if Path(adicspec.__file__).resolve().parent != SRC / "adicspec":
        raise BenchError(f"adicspec imported from {adicspec.__file__}")
    sys.path.insert(0, str(HERE))
    import workloads
    return workloads


def child_env() -> dict:
    """Environment of every child: the checkout's library, asserts on,
    and byte code cached in the checkout as an installed package has it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONOPTIMIZE", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "adicspec").glob("*.py")))


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Phase:
    """Outcome of running whole rounds of one workload."""

    def __init__(self):
        self.times: list = []
        self.failures: list = []          # (op index, kind, reason)
        self.known_defects = 0
        self.rounds = 0
        self.prefix = hashlib.sha256()    # first DIGEST_ROUNDS rounds
        self.full = hashlib.sha256()      # every op of the phase
        self.prefix_ops = 0
        self.cli_exits: dict = {}         # exit class seen -> ops
        self.cli_unexpected = 0

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def unexpected_failures(self) -> list:
        return [f for f in self.failures if f[1] != "known-defect"]

    def summary(self) -> dict:
        return {"rounds": self.rounds, "attempted": self.attempted,
                "failed": len(self.failures), "op_seconds": sum(self.times),
                "digest": self.prefix.hexdigest(),
                "digest_ops": self.prefix_ops,
                "run_digest": self.full.hexdigest()}


def run_phase(workloads, name: str, seed: int, seconds: float,
              rounds: int | None = None, tracer=None,
              after_round=None) -> Phase:
    """Run whole rounds until ``seconds`` of op time and at least
    DIGEST_ROUNDS rounds are done, or exactly ``rounds`` rounds.
    ``after_round(op_seconds)`` runs, untimed, after every round."""
    wl, ops = new_workload(workloads, name, seed)
    ph = Phase()
    while True:
        for op in ops:
            index = ph.attempted
            if tracer is not None:
                tracer.begin_op()
            t0 = time.perf_counter()
            try:
                result = op.call()
                raised = None
            except Exception as exc:  # an op that raises is a failed op
                raised = exc
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op(dt)
            ph.times.append(dt)
            if raised is None:
                try:
                    ok, text = op.check(result)
                except Exception as exc:
                    ok, text = False, f"check raised {type(exc).__name__}"
            else:
                ok, text = False, f"raised {type(raised).__name__}"
            if name == "cli":
                seen = "raised" if raised else workloads.cli_exit_class(result)
                ph.cli_exits[seen] = ph.cli_exits.get(seen, 0) + 1
                ph.cli_unexpected += not ok
            if not ok:
                ph.failures.append((index, op.kind, text[:200]))
                if op.kind == "known-defect":
                    ph.known_defects += 1
            line = f"{op.kind}\t{text}\n".encode()
            ph.full.update(line)
            if ph.rounds < DIGEST_ROUNDS:
                ph.prefix.update(line)
                ph.prefix_ops += 1
        ph.rounds += 1
        if after_round is not None:
            after_round(sum(ph.times))
        if rounds is not None:
            if ph.rounds >= rounds:
                return ph
        elif sum(ph.times) >= seconds and ph.rounds >= DIGEST_ROUNDS:
            return ph
        ops = wl.next_round()


def new_workload(workloads, name: str, seed: int):
    wl = workloads.WORKLOADS[name](seed)
    return wl, wl.next_round()


def tail(times: list) -> tuple:
    """(value, percentile): the highest sample with TAIL_BEYOND samples
    beyond it, or the maximum when there are too few samples."""
    ordered = sorted(times)
    idx = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


# ---------------------------------------------------------------------------
# set-up and cold start, each in fresh processes
# ---------------------------------------------------------------------------

def probe_setup(name: str, seed: int) -> float:
    """Seconds from launching a workload process to its first timed op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                          cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=CHILD_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {line!r} {proc.returncode}")
    return elapsed


def cold_start_commands(workloads, seed: int) -> list:
    """README-sized eval command lines, fresh primes and points each."""
    fresh = workloads.Fresh(random.Random(f"cold:{seed}"))
    cmds = []
    for _ in range(SAMPLES):
        p = fresh.prime(11, 100000)
        cmds.append(["eval", "--point", f"ball:{fresh.center(p)},1",
                     "--poly", fresh.poly(3), "-p", str(p)])
    return cmds


def cold_start(args: list) -> tuple:
    """(seconds, ok) of one ``python -m adicspec.cli`` launch."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "adicspec.cli", *args],
                          capture_output=True, env=child_env(), cwd=ROOT,
                          timeout=CHILD_TIMEOUT)
    elapsed = time.perf_counter() - t0
    return elapsed, proc.returncode == 0 and bool(proc.stdout.strip())


class Sampler:
    """Takes the set-up and cold-start samples spread over the timed
    phase, one pair each time the op time passes the next mark, so that
    they see the same machine conditions as the ops."""

    def __init__(self, workloads, name: str, seed: int, seconds: float):
        self.name, self.seed = name, seed
        self.marks = [seconds * (i + 0.5) / SAMPLES for i in range(SAMPLES)]
        self.commands = cold_start_commands(workloads, seed)
        self.setups, self.colds, self.cold_failures = [], [], []
        # untimed warm-up: the first launch writes the byte-code cache
        probe_setup(name, seed)
        cold_start(self.commands[0])

    def take(self) -> None:
        self.setups.append(probe_setup(self.name, self.seed))
        args = self.commands[len(self.colds)]
        elapsed, ok = cold_start(args)
        self.colds.append(elapsed)
        if not ok:
            self.cold_failures.append(" ".join(args))

    def __call__(self, op_seconds: float) -> None:
        while len(self.setups) < SAMPLES and \
                self.marks[len(self.setups)] <= op_seconds:
            self.take()

    def finish(self) -> None:
        while len(self.setups) < SAMPLES:
            self.take()


# ---------------------------------------------------------------------------
# the three modes
# ---------------------------------------------------------------------------

def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def untraced(workloads, name: str, seed: int, seconds: float) -> tuple:
    sampler = Sampler(workloads, name, seed, seconds)
    ph = run_phase(workloads, name, seed, seconds, after_round=sampler)
    sampler.finish()
    tail_s, tail_pct = tail(ph.times)
    values = {
        "ops_per_s": ph.attempted / sum(ph.times),
        "op_p50_ms": statistics.median(ph.times) * 1000,
        "op_tail_ms": tail_s * 1000,
        "setup_s": statistics.median(sampler.setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # reported, not gated: see NOTES.md
    info = {
        "error_rate": len(ph.failures) / ph.attempted,
        "cold_start_ms": statistics.median(sampler.colds) * 1000,
        "tail_percentile": tail_pct, "tail_samples": ph.attempted,
        "setup_samples_s": sampler.setups,
        "cold_start_samples_ms": [t * 1000 for t in sampler.colds],
        "cold_start_failures": sampler.cold_failures,
    }
    correct = not ph.unexpected_failures and not sampler.cold_failures
    return ph, values, info, correct


def traced(workloads, name: str, seed: int, seconds: float) -> tuple:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--phase-only"]
    proc = subprocess.run(cmd, capture_output=True, env=child_env(), cwd=ROOT,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError(f"untraced phase failed: {proc.stderr.decode()[-500:]}")
    base = json.loads(proc.stdout.decode().strip().splitlines()[-1])

    from layertrace import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        ph = run_phase(workloads, name, seed, seconds, rounds=base["rounds"],
                       tracer=tracer)
    finally:
        tracer.uninstall()
    values = layer_values(name, ph, tracer, base["op_seconds"])
    op_s = sum(ph.times)
    mine = ph.summary()
    same = (mine["run_digest"] == base["run_digest"]
            and mine["attempted"] == base["attempted"]
            and mine["failed"] == base["failed"])
    info = {"untraced": base, "traced_digest": mine["run_digest"],
            "digest_unchanged_by_tracing": same,
            "untraced_ops_per_s": base["attempted"] / base["op_seconds"],
            "traced_ops_per_s": ph.attempted / op_s,
            "unreachable": tracer.unreachable, "missing": tracer.missing,
            "rebinding_sites": tracer.sites}
    correct = same and not ph.unexpected_failures and not tracer.missing
    return ph, values, info, correct


def layer_values(name: str, ph: Phase, tracer, untraced_op_seconds: float) -> dict:
    """Per-layer figures of a traced phase, by metric name."""
    values = tracer.metrics()
    is_cli = name == "cli"
    values.update({
        "cli.invocations": ph.attempted if is_cli else 0,
        "cli.self_s": tracer.outside_s if is_cli else 0.0,
        "cli.exit_1": ph.cli_exits.get("domain", 0),
        "cli.exit_2": ph.cli_exits.get("usage", 0),
        "cli.unexpected": ph.cli_unexpected,
        "trace.ops": ph.attempted,
        "trace.overhead_ratio": sum(ph.times) / untraced_op_seconds,
        "trace.unreachable": len(tracer.unreachable),
    })
    return values


def result_line(ph: Phase, values: dict, metrics: list, correct: bool) -> tuple:
    missing = [m["name"] for m in metrics if m["name"] not in values]
    out = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
           for m in metrics if m["name"] in values}
    return json.dumps({"correct": bool(correct and not missing),
                       "attempted": ph.attempted,
                       "failed": len(ph.failures), "metrics": out}), missing


def run_one(args) -> int:
    workloads = load_library()
    if args.setup_probe:
        new_workload(workloads, args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.phase_only:
        ph = run_phase(workloads, args.workload, args.seed, args.seconds)
        print(json.dumps(ph.summary()))
        return 0
    bench = spec()
    if args.trace:
        ph, values, info, correct = traced(workloads, args.workload,
                                           args.seed, args.seconds)
        metrics = bench["per_layer"]
    else:
        ph, values, info, correct = untraced(workloads, args.workload,
                                             args.seed, args.seconds)
        metrics = bench["end_to_end"]
    line, missing = result_line(ph, values, metrics, correct)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{ph.attempted} ops in {ph.rounds} rounds, "
          f"{sum(ph.times):.3f} s of op time")
    for m in metrics:
        if m["name"] in values:
            print(f"  {m['name']:<44} {values[m['name']]:>14.6g} {m['unit']}")
    for name in missing:
        print(f"  {name:<44} MISSING")
    if not args.trace:
        print(f"  {'error_rate':<44} {info['error_rate']:>14.6g} ratio")
        print(f"  {'cold_start_ms':<44} {info['cold_start_ms']:>14.6g} ms")
    detail = {"workload": args.workload, "seed": args.seed,
              "digest": ph.prefix.hexdigest(), "digest_ops": ph.prefix_ops,
              "digest_rounds": DIGEST_ROUNDS, "run_digest": ph.full.hexdigest(),
              "known_defect_failures": ph.known_defects,
              "unexpected_failures": ph.unexpected_failures[:20],
              "src_lines": src_lines(), **info}
    print("detail " + json.dumps(detail, sort_keys=True))
    print(line)
    return 0


def run_all(args) -> int:
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    rows = []
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            raise BenchError(f"{name} failed: {proc.stderr[-500:]}")
        lines = proc.stdout.strip().splitlines()
        detail = json.loads(lines[-2][len("detail "):])
        rows.append((name, json.loads(lines[-1]), detail))
    print(f"{'metric':<16} {'unit':<6}" + "".join(f"{n:>14}" for n in names))
    for m in bench["end_to_end"]:
        print(f"{m['name']:<16} {m['unit']:<6}" + "".join(
            f"{r[1]['metrics'][m['name']]['value']:>14.6g}" for r in rows))
    for key, unit in (("error_rate", "ratio"), ("cold_start_ms", "ms")):
        print(f"{key:<16} {unit:<6}" + "".join(
            f"{r[2][key]:>14.6g}" for r in rows))
    print(f"{'tail_percentile':<16} {'%':<6}" + "".join(
        f"{r[2]['tail_percentile']:>14.4g}" for r in rows))
    print(f"{'ops':<16} {'count':<6}" + "".join(
        f"{r[1]['attempted']:>14}" for r in rows))
    print(f"{'correct':<16} {'':<6}" + "".join(
        f"{str(r[1]['correct']):>14}" for r in rows))
    print(f"src/ lines: {rows[0][2]['src_lines']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cech", "disc", "spv", "cli", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--phase-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
