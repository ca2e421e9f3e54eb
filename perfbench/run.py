"""Benchmark of the cishift package, one workload per invocation.

    python3 perfbench/run.py --workload sweep|deep_shift --seed N \\
                             --seconds S --trace 0|1 [--size full|tiny]

Run it from the root of a source checkout; the package is imported from
``src/``.  For about S seconds it starts rounds of the workload one after
another, each in a fresh single-threaded process (``child.py``), all on one
CPU.  A round builds its inputs from the seed, runs the workload's timed
part once and checks the outputs.  Every timing is corrected for the host's
speed by ``pace``: on a shared host, co-tenants slow the same code by up to
1.8x for seconds to minutes at a time, and a fixed probe run between
operations slows with it.  The run reports the median of its rounds.

* ``--trace 0`` also starts set-up-only processes before each round, each
  of which probes the host speed as it starts and once its inputs are
  ready; ``setup_s`` is their median.  It reports the end-to-end metrics.
* ``--trace 1`` alternates untraced and traced rounds and reports the
  per-layer metrics of the median traced round, plus the tracing overhead
  (median traced minus median untraced wall time).

It prints a report of every metric with its unit and sample count, then,
as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and the ``end_to_end`` (trace 0) or ``per_layer`` (trace 1)
metrics named in BENCHMARK.json.  ``--size tiny`` shrinks every workload
for the benchmark's own tests.  Exit code 2: no package under ``src/``;
1: a round crashed or overran.

The benchmark's tests: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SIZES = ("full", "tiny")

# a run must end well within 180 s, even when its last round overruns
HARD_LIMIT_S = 170.0

# set-up-only processes before each untraced round
SETUPS_PER_ROUND = 6

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "decide_p50_ms": "ms",
    "decide_p90_ms": "ms",
    "oracle_p50_ms": "ms",
    "oracle_p90_ms": "ms",
    "shift_p50_ms": "ms",
    "shift_p90_ms": "ms",
    "shift_growth": "ratio",
    "requery_ops_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "error_rate": "ratio",
    "semigroup.is_member.calls": "count",
    "semigroup.is_member.self_s": "s",
    "semigroup.find_representation.calls": "count",
    "semigroup.find_representation.self_s": "s",
    "semigroup.tables": "count",
    "semigroup.table_bytes": "bytes",
    "delorme.decide.calls": "count",
    "delorme.decide.self_s": "s",
    "delorme.member_probes_per_decide": "ratio",
    "delorme.memo_entries": "count",
    "delorme.verify.calls": "count",
    "delorme.verify.self_s": "s",
    "toricoracle.oracle.calls": "count",
    "toricoracle.oracle.self_s": "s",
    "toricoracle.degrees": "count",
    "shiftscan.calls": "count",
    "shiftscan.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


class RoundError(Exception):
    """A round process crashed, overran or printed no result."""


class Run:
    """The rounds of one invocation and the set-up times they measured."""

    def __init__(self, args: argparse.Namespace, hard_stop: float) -> None:
        self.args = args
        self.hard_stop = hard_stop
        self.setups: list[float] = []
        self.plain: list[dict] = []
        self.traced: list[dict] = []

    def spawn(self, *flags: str) -> dict:
        cmd = [sys.executable, str(HERE / "child.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--size", self.args.size, *flags]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1.0, self.hard_stop - spawned))
        except subprocess.TimeoutExpired:
            raise RoundError(f"round {' '.join(flags)} overran the run's time limit") from None
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise RoundError(f"round exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(lines[-1])
        result["setup_s"] = result["ready_at"] - spawned
        return result

    def setup(self) -> None:
        """Time one process from its start until its inputs are ready."""
        result = self.spawn("--setup-only")
        self.setups.append(pace.at_ref(result["setup_s"], *result["probes"]))

    def measure(self) -> None:
        deadline = time.monotonic() + self.args.seconds
        while True:
            began = time.monotonic()
            if not self.args.trace:
                for _ in range(SETUPS_PER_ROUND):
                    self.setup()
            self.plain.append(self.spawn())
            if self.args.trace:
                self.traced.append(self.spawn("--trace", "1"))
            now = time.monotonic()
            if now + (now - began) > deadline:
                return


def _wall(r: dict) -> float:
    return r["metrics"]["wall_s"]


def _median_round(rounds: list[dict]) -> dict:
    return sorted(rounds, key=_wall)[(len(rounds) - 1) // 2]


def summarize(run: Run) -> tuple[dict[str, float | None], dict[str, str]]:
    """Metric values and, for the report, their sample counts where they have one."""
    plain = statistics.median(_wall(r) for r in run.plain)
    if run.args.trace:
        traced = _median_round(run.traced)
        values = {**traced["layers"],
                  "trace.overhead_s": statistics.median(_wall(r) for r in run.traced) - plain}
        return values, {}
    values = {"setup_s": statistics.median(run.setups)}
    for name in run.plain[0]["metrics"]:
        values[name] = statistics.median(r["metrics"][name] for r in run.plain)
    notes = {name: f"{count} samples a round"
             for name, count in run.plain[0]["sample_counts"].items()}
    notes["setup_s"] = f"median of {len(run.setups)} process starts"
    return values, notes


def report(run: Run, values: dict, notes: dict, attempted: int, failed: int) -> None:
    args = run.args
    print(f"perfbench {args.workload} seed={args.seed} size={args.size} trace={args.trace}")
    for kind, rounds in (("untraced", run.plain), ("traced", run.traced)):
        if rounds:
            walls = ", ".join(f"{_wall(r):.3f}" for r in rounds)
            raw = ", ".join(f"{r['raw_wall_s']:.3f}" for r in rounds)
            print(f"  {len(rounds)} {kind} rounds, wall_s {walls} (uncorrected {raw})")
    print("  metrics of the median traced round:" if args.trace
          else "  medians of the untraced rounds:")
    for name, value in values.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:40s} {shown:>14s} {UNITS[name]:6s} {notes.get(name, '')}".rstrip())
    print(f"  {'error_rate':40s} {failed / attempted:>14.6g} {UNITS['error_rate']:6s} "
          f"{failed} failed of {attempted} attempted, all rounds")
    for r in run.plain + run.traced:
        for message in r["failures"]:
            print(f"  FAILED: {message}")
    absent = sorted({name for r in run.traced for name in r["absent"]})
    if absent:
        print(f"  not wrapped, absent in this version: {', '.join(absent)}")


def main(argv: list[str] | None = None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in manifest["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=SIZES)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "cishift" / "__init__.py").is_file():
        print(f"error: no cishift package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # one CPU for this process and every round, so that a round's probes
    # read the speed of the CPU its work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(args, time.monotonic() + HARD_LIMIT_S)
    try:
        run.measure()
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rounds = run.plain + run.traced
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    values, notes = summarize(run)
    report(run, values, notes, attempted, failed)
    wanted = [m["name"] for m in manifest["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # an absent cache holds no entries
        "metrics": {name: {"value": values[name] if values[name] is not None else 0,
                           "unit": UNITS[name]} for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
