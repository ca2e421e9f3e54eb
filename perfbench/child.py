"""One benchmark round in a fresh process; run.py starts it, one round at a time.

    python3 perfbench/child.py --workload NAME --seed N --size full|tiny
                               [--trace 0|1] [--setup-only]

It imports the package from ``src/``, builds the workload's inputs, notes
when they are ready, runs the timed part once, checks its outputs and
prints one JSON object.  ``wall_s`` and ``ops_per_s`` are at the reference
host speed of ``pace``; ``raw_wall_s`` is the plain wall time.  A fresh
process per round keeps cold timings cold and gives each round its own peak
RSS.  ``--trace 1`` wraps the package's public functions in spans, reports
per-layer numbers and writes the spans to
``perfbench/out/spans-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import pace  # noqa: E402

# host speed at the start of set-up, read on this process's own CPU
_t0 = time.monotonic()
START_PROBE = pace.steady_probe()
START_PROBE_S = time.monotonic() - _t0

import workloads  # noqa: E402
from tracer import NullTracer, Tracer  # noqa: E402

from cishift import delorme, semigroup  # noqa: E402

# the traced spans must account for the traced wall time to this share
COVERAGE_TOLERANCE = 0.01


def _cache_size(module, name: str, measure) -> float | None:
    """Size of a module-level cache, or None when this version has no such cache."""
    cache = getattr(module, name, None)
    return None if cache is None else measure(cache)


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float | None]:
    totals = tracer.kind_totals()

    def calls(kind: str) -> int:
        return totals.get(kind, (0, 0.0))[0]

    def self_s(kind: str) -> float:
        return totals.get(kind, (0, 0.0))[1]

    decides = calls("delorme.decide")
    probes = tracer.child_calls("semigroup.is_member", "delorme.decide")
    bench = sum(s for kind, (_, s) in totals.items() if kind.startswith("bench."))
    covered = sum(s for _, s in totals.values())
    return {
        "semigroup.is_member.calls": calls("semigroup.is_member"),
        "semigroup.is_member.self_s": self_s("semigroup.is_member"),
        "semigroup.find_representation.calls": calls("semigroup.find_representation"),
        "semigroup.find_representation.self_s": self_s("semigroup.find_representation"),
        "semigroup.tables": _cache_size(semigroup, "_MEMBER_TABLES", len),
        "semigroup.table_bytes": _cache_size(
            semigroup, "_MEMBER_TABLES", lambda c: sum(len(t) for t in c.values())),
        "delorme.decide.calls": decides,
        "delorme.decide.self_s": self_s("delorme.decide"),
        "delorme.member_probes_per_decide": probes / decides if decides else 0.0,
        "delorme.memo_entries": _cache_size(delorme, "_CI_MEMO", len),
        "delorme.verify.calls": calls("delorme.verify"),
        "delorme.verify.self_s": self_s("delorme.verify"),
        "toricoracle.oracle.calls": calls("toricoracle.oracle"),
        "toricoracle.oracle.self_s": self_s("toricoracle.oracle"),
        "toricoracle.degrees": tracer.degrees,
        "shiftscan.calls": calls("shiftscan"),
        "shiftscan.self_s": self_s("shiftscan"),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "bench.self_s": bench,
        "trace.wall_s": wall,
        "trace.coverage": covered / wall,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    size = workloads.SIZES[args.size]
    inputs = workloads.make_inputs(args.workload, args.seed, size)
    result: dict = {"ready_at": time.monotonic() - START_PROBE_S}
    if args.setup_only:
        result["probes"] = [START_PROBE, pace.steady_probe()]
        print(json.dumps(result))
        return 0

    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        tracer.install()
    t0 = time.perf_counter()
    out = workloads.run(args.workload, inputs, size, args.seed, tracer)
    wall = time.perf_counter() - t0
    if args.trace:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer, wall)
        result["absent"] = tracer.absent
        coverage = result["layers"]["trace.coverage"]
        if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
            out.fail(f"layer and benchmark self times cover {coverage:.4f} of the traced wall time")
        misnested = tracer.misnested()
        if misnested:
            out.fail(f"{misnested} spans end after their parent")
        tracer.save(HERE / "out" / f"spans-{args.workload}.npz")

    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(
        attempted=out.attempted,
        failed=out.failed,
        failures=out.failures,
        sample_counts=out.sample_counts,
        raw_wall_s=out.clock.raw_s,
        metrics={
            **out.metrics,
            "wall_s": out.clock.ref_s,
            "ops_per_s": out.attempted / out.clock.ref_s,
            "peak_rss_mb": rss_mib,
        },
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
