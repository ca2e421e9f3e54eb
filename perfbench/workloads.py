"""Seeded inputs, timed passes and correctness gates of the benchmark workloads.

* ``sweep``: the criterion-08 cross-check at reduced size.  Split search in
  ``delorme`` and the numpy engine of ``toricoracle`` do the work, and
  membership values stay tiny.  The cold pass fills the decider memo and the
  warm pass only reads it.
* ``deep_shift``: the paper's shift families at j-levels 1e3, 1e4 and 1e5,
  decided by ``ci_at`` and then again through ``cishift scan``.  Membership
  tables in ``semigroup`` dominate and grow with j; split search stays small
  because no sequence is longer than 5, and the oracle is not called.

Each workload bypasses the layer the other stresses, so an optimization of
one layer predicts no change on the other workload.

Every operation goes through ``Outcome.timed``, which also lets the round's
``pace.Clock`` probe the host speed between operations.

Inputs are built from the seed by this module alone, without calling the
library, so the library's caches are cold when the timed part starts.  All
library calls go through module attributes so that a traced round sees them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from math import ceil, gcd

from cishift import cli, delorme, seqcore, shiftscan, toricoracle
from cishift.seqcore import BaseSequence, GeneratorSequence
from pace import Clock

# the seed whose sweep CI count is recorded in Size.sweep_ci_at_recorded_seed
RECORDED_SEED = 1729

DEEP_BASES = ((11, 16, 28), (5, 13, 17, 28), (4, 18), (3, 8, 20))

# `cishift scan` refuses the 1e5 windows under its default budget
SCAN_CAP = "1000000000"


@dataclass(frozen=True)
class Size:
    sweep_top: int  # exhaustive lengths 3 and 4 over 1..sweep_top
    sweep_random: int  # seeded length-5 sequences over 1..60
    sweep_ci_exhaustive: int  # recorded CI count of the exhaustive part
    sweep_ci_at_recorded_seed: int  # recorded CI count of the whole list
    deep_levels: tuple[int, ...]


SIZES = {
    "full": Size(30, 200, 16740, 16807, (1000, 10000, 100000)),
    "tiny": Size(12, 20, 542, 550, (1000, 2000)),
}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def make_inputs(workload: str, seed: int, size: Size) -> dict:
    """The workload's inputs; the same seed always gives equal inputs."""
    rng = random.Random(seed)
    if workload == "sweep":
        seqs = [
            comb
            for n in (3, 4)
            for comb in itertools.combinations(range(1, size.sweep_top + 1), n)
            if gcd(*comb) == 1
        ]
        exhaustive = len(seqs)
        seqs += [tuple(sorted(rng.sample(range(1, 61), 5))) for _ in range(size.sweep_random)]
        return {"seqs": [GeneratorSequence(s) for s in seqs], "exhaustive": exhaustive}
    if workload == "deep_shift":
        windows = []
        for level in size.deep_levels:
            for base in DEEP_BASES:
                an = base[-1]
                j0 = level + rng.randrange(100)
                windows.append((base, level, j0 + 1, j0 + an))
                windows.append((base, level, j0 + an + 1, j0 + 2 * an))
        return {"windows": windows}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# one round
# ---------------------------------------------------------------------------

FAILED = object()  # result of an operation that raised


@dataclass
class Outcome:
    """Operations attempted, failed checks and exceptions, latency samples."""

    clock: Clock = field(default_factory=Clock)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    metrics: dict[str, float] = field(default_factory=dict)
    sample_counts: dict[str, int] = field(default_factory=dict)  # per latency metric

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)

    def timed(self, kind: str, fn, *args):
        """Call one library operation, record its latency, count an exception as failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.fail(f"{kind}{args!r} raised {exc!r}")
            return FAILED
        finally:
            self.samples[kind].append(time.perf_counter() - t0)
            self.clock.tick()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


def _latency(out: Outcome, kind: str, name: str) -> None:
    xs = out.samples[kind]
    for q in (50, 90):
        out.metrics[f"{name}_p{q}_ms"] = percentile(xs, q / 100) * 1e3
        out.sample_counts[f"{name}_p{q}_ms"] = len(xs)


def _verify(out: Outcome, seq: GeneratorSequence, cert) -> None:
    ok = out.timed("verify", delorme.verify_certificate, seq, cert)
    if ok is not True:
        out.fail(f"certificate of {seq} does not verify")


def run_sweep(inputs: dict, size: Size, seed: int, out: Outcome, tracer) -> None:
    seqs = inputs["seqs"]
    with tracer.span("bench.cold"):
        certs = [out.timed("decide", delorme.is_complete_intersection, s) for s in seqs]
        for seq, cert in zip(seqs, certs):
            if cert is not None and cert is not FAILED:
                _verify(out, seq, cert)
    with tracer.span("bench.oracle"):
        for seq, cert in zip(seqs, certs):
            oracle = out.timed("oracle", toricoracle.is_ci_oracle, seq)
            if oracle is not FAILED and cert is not FAILED and oracle != (cert is not None):
                out.fail(f"decider and oracle disagree on {seq}")
    with tracer.span("bench.warm"):
        out.clock.cut()
        t0 = out.clock.ref_s
        again = [out.timed("warm", delorme.is_complete_intersection, s) for s in seqs]
        out.clock.cut()
        out.metrics["requery_ops_per_s"] = len(seqs) / (out.clock.ref_s - t0)
        out.sample_counts["requery_ops_per_s"] = len(seqs)
        for seq, first, second in zip(seqs, certs, again):
            if first is FAILED or second is FAILED:
                continue
            if (first is None) != (second is None):
                out.fail(f"warm verdict changed on {seq}")
        verdicts = [c is not None and c is not FAILED for c in certs]
        found = sum(verdicts[:inputs["exhaustive"]])
        if found != size.sweep_ci_exhaustive:
            out.fail(f"{found} CI among the exhaustive sequences, "
                     f"recorded {size.sweep_ci_exhaustive}")
        if seed == RECORDED_SEED and sum(verdicts) != size.sweep_ci_at_recorded_seed:
            out.fail(f"{sum(verdicts)} CI at seed {seed}, "
                     f"recorded {size.sweep_ci_at_recorded_seed}")
    _latency(out, "decide", "decide")
    _latency(out, "oracle", "oracle")


def _scan_members(text: str) -> list[int] | None:
    try:
        return [row["j"] for row in json.loads(text)["members"]]
    except (ValueError, KeyError, TypeError):
        return None


def run_deep_shift(inputs: dict, size: Size, seed: int, out: Outcome, tracer) -> None:
    windows = inputs["windows"]
    ci: dict[tuple[tuple[int, ...], int], bool] = {}
    level_ms: dict[int, list[float]] = defaultdict(list)
    with tracer.span("bench.ci_at"):
        for base, level, lo, hi in windows:
            family = BaseSequence(base)
            for j in range(lo, hi + 1):
                cert = out.timed("shift", shiftscan.ci_at, family, j)
                level_ms[level].append(out.samples["shift"][-1])
                if cert is FAILED:
                    continue
                ci[base, j] = cert is not None
                if cert is not None:
                    _verify(out, seqcore.shift(family, j), cert)
                if base == (11, 16, 28) and ci[base, j] != (j % 28 == 0):
                    out.fail(f"(11,16,28) at j={j}: CI iff j is a multiple of 28 above 784")
    with tracer.span("bench.cli"):
        for base, level, lo, hi in windows:
            argv = ["scan", ",".join(map(str, base)), str(lo), str(hi),
                    "--format", "json", "--cap", SCAN_CAP]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = out.timed("cli", cli.main, argv)
            if code is FAILED:
                continue
            members = _scan_members(buf.getvalue())
            expected = [j for j in range(lo, hi + 1) if ci.get((base, j))]
            if code != 0 or members != expected:
                out.fail(f"scan {base} [{lo}, {hi}] exit {code} members {members} "
                         f"!= ci_at {expected}")
    with tracer.span("bench.criteria"):
        for base, level, lo, hi in windows:
            for j in range(lo, hi + 1):
                if (base, j) not in ci:
                    continue
                if len(base) == 2 and j >= max(base[0] * base[1], base[1] * (base[1] - base[0])):
                    witness = out.timed("criterion", shiftscan.n2_criterion, *base, j)
                elif len(base) == 3 and j > base[2] ** 2:
                    witness = out.timed("criterion", shiftscan.n3_criterion, *base, j)
                else:
                    continue
                if witness is not FAILED and (witness is not None) != ci[base, j]:
                    out.fail(f"closed form for {base} at j={j} disagrees with ci_at")
    _latency(out, "shift", "shift")
    lo_level, hi_level = min(level_ms), max(level_ms)
    out.metrics["shift_growth"] = (statistics.median(level_ms[hi_level])
                                   / statistics.median(level_ms[lo_level]))
    out.sample_counts["shift_growth"] = min(len(level_ms[hi_level]), len(level_ms[lo_level]))


RUNNERS = {"sweep": run_sweep, "deep_shift": run_deep_shift}
WORKLOADS = tuple(RUNNERS)


def run(workload: str, inputs: dict, size: Size, seed: int, tracer) -> Outcome:
    out = Outcome()
    RUNNERS[workload](inputs, size, seed, out, tracer)
    out.clock.cut()
    return out
