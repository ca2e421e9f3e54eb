"""Span recording around the cishift package's public functions.

A traced round replaces each public function at the module attribute its
caller looks up (``delorme.is_member``, ``shiftscan.is_complete_intersection``,
``cli.main`` ...) with a wrapper that records one span: its kind, start,
end and the span it was called from.  Nothing under ``src/`` is edited.
Spans stay in flat in-memory arrays and are written out when the round
ends; self times come from them afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from math import gcd
from pathlib import Path

import numpy as np

from cishift import cli, delorme, semigroup, shiftscan, toricoracle

# span kind -> the (module, attribute) pairs through which callers reach it
SPAN_TARGETS = {
    "semigroup.is_member": [
        (semigroup, "is_member"), (delorme, "is_member"), (shiftscan, "is_member"),
    ],
    "semigroup.find_representation": [
        (semigroup, "find_representation"),
        (semigroup, "find_representation_with_sum"),
        (delorme, "find_representation"),
        (shiftscan, "find_representation"),
        (shiftscan, "find_representation_with_sum"),
    ],
    "delorme.decide": [
        (delorme, "is_complete_intersection"), (shiftscan, "is_complete_intersection"),
    ],
    "delorme.verify": [
        (delorme, "verify_certificate"), (shiftscan, "verify_certificate"),
    ],
    "toricoracle.oracle": [(toricoracle, "is_ci_oracle")],
    "shiftscan": [
        (shiftscan, name)
        for name in ("ci_at", "scan", "n2_criterion", "n3_criterion", "top_split_anatomy")
    ],
    "cli.main": [(cli, "main")],
}

class NullTracer:
    """Stands in for Tracer in untraced rounds; records nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    """Records nested spans and the oracle's degree counter for one round."""

    def __init__(self) -> None:
        self.kind_names: list[str] = []
        self.kinds = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.degrees = 0
        self.absent: list[str] = []
        self._originals: list[tuple[object, str, object]] = []

    def _kind_id(self, name: str) -> int:
        if name not in self.kind_names:
            self.kind_names.append(name)
        return self.kind_names.index(name)

    def _open(self, kind: int) -> int:
        idx = len(self.ends)
        self.kinds.append(kind)
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span of the benchmark's own code, e.g. one pass of a workload."""
        idx = self._open(self._kind_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, kind: int, fn):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(kind)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def _count_degrees(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            profile = fn(*args, **kwargs)
            self.degrees += profile.bound // gcd(*profile.gens)
            return profile

        return counted

    def _patch(self, module, attr: str, make) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return
        self._originals.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self) -> None:
        """Wrap every target; a target a later version removed is noted as absent."""
        for name, targets in SPAN_TARGETS.items():
            kind = self._kind_id(name)
            for module, attr in targets:
                self._patch(module, attr, functools.partial(self._wrap, kind))
        self._patch(toricoracle, "betti_profile", self._count_degrees)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        # copies, so the arrays can keep growing afterwards
        return {
            "kind": np.frombuffer(self.kinds, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
        }

    def _self_times(self) -> tuple[dict[str, np.ndarray], np.ndarray]:
        a = self.arrays()
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=dur.size)
        return a, dur - child

    def misnested(self) -> int:
        """Spans whose children overrun them; any such span makes self times wrong."""
        _, own = self._self_times()
        return int(np.count_nonzero(own < -1e-6))

    def kind_totals(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span kind; self = duration minus child spans."""
        a, own = self._self_times()
        nk = len(self.kind_names)
        calls = np.bincount(a["kind"], minlength=nk)
        self_s = np.bincount(a["kind"], weights=own, minlength=nk)
        return {
            name: (int(calls[i]), float(self_s[i]))
            for i, name in enumerate(self.kind_names)
        }

    def child_calls(self, kind: str, parent_kind: str) -> int:
        """Spans of `kind` opened directly inside a span of `parent_kind`."""
        a = self.arrays()
        k, p = self._kind_id(kind), self._kind_id(parent_kind)
        mine = a["kind"] == k
        parents = a["parent"][mine]
        parents = parents[parents >= 0]
        return int(np.count_nonzero(a["kind"][parents] == p))

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.kind_names), **self.arrays())
