"""In-memory span tracing of amdiqkd, installed from outside the package.

``Tracer.install`` replaces selected functions of the amdiqkd modules with
wrappers that record one span (name, start, end, parent) per call.  Modules
bind some functions by name (``from .keyrate import evaluate``), so every
module attribute that refers to a wrapped function is replaced, not only the
defining one.  Spans stay in memory until ``write`` is called at the end of
a run; ``layer_metrics`` turns them into the per-layer figures of
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name).  Attributes that start with an underscore
# are private to the package and may disappear in a refactor; a missing one
# is reported on stderr and its metrics read 0.
TARGETS = [
    ("cli", "main", "cli.main"),
    ("cli", "_write_outputs", "cli.write_outputs"),
    ("scenario", "run_sweep", "scenario.run_sweep"),
    ("scenario", "_optimize_async_point", "scenario.point.async"),
    ("scenario", "_evaluate_baseline", None),  # named by its first argument
    ("optimizer", "optimize_link", "optimizer.optimize_link"),
    ("keyrate", "evaluate", "keyrate.evaluate"),
    ("channel", "expected_observables", "channel.expected_observables"),
    ("channel", "pair_gain", "channel.pair_gain"),
    ("channel", "periodic_mean", "channel.periodic_mean"),
    ("decoy", "estimate", "decoy.estimate"),
    ("decoy", "double_scan", "decoy.double_scan"),
    ("baselines", "mdi_key_rate", "baselines.mdi_key_rate"),
    ("baselines", "bb84_key_rate", "baselines.bb84_key_rate"),
    ("oracle", "simulate", "oracle.simulate"),
    ("oracle", "LayerPosterior.probs", "oracle.posterior.probs"),
]

OBJECTIVE = "optimizer.objective"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int] | None] = []
        self._stack = [-1]
        self.counters: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._replaced: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _call(self, name: str, fn, args, kwargs):
        nid = self._name_id(name)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (nid, start, end, parent)

    def _wrap(self, fn, name: str | None):
        tracer = self

        if name is None:  # scenario._evaluate_baseline(kind, ...)
            def wrapper(*args, **kwargs):
                kind = args[0] if args else kwargs["kind"]
                return tracer._call(f"scenario.point.{kind}", fn, args, kwargs)
        elif name == "optimizer.optimize_link":
            def wrapper(objective, *args, **kwargs):
                def traced_objective(params):
                    value = tracer._call(OBJECTIVE, objective, (params,), {})
                    tracer.counters["optimizer.evals"] += 1
                    tracer.counters["optimizer.positive"] += value > 0.0
                    return value
                return tracer._call(name, fn, (traced_objective, *args), kwargs)
        elif name == "oracle.simulate":
            def wrapper(*args, **kwargs):
                run = tracer._call(name, fn, args, kwargs)
                tracer.counters["oracle.clicks"] += run.n_clicks
                tracer.counters["oracle.pairs"] += run.n_pairs
                tracer.counters["oracle.x_matched"] += run.x_matched
                return run
        else:
            def wrapper(*args, **kwargs):
                return tracer._call(name, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package: str = "amdiqkd") -> None:
        """Wrap every target; import the package modules first."""
        import importlib

        modules = {m: importlib.import_module(f"{package}.{m}")
                   for m in {t[0] for t in TARGETS}}
        loaded = [mod for key, mod in sys.modules.items()
                  if key == package or key.startswith(package + ".")]
        for module_name, attr, name in TARGETS:
            owner = modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                if f"{module_name}.{attr}" in self.missing:
                    continue
                self.missing.append(f"{module_name}.{attr}")
                print(f"perfbench: trace target {module_name}.{attr} not found",
                      file=sys.stderr)
                continue
            wrapper = self._wrap(original, name)
            if path:  # a method: replace it on its class
                holders = [(owner, leaf)]
            else:
                holders = [(mod, key) for mod in loaded
                           for key, value in vars(mod).items() if value is original]
            for holder, key in holders:
                self._replaced.append((holder, key, original))
                setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        """Put back every function that ``install`` replaced."""
        for holder, key, original in reversed(self._replaced):
            setattr(holder, key, original)
        self._replaced.clear()

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------

    def _per_name(self):
        """Calls, total seconds, self seconds and durations per span name."""
        child_time = [0.0] * len(self.spans)
        for nid, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for i, (nid, start, end, _parent) in enumerate(self.spans):
            name = self.names[nid]
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child_time[i]
            durations[name].append(end - start)
        return calls, total, own, durations

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        calls, total, own, durations = self._per_name()
        c = self.counters
        evals = c["optimizer.evals"]

        def ms_quantile(name: str, q: int) -> float:
            d = durations.get(name, [])
            if len(d) < 2:
                return 1e3 * d[0] if d else 0.0
            return 1e3 * statistics.quantiles(d, n=100, method="inclusive")[q - 1]

        n_sim = calls["oracle.simulate"]
        return {
            "keyrate.evaluate.calls": (calls["keyrate.evaluate"], "count"),
            "keyrate.evaluate.s": (total["keyrate.evaluate"], "s"),
            "keyrate.evaluate.self_s": (own["keyrate.evaluate"], "s"),
            "keyrate.evaluate.ms_p50": (ms_quantile("keyrate.evaluate", 50), "ms"),
            "keyrate.evaluate.ms_p99": (ms_quantile("keyrate.evaluate", 99), "ms"),
            "channel.expected_observables.calls": (calls["channel.expected_observables"], "count"),
            "channel.expected_observables.s": (total["channel.expected_observables"], "s"),
            "channel.expected_observables.self_s": (own["channel.expected_observables"], "s"),
            "channel.pair_gain.calls": (calls["channel.pair_gain"], "count"),
            "channel.pair_gain.s": (total["channel.pair_gain"], "s"),
            "channel.periodic_mean.calls": (calls["channel.periodic_mean"], "count"),
            "channel.periodic_mean.s": (total["channel.periodic_mean"], "s"),
            "decoy.estimate.calls": (calls["decoy.estimate"], "count"),
            "decoy.estimate.self_s": (own["decoy.estimate"], "s"),
            "decoy.double_scan.calls": (calls["decoy.double_scan"], "count"),
            "decoy.double_scan.s": (total["decoy.double_scan"], "s"),
            "optimizer.optimize_link.calls": (calls["optimizer.optimize_link"], "count"),
            "optimizer.optimize_link.s": (total["optimizer.optimize_link"], "s"),
            "optimizer.self_s": (own["optimizer.optimize_link"], "s"),
            "optimizer.evals": (evals, "count"),
            "optimizer.positive_share": (c["optimizer.positive"] / evals if evals else 0.0, "ratio"),
            "baselines.mdi_key_rate.calls": (calls["baselines.mdi_key_rate"], "count"),
            "baselines.mdi_key_rate.s": (total["baselines.mdi_key_rate"], "s"),
            "baselines.bb84_key_rate.calls": (calls["baselines.bb84_key_rate"], "count"),
            "baselines.bb84_key_rate.s": (total["baselines.bb84_key_rate"], "s"),
            "scenario.run_sweep.s": (total["scenario.run_sweep"], "s"),
            "scenario.point.async.s": (total["scenario.point.async"], "s"),
            "scenario.point.mdi-baseline.s": (total["scenario.point.mdi-baseline"], "s"),
            "scenario.point.bb84-baseline.s": (total["scenario.point.bb84-baseline"], "s"),
            "cli.main.s": (total["cli.main"], "s"),
            "cli.write_outputs.s": (total["cli.write_outputs"], "s"),
            "oracle.simulate.calls": (n_sim, "count"),
            "oracle.simulate.s_per_call": (total["oracle.simulate"] / n_sim if n_sim else 0.0, "s"),
            "oracle.posterior.probs.calls": (calls["oracle.posterior.probs"], "count"),
            "oracle.posterior.probs.s": (total["oracle.posterior.probs"], "s"),
            "oracle.clicks": (c["oracle.clicks"], "count"),
            "oracle.pairs": (c["oracle.pairs"], "count"),
            "oracle.x_matched": (c["oracle.x_matched"], "count"),
            "trace.spans": (len(self.spans), "count"),
        }

    def dump(self) -> dict:
        """Spans and counters as plain data (times in seconds since the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "names": self.names,
            "spans": [[nid, round(s - t0, 9), round(e - t0, 9), p] for nid, s, e, p in self.spans],
            "counters": dict(self.counters),
            "missing": self.missing,
        }

    def merge(self, dumped: dict) -> None:
        """Append spans and counters dumped by a traced child process."""
        offset = len(self.spans)
        for nid, start, end, parent in dumped["spans"]:
            self.spans.append((self._name_id(dumped["names"][nid]), start, end,
                               parent + offset if parent >= 0 else -1))
        for key, value in dumped["counters"].items():
            self.counters[key] += value
        self.missing.extend(m for m in dumped["missing"] if m not in self.missing)


def write(path: Path, dumped: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(dumped, separators=(",", ":")), encoding="utf-8")
