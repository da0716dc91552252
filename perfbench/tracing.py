"""Per-layer tracing of ``robmarg`` from outside the program.

``Tracer.install`` wraps the public functions of each layer wherever they are
bound: a module that did ``from .x import y`` holds its own reference, so the
namespace of every loaded ``robmarg`` module is patched, not just the defining
one.  ``ScoreFamily.rho`` and ``.weight`` get element counters instead of
spans, because they are called hundreds of thousands of times.

Each span records its name, start, end, parent span and request id (the
report, or the Monte Carlo replication it belongs to), plus the minor page
faults of its thread during the call.  Spans and counts are kept in memory
per thread and only combined by ``summary``, so the replication thread pool
shares nothing while it runs.
"""

from __future__ import annotations

import collections
import functools
import itertools
import resource
import statistics
import sys
import threading
import time

import numpy as np
from robmarg.scores import ScoreFamily

# Layer (robmarg module) -> public functions that get a span.
LAYERS = {
    "cli": ("main",),
    "simulation": ("run_scenario", "generate_sample"),
    "inference": ("jackknife_se",),
    "regression": ("fit_mm",),
    "propensity": ("fit_logistic", "kernel_propensity", "constant_propensity",
                   "auto_bandwidth"),
    "marginal": ("estimate_ipw", "estimate_conv", "estimate_aipw",
                 "functional_summary"),
    "scaleloc": ("mad_scale", "m_location"),
    "weighted": ("weighted_quantile",),
}
PROPENSITY_FITS = ("propensity.fit_logistic", "propensity.kernel_propensity",
                   "propensity.constant_propensity")

SPAN_FIELDS = ("id", "parent", "name", "request", "thread", "start", "end",
               "minor_faults")


def _thread_faults() -> int:
    return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class _ThreadState:
    def __init__(self, index: int, request: str):
        self.index = index
        self.request = request
        self.stack: list[int] = []
        self.spans: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()


class Tracer:
    """Spans and counts at the layer boundaries of one CLI invocation."""

    def __init__(self, request: str):
        self._request = request
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple] = []
        # (span id, config seed) of the running scenario: replication
        # threads take it as their root span and derive request ids from it.
        self._scenario: tuple[int, int] | None = None

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._states), self._request)
                self._states.append(state)
            self._local.state = state
        return state

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [
            module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "robmarg" or name.startswith("robmarg."))
        ]
        for layer, names in LAYERS.items():
            home = sys.modules["robmarg." + layer]
            for fname in names:
                original = getattr(home, fname)
                fn = original
                if fname == "run_scenario":
                    fn = self._scenario_counts(original)
                elif fname == "generate_sample":
                    fn = self._replication_request(original)
                wrapped = self._span(f"{layer}.{fname}", fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapped)
        for method in ("rho", "weight"):
            self._patch(ScoreFamily, method, self._elements(
                f"scores.{method}.elements", getattr(ScoreFamily, method)))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn):
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._state()
            if state.stack:
                parent = state.stack[-1]
            else:
                parent = self._scenario[0] if self._scenario else None
            sid = next(self._ids)
            state.stack.append(sid)
            faults = _thread_faults()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                faults = _thread_faults() - faults
                state.stack.pop()
                state.spans.append((sid, parent, name, state.request,
                                    state.index, start, end, faults))
            if after is not None:
                after(state.counts, args, kwargs, result)
            return result

        return traced

    def _scenario_counts(self, fn):
        """run_scenario: process CPU time, failed replications, and the
        scenario context for the replication threads."""

        @functools.wraps(fn)
        def run(cfg, *args, **kwargs):
            state = self._state()
            self._scenario = (state.stack[-1], cfg.seed)
            cpu = time.process_time()
            try:
                table = fn(cfg, *args, **kwargs)
            finally:
                state.counts["simulation.cpu_s"] += time.process_time() - cpu
                self._scenario = None
                state.request = self._request
            state.counts["simulation.reps_failed"] += table.failures
            return table

        return run

    def _replication_request(self, fn):
        """generate_sample starts each replication: replication j draws from
        seed ``cfg.seed ^ j``, so the seed names the request."""

        @functools.wraps(fn)
        def sample(*args, **kwargs):
            if self._scenario is not None:
                seed = _arg(args, kwargs, 1, "seed")
                self._state().request = f"rep{seed ^ self._scenario[1]}"
            return fn(*args, **kwargs)

        return sample

    def _elements(self, key: str, method):
        @functools.wraps(method)
        def counted(sf, u):
            self._state().counts[key] += np.size(u)
            return method(sf, u)

        return counted

    # -- results -----------------------------------------------------------

    def spans(self) -> list[dict]:
        return [dict(zip(SPAN_FIELDS, span))
                for state in self._states for span in state.spans]

    def summary(self) -> dict:
        """The per-layer metrics named in BENCHMARK.json."""
        spans = [span for state in self._states for span in state.spans]
        counts = collections.Counter()
        for state in self._states:
            counts.update(state.counts)
        by_id = {span[0]: span for span in spans}
        # Self time subtracts only children on the same thread; replications
        # in the pool overlap their scenario span instead of nesting in it.
        child_s = collections.Counter()
        for sid, parent, name, _, thread, start, end, _ in spans:
            up = by_id.get(parent)
            if up is not None and up[4] == thread:
                child_s[parent] += end - start
        calls = collections.Counter()
        total_s = collections.Counter()
        self_s = collections.Counter()
        faults = collections.Counter()
        durations = collections.defaultdict(list)
        marginal_faults = 0
        for sid, parent, name, _, _, start, end, flt in spans:
            calls[name] += 1
            total_s[name] += end - start
            self_s[name] += end - start - child_s[sid]
            faults[name] += flt
            durations[name].append(end - start)
            up = by_id.get(parent)
            if name.startswith("marginal.") and (
                up is None or not up[2].startswith("marginal.")
            ):
                marginal_faults += flt

        fit_ms = sorted(1e3 * d for d in durations["regression.fit_mm"])
        scenario_s = total_s["simulation.run_scenario"]
        return {
            "cli.self_s": self_s["cli.main"],
            "simulation.run_scenario.total_s": scenario_s,
            "simulation.generate_sample.self_s":
                self_s["simulation.generate_sample"],
            "simulation.cpu_util":
                counts["simulation.cpu_s"] / scenario_s if scenario_s else 0.0,
            "simulation.reps_failed": counts["simulation.reps_failed"],
            "inference.jackknife_se.total_s": total_s["inference.jackknife_se"],
            "inference.jackknife_se.self_s": self_s["inference.jackknife_se"],
            "inference.jackknife.replicates":
                counts["inference.jackknife.replicates"],
            "inference.jackknife.skipped": counts["inference.jackknife.skipped"],
            "regression.fit_mm.calls": calls["regression.fit_mm"],
            "regression.fit_mm.self_s": self_s["regression.fit_mm"],
            "regression.fit_mm.ms_p50": _quantile(fit_ms, 10),
            "regression.fit_mm.ms_p95": _quantile(fit_ms, 19),
            "regression.fit_mm.minor_faults": faults["regression.fit_mm"],
            "regression.fit_mm.not_converged":
                counts["regression.fit_mm.not_converged"],
            "scores.rho.elements": counts["scores.rho.elements"],
            "scores.weight.elements": counts["scores.weight.elements"],
            "propensity.fits": sum(calls[name] for name in PROPENSITY_FITS),
            "propensity.auto_bandwidth.calls":
                calls["propensity.auto_bandwidth"],
            "propensity.auto_bandwidth.total_s":
                total_s["propensity.auto_bandwidth"],
            "propensity.fit_logistic.self_s": self_s["propensity.fit_logistic"],
            "marginal.estimate_ipw.self_s": self_s["marginal.estimate_ipw"],
            "marginal.estimate_conv.self_s": self_s["marginal.estimate_conv"],
            "marginal.estimate_aipw.self_s": self_s["marginal.estimate_aipw"],
            "marginal.functional_summary.total_s":
                total_s["marginal.functional_summary"],
            "marginal.atoms": counts["marginal.atoms"],
            "marginal.minor_faults": marginal_faults,
            "scaleloc.mad_scale.self_s": self_s["scaleloc.mad_scale"],
            "scaleloc.m_location.self_s": self_s["scaleloc.m_location"],
            "scaleloc.m_location.calls": calls["scaleloc.m_location"],
            "weighted.weighted_quantile.calls":
                calls["weighted.weighted_quantile"],
            "weighted.weighted_quantile.self_s":
                self_s["weighted.weighted_quantile"],
            "trace.spans": len(spans),
        }


def _quantile(sorted_values: list[float], twentieth: int) -> float:
    """The ``twentieth``/20 quantile (10 is the median, 19 the 95th
    percentile); 0 without samples."""
    if len(sorted_values) < 2:
        return sorted_values[0] if sorted_values else 0.0
    return statistics.quantiles(sorted_values, n=20)[twentieth - 1]


def _count_atoms(counts, args, kwargs, result) -> None:
    counts["marginal.atoms"] += _arg(args, kwargs, 0, "ws").atoms.size


def _count_jackknife(counts, args, kwargs, result) -> None:
    n = _arg(args, kwargs, 1, "data").n
    counts["inference.jackknife.replicates"] += n
    counts["inference.jackknife.skipped"] += n - result.n_effective


def _count_not_converged(counts, args, kwargs, result) -> None:
    counts["regression.fit_mm.not_converged"] += not result.converged


# Counts taken at a span's boundary from its arguments and result.
_AFTER = {
    "marginal.functional_summary": _count_atoms,
    "inference.jackknife_se": _count_jackknife,
    "regression.fit_mm": _count_not_converged,
}
