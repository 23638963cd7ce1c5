"""Spans around the calls into each nfcap module, from the benchmark's side.

:class:`Tracer` replaces a function where its caller looks it up: the
module attribute ``nfcap.sweeps.nf_ccf_quadrature`` is what ``run_mac``
calls, and ``nfcap._kernels.ccf_quadrature_sum`` is what
``nf_ccf_quadrature`` calls. The wrapper records a span (name, start,
end, parent, pass id) and the counts listed in :data:`COUNTS`. Spans stay
in memory until the child writes them out. No file under ``src/``
changes; only traced children install the wrappers.

:func:`layer_metrics` turns the spans and counts of one pass into the
per-layer metrics. A span's self time is its duration minus the time of
its direct child spans.
"""

from __future__ import annotations

import importlib
import os
import time

# (module where the caller looks the name up, attribute, span name).
# A span is named after the module that defines the function.
WRAPPED = [
    ("nfcap.cli", "load_scenario", "config.load_scenario"),
    ("nfcap.cli", "default_scenario", "config.default_scenario"),
    *[("nfcap.cli", name, f"sweeps.{name}") for name in (
        "run_channel", "run_mac", "run_bc", "run_mc", "run_region", "run_sweep",
        "reproduce", "verification_report", "emit_csv")],
    *[("nfcap.sweeps", name, f"sweeps.{name}") for name in (
        "run_channel", "run_mac", "run_bc", "run_mc")],
    *[("nfcap.sweeps", name, f"stats.{name}") for name in (
        "nf_gain_closed", "ff_gain_closed", "ff_ccf_closed", "nf_ccf_quadrature")],
    ("nfcap.stats", "nf_gain_closed", "stats.nf_gain_closed"),
    *[("nfcap.sweeps", name, f"geometry.{name}") for name in (
        "nf_channel_vector", "ff_channel_vector")],
    *[("nfcap._kernels", name, f"kernels.{name}") for name in (
        "element_distances", "nf_entries", "ccf_quadrature_sum", "mc_grid_best")],
    *[("nfcap.sweeps", name, f"mac.{name}") for name in (
        "mac_capacity_two_user", "sic_rates_two_user", "linear_combiner_sum_rate",
        "mac_asymptotics", "mac_region_two_user")],
    *[("nfcap.sweeps", name, f"broadcast.{name}") for name in (
        "bc_capacity_two_user", "bc_power_allocation_two_user",
        "linear_precoder_sum_rate", "bc_asymptotics", "bc_region_two_user",
        "bc_covariance_recovery")],
    *[("nfcap.sweeps", name, f"multicast.{name}") for name in (
        "mc_capacity_two_user", "mc_upper_bound", "mc_asymptotics")],
    *[("nfcap.sweeps", name, f"oracles.{name}") for name in (
        "logdet_capacity_oracle", "sic_rates_oracle", "bc_power_grid_oracle",
        "mc_beam_grid_oracle", "gain_sum_oracle", "ccf_sum_oracle")],
    ("nfcap.oracles", "logdet_capacity_oracle", "oracles.logdet_capacity_oracle"),
    ("nfcap.oracles", "_element_sum", "oracles.element_sum"),
]


def _entries(channel) -> int:
    return len(getattr(channel, "entries", channel))


def _rows(args, kwargs, result) -> int:
    return len(getattr(result, "rows", ()))


# Counts recorded at a wrapper: (wrapped lookup, span name) -> {count: fn}.
# Rows are counted only at the CLI's lookups, so nested runner calls are
# not counted twice.
COUNTS = {
    **{("nfcap.cli", f"sweeps.{name}"): {"points": _rows} for name in (
        "run_channel", "run_mac", "run_bc", "run_mc", "run_region", "run_sweep",
        "reproduce")},
    ("nfcap.cli", "sweeps.emit_csv"): {
        "bytes": lambda args, kwargs, result: os.path.getsize(args[1])},
    ("nfcap._kernels", "kernels.ccf_quadrature_sum"): {
        "evals": lambda args, kwargs, result: len(args[0]) * len(args[1])},
    ("nfcap._kernels", "kernels.mc_grid_best"): {
        "cells": lambda args, kwargs, result: args[3] * args[4] * args[5]},
    **{("nfcap.sweeps", f"geometry.{name}"): {
        "elements": lambda args, kwargs, result: len(result)}
       for name in ("nf_channel_vector", "ff_channel_vector")},
    # 16 M^2 bytes per complex M x M matrix: the log-det oracle builds
    # I + sum_k snr_k h_k h_k^H and its Cholesky factor, the covariance
    # recovery two dense covariances
    **{(module, "oracles.logdet_capacity_oracle"): {
        "bytes": lambda args, kwargs, result:
            2 * 16 * _entries(args[0][0]) ** 2 if args[0] else 0}
       for module in ("nfcap.sweeps", "nfcap.oracles")},
    ("nfcap.sweeps", "broadcast.bc_covariance_recovery"): {
        "bytes": lambda args, kwargs, result: 2 * 16 * _entries(args[0]) ** 2},
}

# Spans whose distinct inputs are counted (the key is the call's repr).
DISTINCT = {"stats.nf_ccf_quadrature"}


class Tracer:
    """In-memory span recorder for one child process."""

    def __init__(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: dict[str, dict[str, int]] = {}
        self.distinct: dict[str, set[str]] = {}
        self._stack: list[int] = [-1]
        self._next_id = 0

    def call(self, name: str, func, args, kwargs, counters=None):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent))
        if counters:
            bucket = self.counts.setdefault(name, {})
            for key, count in counters.items():
                bucket[key] = bucket.get(key, 0) + count(args, kwargs, result)
        if name in DISTINCT:
            self.distinct.setdefault(name, set()).add(repr((args, kwargs)))
        return result

    def wrap(self, name: str, func, counters=None):
        def wrapper(*args, **kwargs):
            return self.call(name, func, args, kwargs, counters)
        wrapper.__wrapped__ = func
        return wrapper

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self.wrap(
                name, original, COUNTS.get((module_name, name))))

    def dump(self) -> dict:
        return {
            "pass": self.pass_id,
            "fields": ["id", "name", "start", "end", "parent"],
            "spans": self.spans,
            "counts": self.counts,
            "distinct": {name: len(keys) for name, keys in self.distinct.items()},
        }


def self_times(spans) -> dict[str, tuple[int, float]]:
    """(calls, summed self time) per span name."""
    child_time: dict[int, float] = {}
    for _, _, start, end, parent in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: dict[str, tuple[int, float]] = {}
    for span_id, name, start, end, _ in spans:
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - child_time.get(span_id, 0.0))
    return out


LAYERS = ("cli", "config", "sweeps", "stats", "kernels", "geometry",
          "mac", "broadcast", "multicast", "oracles")

# Per-layer metric -> unit. Every traced pass reports all of them.
UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    "kernels.ccf_quadrature_sum.calls": "count",
    "kernels.ccf_quadrature_sum.self_s": "s",
    "kernels.ccf_quadrature_sum.evals": "count",
    "stats.nf_ccf_quadrature.calls": "count",
    "stats.nf_ccf_quadrature.self_s": "s",
    "stats.nf_ccf_quadrature.distinct_ratio": "1",
    "stats.closed.calls": "count",
    "stats.closed.self_s": "s",
    "kernels.mc_grid_best.calls": "count",
    "kernels.mc_grid_best.self_s": "s",
    "kernels.mc_grid_best.cells": "count",
    "kernels.element_distances.self_s": "s",
    "kernels.nf_entries.self_s": "s",
    "geometry.channel_vector.calls": "count",
    "geometry.channel_vector.self_s": "s",
    "geometry.channel_vector.elements": "count",
    "oracles.logdet_capacity_oracle.calls": "count",
    "oracles.logdet_capacity_oracle.self_s": "s",
    "oracles.logdet_capacity_oracle.bytes": "B",
    "broadcast.bc_covariance_recovery.calls": "count",
    "broadcast.bc_covariance_recovery.self_s": "s",
    "broadcast.bc_covariance_recovery.bytes": "B",
    "oracles.mc_beam_grid_oracle.self_s": "s",
    "oracles.bc_power_grid_oracle.self_s": "s",
    "oracles.element_sum.self_s": "s",
    "config.load_scenario.calls": "count",
    "config.load_scenario.self_s": "s",
    "sweeps.points": "count",
    "sweeps.emit_csv.self_s": "s",
    "sweeps.emit_csv.bytes": "B",
}

# Metrics that sum several span names.
_GROUPS = {
    "stats.closed": ("stats.nf_gain_closed", "stats.ff_gain_closed",
                     "stats.ff_ccf_closed"),
    "geometry.channel_vector": ("geometry.nf_channel_vector",
                                "geometry.ff_channel_vector"),
}


def layer_metrics(children: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass from its children's trace dumps."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, dict[str, int]] = {}
    distinct: dict[str, int] = {}
    for dump in children:
        for name, (n, t) in self_times(dump["spans"]).items():
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + t
        for name, bucket in dump["counts"].items():
            into = counts.setdefault(name, {})
            for key, value in bucket.items():
                into[key] = into.get(key, 0) + value
        for name, n in dump["distinct"].items():
            distinct[name] = distinct.get(name, 0) + n

    def members(metric: str) -> list[str]:
        if metric in _GROUPS:
            return list(_GROUPS[metric])
        if metric in LAYERS:
            return [n for n in calls if n.split(".", 1)[0] == metric]
        return [metric]

    def count(metric: str, key: str) -> int:
        return sum(counts.get(n, {}).get(key, 0) for n in members(metric))

    out: dict[str, float] = {}
    for metric in UNITS:
        base, _, field = metric.rpartition(".")
        if field == "self_s":
            out[metric] = sum(self_s.get(n, 0.0) for n in members(base))
        elif field == "calls":
            out[metric] = sum(calls.get(n, 0) for n in members(base))
        elif field == "distinct_ratio":
            n = calls.get(base, 0)
            out[metric] = distinct.get(base, 0) / n if n else 0.0
        else:
            out[metric] = count(base, field)
    return out
