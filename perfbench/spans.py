"""Spans around the public functions of each milac layer.

The wrappers live here, in the benchmark, and replace a function under
every name a caller looks it up by: milac.harness imports solve_psla and
map_digital_to_milac by name, and run_fp finds compute_xi, update_T and
update_alpha_beta in milac.optimizer's globals at call time. Spans are
kept in memory and written out when the run ends.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time
from contextlib import contextmanager

import milac
import milac.baselines
import milac.channel
import milac.harness
import milac.mapping
import milac.network
import milac.optimizer

MODULES = (milac, milac.channel, milac.network, milac.mapping,
           milac.optimizer, milac.baselines, milac.harness)

# (span name, module that defines the function, attribute)
TARGETS = (
    ("channel.reduce_channel", milac.channel, "reduce_channel"),
    ("network.check_lossless_reciprocal", milac.network, "check_lossless_reciprocal"),
    ("mapping.map_digital_to_milac", milac.mapping, "map_digital_to_milac"),
    ("optimizer.solve_two_layer", milac.optimizer, "solve_two_layer"),
    ("optimizer.solve_psla", milac.optimizer, "solve_psla"),
    ("optimizer.run_fp", milac.optimizer, "run_fp"),
    ("optimizer.update_alpha_beta", milac.optimizer, "update_alpha_beta"),
    ("optimizer.compute_xi", milac.optimizer, "compute_xi"),
    ("optimizer.update_T", milac.optimizer, "update_T"),
    ("optimizer.sum_rate", milac.optimizer, "sum_rate"),
    ("baselines.solve_full_dim", milac.baselines, "solve_full_dim"),
    ("baselines.zero_forcing", milac.baselines, "zero_forcing"),
    ("baselines.brute_force_oracle", milac.baselines, "brute_force_oracle"),
    ("harness.run_experiment", milac.harness, "run_experiment"),
    ("harness.run_point", milac.harness, "run_point"),
)


def bindings(home, attr):
    """Every (module, name) under which home.attr's current object is reachable."""
    fn = getattr(home, attr, None)
    if fn is None:
        return []
    return [(mod, name) for mod in MODULES for name, obj in vars(mod).items() if obj is fn]


@contextmanager
def patched(replacements):
    """Temporarily set module attributes; replacements is [(module, name, value)]."""
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in replacements]
    try:
        for mod, name, value in replacements:
            setattr(mod, name, value)
        yield
    finally:
        for mod, name, value in reversed(saved):
            setattr(mod, name, value)


class Tracer:
    """Collects the spans of one traced pass in memory.

    A span is (name, start, end, parent, cell, note): parent is the index
    of the enclosing span or -1, cell is the index of the cell being run
    (set by the benchmark), and note holds [rounds, max_outer] for run_fp.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.cell = None

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        is_solver = name == "optimizer.run_fp"

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            note = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                if is_solver:
                    note = [out[2], args[2].max_outer]
                return out
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.cell, note)

        return traced

    @contextmanager
    def active(self):
        """Install a span wrapper under every binding of every target."""
        replacements = []
        for name, home, attr in TARGETS:
            places = bindings(home, attr)
            if places:
                wrapper = self.wrap(name, getattr(home, attr))
                replacements += [(mod, n, wrapper) for mod, n in places]
        with patched(replacements):
            yield


def write_spans(path, tracers):
    """One JSON line per span; ids and parents count within a traced pass."""
    with gzip.open(path, "wt") as fh:
        for pass_no, tracer in enumerate(tracers):
            for i, (name, t0, t1, parent, cell, note) in enumerate(tracer.spans):
                fh.write(json.dumps({"pass": pass_no, "id": i, "name": name, "start": t0,
                                     "end": t1, "parent": parent, "cell": cell,
                                     "note": note}) + "\n")


def _median(values, scale=1.0):
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(spans):
    """Per-layer metrics of the spans of one traced pass.

    Timings are medians over calls; a *_self_s figure is the summed
    duration of the layer's spans minus the time their children cover.
    """
    dur = {}
    self_time = {}
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    for i, (name, t0, t1, _, _, _) in enumerate(spans):
        dur.setdefault(name, []).append(t1 - t0)
        self_time[name] = self_time.get(name, 0.0) + (t1 - t0) - child[i]
    rounds = [note[0] for name, *_, note in spans if name == "optimizer.run_fp"]
    capped = sum(1 for name, *_, note in spans if name == "optimizer.run_fp" and note[0] >= note[1])

    def layer_self(prefix):
        return sum((v for k, v in self_time.items() if k.startswith(prefix)), 0.0)

    def count(name):
        return len(dur.get(name, ()))

    return {
        "channel.reduce_calls": (count("channel.reduce_channel"), "count"),
        "channel.reduce_us_p50": (_median(dur.get("channel.reduce_channel"), 1e6), "us"),
        "channel.self_s": (layer_self("channel."), "s"),
        "optimizer.solves": (count("optimizer.run_fp"), "count"),
        "optimizer.solve_ms_p50": (_median(dur.get("optimizer.run_fp"), 1e3), "ms"),
        "optimizer.rounds_mean": (statistics.fmean(rounds) if rounds else 0.0, "count"),
        "optimizer.rounds_max": (max(rounds, default=0), "count"),
        "optimizer.inner_steps": (count("optimizer.update_T"), "count"),
        "optimizer.update_T_us_p50": (_median(dur.get("optimizer.update_T"), 1e6), "us"),
        "optimizer.xi_calls": (count("optimizer.compute_xi"), "count"),
        "optimizer.xi_us_p50": (_median(dur.get("optimizer.compute_xi"), 1e6), "us"),
        "optimizer.alpha_beta_us_p50": (_median(dur.get("optimizer.update_alpha_beta"), 1e6), "us"),
        "optimizer.rate_evals": (count("optimizer.sum_rate"), "count"),
        "optimizer.self_s": (layer_self("optimizer."), "s"),
        "optimizer.hit_cap": (capped, "count"),
        "baselines.full_dim_ms_p50": (_median(dur.get("baselines.solve_full_dim"), 1e3), "ms"),
        "baselines.full_dim_self_s": (self_time.get("baselines.solve_full_dim", 0.0), "s"),
        "baselines.zf_us_p50": (_median(dur.get("baselines.zero_forcing"), 1e6), "us"),
        "baselines.oracle_s_p50": (_median(dur.get("baselines.brute_force_oracle")), "s"),
        "baselines.oracle_self_s": (self_time.get("baselines.brute_force_oracle", 0.0), "s"),
        "mapping.map_calls": (count("mapping.map_digital_to_milac"), "count"),
        "mapping.map_ms_p50": (_median(dur.get("mapping.map_digital_to_milac"), 1e3), "ms"),
        "mapping.self_s": (layer_self("mapping."), "s"),
        "network.check_calls": (count("network.check_lossless_reciprocal"), "count"),
        "network.check_ms_p50": (_median(dur.get("network.check_lossless_reciprocal"), 1e3), "ms"),
        "network.self_s": (layer_self("network."), "s"),
        "harness.run_point_ms_p50": (_median(dur.get("harness.run_point"), 1e3), "ms"),
        "harness.self_s": (layer_self("harness."), "s"),
    }
