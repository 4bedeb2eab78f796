"""Span tracing of ntpboost's public entry points, from outside the package.

``Tracer.install()`` wraps each function in ``LAYERS`` and rebinds every
name that refers to it in every ``ntpboost`` module (all imported first)
and in the workload module (including module-level lists such as
``verify.ALL_CHECKS``), so a call through any import path is recorded;
``uninstall()`` puts the originals back.  A reference held anywhere else
(a dict, a tuple, a closure) is not rebound: such a call goes untraced.
A span is ``[name, start, end, parent, op]``; spans stay in memory until
``summary`` turns them into per-op calls, total and self time.  Counters
read a call's arguments and result after its span has closed, so their
cost lands outside that span but inside the self time of the span that
called it, if any.
"""

from __future__ import annotations

import ast
import functools
import importlib
import pkgutil
import sys
import time
from collections import defaultdict

VERIFY_CHECKS = [
    "check_round_trip",
    "check_loss_kl_identity",
    "check_pinsker",
    "check_boost_drop",
    "check_eq5_consistency",
    "check_offset_reconstruction",
    "check_compiled_boost",
    "check_cross_construction",
    "check_transition_library",
    "check_hidden_sufficiency",
    "check_quantized_boost",
    "check_error_bounds",
    "check_selfboost_loop",
]

# layer label -> (module holding the functions, function names)
LAYERS = {
    "dist": ("ntpboost.dist", ["text_to_lm", "kl", "next_token_loss"]),
    "distinguishers": ("ntpboost.distinguishers", ["advantage"]),
    "boosting": ("ntpboost.boosting", ["boost_text"]),
    "families": ("ntpboost.families", ["one_prefix_table_family"]),
    "selfboost": (
        "ntpboost.selfboost",
        ["run_algorithm", "minimize_loss_constrained", "best_member"],
    ),
    "construct": (
        "ntpboost.construct",
        [
            "lm_to_rnn",
            "distinguisher_to_rnn",
            "build_boosted_rnn",
            "build_boosted_rnn_simple",
        ],
    ),
    "fixedpoint": (
        "ntpboost.fixedpoint",
        ["build_boosted_rnn_quantized", "quantized_run"],
    ),
    "rnn.engine": ("ntpboost.rnn.engine", ["compile_graph", "run"]),
    "rnn.sufficiency": ("ntpboost.rnn.sufficiency", ["verify_hidden_sufficiency"]),
    "verify": ("ntpboost.verify", VERIFY_CHECKS),
    "cli": ("ntpboost.cli", ["main"]),
    "io": ("ntpboost.io", ["write_json_atomic"]),
}

SPAN_NAMES = [f"{label}.{fn}" for label, (_, fns) in LAYERS.items() for fn in fns]

# Counter metrics: summed and reported per op, or the largest single call.
SUMMED = {
    "rnn.engine.run.entry_steps": "entry_steps/op",  # tape length * steps
    "rnn.engine.compile_graph.tape_entries": "entries/op",
    "fixedpoint.quantized_run.saturation_events": "events/op",
}
PEAKS = {
    "rnn.engine.run.trace_bytes": "bytes_computed",  # T*N*B*8, not measured
    "construct.build_boosted_rnn.size_minus_formula": "count",
}

# Spans each workload must hit (calls > 0) and must not hit (calls == 0).
EXPECTED = {
    "sweep": (
        [
            "dist.text_to_lm",
            "dist.kl",
            "distinguishers.advantage",
            "boosting.boost_text",
            "construct.lm_to_rnn",
            "construct.distinguisher_to_rnn",
            "construct.build_boosted_rnn",
            "rnn.engine.compile_graph",
            "rnn.engine.run",
        ],
        [
            "selfboost.best_member",
            "rnn.sufficiency.verify_hidden_sufficiency",
            "fixedpoint.quantized_run",
            "cli.main",
        ],
    ),
    "selfboost": (
        [
            "selfboost.run_algorithm",
            "selfboost.minimize_loss_constrained",
            "selfboost.best_member",
            "distinguishers.advantage",
            "boosting.boost_text",
            "dist.kl",
            "dist.next_token_loss",
            "dist.text_to_lm",
        ],
        [
            "construct.build_boosted_rnn",
            "rnn.engine.compile_graph",
            "rnn.engine.run",
            "cli.main",
        ],
    ),
    "verify": (SPAN_NAMES, []),
}


def _imported_names(module) -> list:
    """``(alias, object)`` for each top-level ``from X import name [as alias]``
    in the module's source, with the object looked up in X."""
    path = getattr(module, "__file__", None)
    if not path or not path.endswith(".py"):
        return []
    with open(path) as fh:
        tree = ast.parse(fh.read())
    package = module.__name__ if path.endswith("__init__.py") else module.__package__
    found = []
    for node in tree.body:
        if not isinstance(node, ast.ImportFrom) or node.module == "__future__":
            continue
        source = importlib.import_module(
            "." * node.level + (node.module or ""), package if node.level else None
        )
        for alias in node.names:
            if hasattr(source, alias.name):
                found.append((alias.asname or alias.name, getattr(source, alias.name)))
    return found


class Tracer:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.counts: dict = defaultdict(float)  # (op, metric) -> value
        self.last_tape_entries = 0
        self.calls: dict = {}
        self._sites = None  # [(namespace, key, original, wrapper)]
        self.unbound: list[str] = []

    # -- instrumentation ---------------------------------------------------

    def _wrap(self, name: str, fn, counter):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if counter is not None:
                counter(args, kwargs, result)
            return result

        return traced

    def _find_sites(self, extra_module: str) -> list:
        """Every module-level name or list slot that refers to an entry point.

        Searched: every ``ntpboost`` module (all are imported first, so a
        module loaded lazily later is covered too) and ``extra_module``
        (the benchmark's own workload code).  Each module-level
        ``from ... import`` of an entry point in those modules must be
        among the sites; otherwise that import path would go untraced.
        """
        ntpboost = importlib.import_module("ntpboost")
        for info in pkgutil.walk_packages(ntpboost.__path__, "ntpboost."):
            importlib.import_module(info.name)
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "ntpboost" or key.startswith("ntpboost."))
        ] + [sys.modules[extra_module]]
        namespaces = [vars(m) for m in modules]
        targets = {}
        for label, (module_name, fns) in LAYERS.items():
            module = importlib.import_module(module_name)
            for fn_name in fns:
                name = f"{label}.{fn_name}"
                fn = getattr(module, fn_name)
                targets[id(fn)] = (fn, self._wrap(name, fn, self._counter(name)), name)
        sites = []
        for ns in namespaces:
            lists = [value for value in ns.values() if isinstance(value, list)]
            for container in [ns] + lists:
                pairs = container.items() if container is ns else enumerate(container)
                for key, value in list(pairs):
                    hit = targets.get(id(value))
                    if hit is not None and hit[0] is value:
                        sites.append((container, key, value, hit[1]))
        bound = {(id(container), key) for container, key, _, _ in sites}
        self.unbound = [
            f"{module.__name__}.{alias} imports {targets[id(fn)][2]} but was not rebound"
            for module in modules
            for alias, fn in _imported_names(module)
            if id(fn) in targets and (id(vars(module)), alias) not in bound
        ]
        return sites

    def install(self, extra_module: str) -> None:
        """Rebind every reference to an entry point to its traced wrapper."""
        if self._sites is None:
            self._sites = self._find_sites(extra_module)
        for container, key, _, wrapper in self._sites:
            container[key] = wrapper

    def uninstall(self) -> None:
        for container, key, original, _ in self._sites:
            container[key] = original

    # -- counters ------------------------------------------------------------

    def _counter(self, name: str):
        counts = self.counts

        def add(metric, value):
            counts[(self.op, metric)] += value

        def peak(metric, value):
            key = (self.op, metric)
            counts[key] = max(counts[key], value)

        if name == "rnn.engine.compile_graph":
            def count(args, kwargs, prog):
                self.last_tape_entries = len(prog.tape)
                add("rnn.engine.compile_graph.tape_entries", len(prog.tape))
        elif name == "rnn.engine.run":
            def count(args, kwargs, trace):
                prog = kwargs.get("program", args[4] if len(args) > 4 else None)
                tape = len(prog.tape) if prog is not None else self.last_tape_entries
                steps, nodes, batch = trace.values.shape
                add("rnn.engine.run.entry_steps", tape * steps)
                peak("rnn.engine.run.trace_bytes", steps * nodes * batch * 8)
        elif name == "construct.build_boosted_rnn":
            def count(args, kwargs, result):
                report = result[1]
                diff = abs(report.built_size - report.formula_size)
                peak("construct.build_boosted_rnn.size_minus_formula", diff)
        elif name == "fixedpoint.quantized_run":
            def count(args, kwargs, trace):
                add("fixedpoint.quantized_run.saturation_events", trace.saturation_events)
        else:
            count = None
        return count

    # -- aggregation -------------------------------------------------------------

    def summary(self, op_times: dict, rates: dict) -> dict:
        """Per-op means of calls, total and self time, plus counts.

        ``op_times`` maps each traced op id to its wall time and ``rates``
        to its sampled core speed, which turns every time into nominal
        seconds (see ``speed.py``); the time of an op not covered by any
        top-level span is ``unattributed_s``.
        """
        ops = len(op_times)
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        top = 0.0
        for name, start, end, parent, op in self.spans:
            if op not in op_times:
                continue
            dur = (end - start) * rates[op]
            calls[name] += 1
            total[name] += dur
            self_s[name] += dur
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur
            else:
                top += dur
        self.calls = dict(calls)
        metrics = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.calls"] = (calls[name] / ops, "calls/op")
            metrics[f"{name}.total_s"] = (total[name] / ops, "s/op")
            metrics[f"{name}.self_s"] = (self_s[name] / ops, "s/op")
        summed = defaultdict(float)
        peaks = defaultdict(float)
        for (op, metric), value in self.counts.items():
            if op in op_times:
                summed[metric] += value
                peaks[metric] = max(peaks[metric], value)
        for metric, unit in SUMMED.items():
            metrics[metric] = (summed[metric] / ops, unit)
        for metric, unit in PEAKS.items():
            metrics[metric] = (peaks[metric], unit)
        entry_steps = summed["rnn.engine.run.entry_steps"]
        metrics["rnn.engine.run.ns_per_entry_step"] = (
            self_s["rnn.engine.run"] / entry_steps * 1e9 if entry_steps else 0.0,
            "ns",
        )
        boosts = calls["boosting.boost_text"]
        metrics["distinguishers.advantage.calls_per_boost"] = (
            calls["distinguishers.advantage"] / boosts if boosts else 0.0,
            "calls/boost",
        )
        nominal = sum(wall * rates[op] for op, wall in op_times.items())
        metrics["unattributed_s"] = ((nominal - top) / ops, "s/op")
        return metrics

    def coverage_errors(self) -> list[str]:
        """Import sites not rebound, expected spans never hit and forbidden
        spans hit, by ``summary``'s ops."""
        must, must_not = EXPECTED[self.workload]
        errors = list(self.unbound)
        errors += [f"{name} never called" for name in must if not self.calls.get(name)]
        errors += [f"{name} called" for name in must_not if self.calls.get(name)]
        return errors
