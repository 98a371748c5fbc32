"""Span tracing of seqsubmod's six modules, installed from outside the package.

``Tracer.install`` replaces the public functions and methods of ``cli``,
``files``, ``core``, ``algorithms`` and ``harness`` with wrappers that record
one span per call: (id, parent id, operation id, layer, name, start, end).
Every module namespace that holds the original object gets the wrapper, so
calls that go through ``from .x import name`` bindings are traced too.

Oracle work in ``functions`` (constructors, ``__call__``, ``marginal``,
batched ``gains``/``add``) and every ``random.Random`` seeding inside
``algorithms`` are too frequent to record one by one; they are aggregated per
parent span as (calls, seconds, items).  A leaf called from inside another
leaf (``ComplementFn`` calling its base) is counted once, at the outer call.

Only methods that exist are wrapped and none are added, so ``hasattr`` probes
in the solvers see the same attributes as without tracing.  Spans stay in
memory until ``write``; self time is a span's duration minus what its child
spans and leaves cover.
"""

from __future__ import annotations

import functools
import os
import random
import time
from collections import defaultdict

LAYERS = ("cli", "files", "functions", "core", "algorithms", "harness")

SPAN_FUNCTIONS = {
    "cli": ("main",),
    "files": ("read_instance", "write_instance", "read_experiment", "write_results",
              "read_results", "synthetic_covdiv_instance", "synthetic_modular_instance"),
    "core": ("evaluate_F", "marginal_gain", "telescoping_value",
             "homogeneous_bundle", "heterogeneous_bundle"),
    "algorithms": ("sampling_greedy", "presampled_greedy", "fixed_length_solve",
                   "homogeneous_first_half", "alg2_second_half", "sampling_greedy_j",
                   "homogeneous_solve", "brute_force", "baseline_covdiv",
                   "baseline_quality", "verify_trace"),
    "harness": ("comparative_experiment", "run_monte_carlo", "bound_check", "make_weights"),
}
SPAN_METHODS = {"files": {"Instance": ("oracle", "bundle")}}

ORACLE_CLASSES = ("ModularPenaltyFn", "CoverageFn", "ComplementFn", "CoverageDiversityFn")
LEAF_METHODS = {
    "construct": {cls: ("__init__",) for cls in ORACLE_CLASSES},
    "value": {cls: ("__call__", "diversity_value") for cls in ORACLE_CLASSES},
    "marginal": {cls: ("marginal", "diversity_marginal") for cls in ORACLE_CLASSES},
    "gains": {"CoverageDiversityState": ("gains", "diversity_gains", "add")},
}
SIZED_LEAVES = ("value",)
FUNCTION_LEAVES = ("construct", "value", "marginal", "gains")

SOLVERS = tuple(n for n in SPAN_FUNCTIONS["algorithms"] if n not in ("brute_force", "verify_trace"))

SETUP_OP = -1


class _RandomModule:
    """Stands in for the ``random`` module inside ``seqsubmod.algorithms``."""

    def __init__(self, real, factory):
        self._real = real
        self.Random = factory

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """In-memory span recorder; ``op`` tags spans with the current operation."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.leaves: dict = {}
        self.greedy: dict = {}      # sid -> (considered, accepted)
        self.bytes_io: dict = {}    # sid -> bytes of the file read or written
        self.op = SETUP_OP
        self._stack = [0]
        self._next = 1
        self._in_leaf = False
        self._patches: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, layer, name, fn, on_result=None):
        tracer = self
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next
            tracer._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, tracer.op, layer, name, t0, t1))
            if on_result is not None:
                on_result(sid, args, kwargs, result)
            return result
        return wrapper

    def _leaf(self, kind, fn):
        tracer = self
        stack = self._stack
        leaves = self.leaves
        sized = kind in SIZED_LEAVES
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._in_leaf:
                return fn(*args, **kwargs)
            tracer._in_leaf = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                tracer._in_leaf = False
                key = (stack[-1], kind)
                agg = leaves.get(key)
                if agg is None:
                    agg = leaves[key] = [0, 0.0, 0]
                agg[0] += 1
                agg[1] += dt
                if sized:
                    agg[2] += len(args[1])
        return wrapper

    def _on_greedy(self, sid, args, kwargs, result):
        trace = result[1]
        self.greedy[sid] = (len(trace.considered), sum(c for _, _, c in trace.considered))

    def _on_path(self, sid, args, kwargs, result):
        self.bytes_io[sid] = os.path.getsize(args[0] if args else kwargs["path"])

    # -- install / uninstall ------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import seqsubmod
        from seqsubmod import algorithms, cli, core, files, functions, harness

        modules = {"cli": cli, "files": files, "functions": functions, "core": core,
                   "algorithms": algorithms, "harness": harness}
        package = (seqsubmod, *modules.values())
        hooks = {"sampling_greedy": self._on_greedy, "read_instance": self._on_path,
                 "write_results": self._on_path}
        for layer, names in SPAN_FUNCTIONS.items():
            for name in names:
                original = getattr(modules[layer], name, None)
                if not callable(original):
                    continue
                wrapper = self._span(layer, name, original, hooks.get(name))
                for module in package:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        for layer, classes in SPAN_METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[layer], cls_name, None)
                for meth in methods:
                    if cls is not None and meth in vars(cls):
                        self._patch(cls, meth, self._span(layer, f"{cls_name}.{meth}",
                                                          vars(cls)[meth]))
        for kind, classes in LEAF_METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(functions, cls_name, None)
                for meth in methods:
                    if cls is not None and meth in vars(cls):
                        self._patch(cls, meth, self._leaf(kind, vars(cls)[meth]))
        if vars(algorithms).get("random") is random:
            self._patch(algorithms, "random",
                        _RandomModule(random, self._leaf("rng", random.Random)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans, then leaf aggregates, as tab-separated lines."""
        with open(path, "w") as fh:
            fh.write("span\tid\tparent\top\tlayer\tname\tstart\tend\n")
            for sid, parent, op, layer, name, t0, t1 in self.spans:
                fh.write(f"span\t{sid}\t{parent}\t{op}\t{layer}\t{name}\t{t0!r}\t{t1!r}\n")
            fh.write("leaf\tparent\tkind\tcalls\tseconds\titems\n")
            for (parent, kind), (calls, secs, items) in self.leaves.items():
                fh.write(f"leaf\t{parent}\t{kind}\t{calls}\t{secs!r}\t{items}\n")

    def layer_metrics(self, ops: int, setups: int, oracle_calls: float) -> dict:
        """Per-layer metrics of the traced operations (op >= 0), averaged per
        operation; ``files.write_instance_s`` is per traced set-up instead.

        Times are self times, except ``algorithms.brute_force_s``, which
        includes the ``evaluate_F`` calls that score each enumerated sequence.
        ``share.<layer>`` is the layer's self time over the time of the
        outermost spans (the calls the benchmark makes).
        """
        covered = defaultdict(float)
        by_id = {}
        for span in self.spans:
            sid, parent, _, _, _, t0, t1 = span
            covered[parent] += t1 - t0
            by_id[sid] = span
        leaf_totals = defaultdict(lambda: [0, 0.0, 0])
        for (parent, kind), (calls, secs, items) in self.leaves.items():
            covered[parent] += secs
            op = by_id[parent][2] if parent in by_id else SETUP_OP
            if op != SETUP_OP:
                tot = leaf_totals[kind]
                tot[0] += calls
                tot[1] += secs
                tot[2] += items

        layer_self = defaultdict(float)
        named_self = defaultdict(float)
        named_calls = defaultdict(int)
        io_bytes = defaultdict(int)
        total = 0.0
        considered = accepted = 0
        harness_rounds = brute_sequences = 0
        brute_total = 0.0
        setup_write = 0.0
        for sid, parent, op, layer, name, t0, t1 in self.spans:
            own = (t1 - t0) - covered[sid]
            if op == SETUP_OP:
                if name == "write_instance":
                    setup_write += own
                continue
            if parent == 0:
                total += t1 - t0
            if name == "brute_force":
                brute_total += t1 - t0
            layer_self[layer] += own
            named_self[name] += own
            named_calls[name] += 1
            io_bytes[name] += self.bytes_io.get(sid, 0)
            if sid in self.greedy:
                c, a = self.greedy[sid]
                considered += c
                accepted += a
            if name == "evaluate_F" and parent in by_id:
                parent_span = by_id[parent]
                if parent_span[3] == "harness":
                    harness_rounds += 1
                elif parent_span[4] == "brute_force":
                    brute_sequences += 1

        functions_s = sum(leaf_totals[k][1] for k in FUNCTION_LEAVES)
        layer_self["functions"] += functions_s
        layer_self["algorithms"] += leaf_totals["rng"][1]
        per = 1.0 / max(ops, 1)
        m = {
            "cli.self_s": layer_self["cli"] * per,
            "files.read_instance_s": named_self["read_instance"] * per,
            "files.read_instance_mb": io_bytes["read_instance"] / 1e6 * per,
            "files.write_instance_s": setup_write / max(setups, 1),
            "files.write_results_s": named_self["write_results"] * per,
            "files.write_results_mb": io_bytes["write_results"] / 1e6 * per,
        }
        for kind in FUNCTION_LEAVES:
            calls, secs, items = leaf_totals[kind]
            m[f"functions.{kind}_calls"] = calls * per
            m[f"functions.{kind}_s"] = secs * per
            if kind in SIZED_LEAVES:
                m[f"functions.{kind}_items"] = items * per
        m["core.evaluate_F_calls"] = named_calls["evaluate_F"] * per
        m["core.evaluate_F_s"] = named_self["evaluate_F"] * per
        m["core.oracle_calls"] = oracle_calls
        m["algorithms.solve_calls"] = sum(named_calls[n] for n in SOLVERS) * per
        m["algorithms.solve_s"] = sum(named_self[n] for n in SOLVERS) * per
        m["algorithms.considered"] = considered * per
        m["algorithms.accepted"] = accepted * per
        m["algorithms.accept_ratio"] = accepted / considered if considered else 0.0
        m["algorithms.brute_force_s"] = brute_total * per
        m["algorithms.brute_force_sequences"] = brute_sequences * per
        m["algorithms.rng_seeds"] = leaf_totals["rng"][0] * per
        m["algorithms.rng_seed_s"] = leaf_totals["rng"][1] * per
        m["harness.rounds"] = harness_rounds * per
        m["harness.self_s"] = layer_self["harness"] * per
        for layer in LAYERS:
            m[f"share.{layer}"] = layer_self[layer] / total if total > 0 else 0.0
        return m

