"""Spans and counters around the public entry points of each invpressure layer.

Nothing here edits the program's files: ``Tracer.install`` rebinds each
traced function, in every ``invpressure`` module that holds it, to a wrapper
that records a span (name, parent, start, end), and wraps the unit-expansion
methods of both language classes to count expansions.  ``uninstall`` puts the
originals back.  Spans stay in memory until ``write``.

A layer's self time is the duration of its spans minus the parts covered by
their child spans.  The span around ``cli.run`` is the root of each job; its
self time is the CSV and manifest emission.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (defining module, function, span name): the public entry points, per layer
TRACED = (
    ("systems", "compile_sft", "systems.compile"),
    ("systems", "itinerary_language", "systems.compile"),
    ("systems", "validate_invariant_partition", "systems.compile"),
    ("symbolic", "build_cylinder_tree", "symbolic.tree"),
    ("capacity", "level_log_sums", "capacity.level_sums"),
    ("capacity", "spectral_pressure", "capacity.oracle"),
    ("capacity", "cycle_mean_pressure", "capacity.oracle"),
    ("capacity", "bowen_root", "capacity.root"),
    ("induced", "induced_sum", "induced.induced_sum"),
    ("induced", "characterization_scan", "induced.scan"),
    ("covers", "pp_pressure", "covers.pp_pressure"),
    ("covers", "bs_dimension", "covers.bs_dimension"),
    ("covers", "cover_solution", "covers.cover_solution"),
    ("covers", "frostman_measure", "covers.flow"),
    ("covers", "weighted_cover_value", "covers.flow"),
    ("covers", "sandwich_check", "covers.sandwich"),
    ("measures", "vp_check", "measures.vp_check"),
    ("measures", "cylinder_masses", "measures.cylinder_masses"),
    ("measures", "lower_bs_pressure", "measures.lower_bs"),
    ("cli", "run", "cli.run"),
)

SPAN_NAMES = sorted({name for _, _, name in TRACED} | {"cli.parse", "cli.execute"})

#: per-layer metrics: name -> unit, in the order they are reported
METRICS = {
    "cli.parse_s": "s", "cli.execute_s": "s", "cli.emit_s": "s",
    "systems.compile_s": "s", "systems.compile_calls": "count",
    "symbolic.unit_expansions": "count", "symbolic.tree_s": "s", "symbolic.tree_nodes": "count",
    "capacity.level_sums_s": "s", "capacity.level_sums_steps": "count",
    "capacity.oracle_s": "s", "capacity.oracle_calls": "count",
    "capacity.root_s": "s", "capacity.root_iterations": "count",
    "capacity.oracle_calls_per_root": "1",
    "induced.induced_sum_s": "s", "induced.induced_sum_calls": "count",
    "induced.scan_s": "s", "induced.scan_points": "count",
    "covers.pp_pressure_s": "s", "covers.pp_pressure_calls": "count",
    "covers.jump_iterations": "count", "covers.bs_dimension_s": "s",
    "covers.root_iterations": "count", "covers.cover_solution_s": "s",
    "covers.cover_words": "count", "covers.cover_words_per_tree_node": "1",
    "covers.flow_s": "s", "covers.frostman_leaves": "count", "covers.sandwich_s": "s",
    "measures.vp_check_s": "s", "measures.cylinder_masses_s": "s", "measures.lower_bs_s": "s",
    "trace.overhead_s": "s", "trace.uncovered_s": "s",
}


def _on_result(tracer: "Tracer", name: str, args, kwargs, result) -> None:
    """Counters read off a traced call's arguments and result."""
    c = tracer.counts
    c[name + ".calls"] += 1
    if name == "capacity.level_sums":
        c["capacity.level_sums_steps"] += args[2] if len(args) > 2 else kwargs["n_max"]
    elif name == "capacity.oracle" and tracer.open["capacity.root"]:
        c["capacity.root_oracle_calls"] += 1
    elif name == "capacity.root":
        c["capacity.root_iterations"] += result.iterations
    elif name == "induced.scan":
        c["induced.scan_points"] += len(result)
    elif name == "covers.pp_pressure":
        c["covers.jump_iterations"] += result.iterations
    elif name == "covers.bs_dimension":
        c["covers.root_iterations"] += result.certificate.iterations
        c["covers.jump_iterations"] += result.jump.iterations
    elif name == "covers.cover_solution":
        c["covers.cover_words"] += len(result.words)
    elif name == "covers.flow" and hasattr(result, "masses"):
        c["covers.frostman_leaves"] += len(result.masses)


class Tracer:
    """In-memory spans and counters for one traced pass over a job list."""

    def __init__(self, program):
        self.program = program  # the imported invpressure package
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.stack: list[int] = []
        self.open: Counter = Counter()
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------
    def wrap(self, name: str, fn):
        spans, stack, open_ = self.spans, self.stack, self.open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(idx)
            open_[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][3] = clock()
                stack.pop()
                open_[name] -= 1
            _on_result(self, name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counting(self, fn):
        counts, open_ = self.counts, self.open

        def expand(*args):
            result = fn(*args)
            counts["symbolic.unit_expansions"] += 1
            if open_["symbolic.tree"]:
                counts["symbolic.tree_nodes"] += len(result)
                if open_["covers.cover_solution"]:
                    counts["covers.cover_solution_tree_nodes"] += len(result)
            return result

        return expand

    # -- installation -------------------------------------------------------
    def _rebind(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        prefix = self.program.__name__
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == prefix or n.startswith(prefix + ".")]
        for mod_name, fn_name, span in TRACED:
            original = getattr(sys.modules[f"{prefix}.{mod_name}"], fn_name)
            wrapper = self.wrap(span, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, attr, wrapper)
        cli = sys.modules[f"{prefix}.cli"]
        run_cls = cli.Run
        self._rebind(cli, "Run", self.wrap("cli.parse", run_cls))
        self._rebind(run_cls, "execute", self.wrap("cli.execute", run_cls.execute))
        symbolic = sys.modules[f"{prefix}.symbolic"]
        for cls in (symbolic.SftLanguage, symbolic.ItineraryLanguage):
            for meth in ("initial_units", "unit_successors"):
                self._rebind(cls, meth, self._counting(getattr(cls, meth)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- read-out -----------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for name, _parent, start, end in self.spans:
            out[name] += end - start
        for name, parent, start, end in self.spans:
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return out

    def root_time(self) -> float:
        return sum(end - start for _n, parent, start, end in self.spans if parent < 0)

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        st, c = self.self_times(), self.counts
        roots = max(c["capacity.root.calls"], 1)
        tree_nodes = c["covers.cover_solution_tree_nodes"]
        values = {
            "cli.parse_s": st["cli.parse"],
            "cli.execute_s": st["cli.execute"],
            "cli.emit_s": st["cli.run"],
            "systems.compile_calls": c["systems.compile.calls"],
            "capacity.oracle_calls": c["capacity.oracle.calls"],
            "capacity.oracle_calls_per_root": c["capacity.root_oracle_calls"] / roots,
            "induced.induced_sum_calls": c["induced.induced_sum.calls"],
            "covers.pp_pressure_calls": c["covers.pp_pressure.calls"],
            "covers.cover_words_per_tree_node": c["covers.cover_words"] / max(tree_nodes, 1),
            "trace.overhead_s": traced_wall - untraced_wall,
            "trace.uncovered_s": traced_wall - self.root_time(),
        }
        for metric in METRICS:
            if metric in values:
                continue
            if metric.endswith("_s"):
                values[metric] = st[metric[:-2]]
            else:
                values[metric] = c[metric]
        return {m: values[m] for m in METRICS}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)
