"""Span tracing around the program's public functions.

The traced run replaces each listed function everywhere a caller looks it
up (its home module, the modules that import it by name, and the package
namespace), and methods on their class.  Each call records a span (name,
start, end, parent, instance id, outcome); spans stay in memory and are
written out when the run ends.  `Tracer.restore` puts every original back.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict

MARK = "__perfbench_span__"

# home module -> functions (Class.method for methods), named "<module>.<name>"
TRACED = {
    "bounds": ("min_edges", "ks_edges"),
    "crossing": ("optimize_p", "cr_nmp", "counting_lower", "linear_lower",
                 "crossing_lemma_lower"),
    "verifier": ("verify_albertson", "tail_certificate", "render_report",
                 "parse_report", "compare_with_reference", "lemma357_check"),
    "graph_lab": ("parse_graph6", "chromatic_number", "is_critical",
                  "Graph.without_edge", "find_topological_clique",
                  "SubdivisionWitness.verify"),
    "cli": ("run",),
}

# functions whose spans are also counted by outcome
OUTCOMES = {
    "graph_lab.is_critical": lambda result: "yes" if result else "no",
    "graph_lab.find_topological_clique": lambda result: "no" if result is None else "yes",
}

# functions with wrapped callees, whose self time is reported
SELF_TIMED = ("bounds.min_edges", "verifier.verify_albertson", "verifier.lemma357_check",
              "graph_lab.is_critical", "cli.run")

# (parent, child) pairs whose time inside the parent is reported
CHILD_TIMED = (("graph_lab.is_critical", "graph_lab.chromatic_number"),)


def span_names() -> list[str]:
    return [f"{home}.{name}" for home, names in TRACED.items() for name in names]


def find_wrappers(modules: dict) -> list[str]:
    """Every wrapper installed in the given modules or their traced classes."""
    found = []
    for mod in modules.values():
        for attr, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod.__name__}.{attr}")
    graph_lab = modules["graph_lab"]
    for cls in (graph_lab.Graph, graph_lab.SubdivisionWitness):
        for attr, value in vars(cls).items():
            if hasattr(value, MARK):
                found.append(f"{cls.__name__}.{attr}")
    return found


class Tracer:
    """Installs span wrappers on construction; `restore` removes them."""

    def __init__(self, modules: dict, abort: type, max_spans: int = 100_000):
        self.abort = abort            # exception that marks a capped call
        self.max_spans = max_spans
        self.spans: list[tuple] = []  # see `write` for the fields
        self.dropped = 0
        self.instance = -1
        self.calls = defaultdict(int)
        self.busy_ns = defaultdict(int)
        self.child_ns = defaultdict(int)          # name -> time in wrapped callees
        self.pair_ns = defaultdict(int)           # (parent, child) -> time
        self._stack: list[list] = []
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []
        self._install(modules)

    def _install(self, modules: dict) -> None:
        for home, names in TRACED.items():
            mod = modules[home]
            for name in names:
                span = f"{home}.{name}"
                if "." in name:
                    cls_name, attr = name.split(".")
                    owner = getattr(mod, cls_name)
                    self._swap(owner, attr, self._wrap(span, vars(owner)[attr]))
                    continue
                original = getattr(mod, name)
                wrapper = self._wrap(span, original)
                for other in modules.values():
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            self._swap(other, attr, wrapper)

    def _swap(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        classify = OUTCOMES.get(name)
        abort = self.abort
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = self._open(name, clock())
            outcome = "error"
            try:
                result = fn(*args, **kwargs)
                outcome = classify(result) if classify else "ok"
                return result
            except abort:
                outcome = "undecided"
                raise
            finally:
                self._close(frame, clock(), outcome)

        setattr(wrapper, MARK, name)
        wrapper.__wrapped__ = fn
        return wrapper

    def _open(self, name: str, start: int) -> list:
        parent = self._stack[-1] if self._stack else None
        frame = [name, start, self._next_id, parent]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, end: int, outcome: str) -> None:
        while self._stack and self._stack[-1] is not frame:
            self._stack.pop()  # a frame left open by an interrupted wrapper
        if self._stack:
            self._stack.pop()
        name, start, span_id, parent = frame
        dur = end - start
        self.calls[name] += 1
        self.busy_ns[name] += dur
        if name in OUTCOMES:
            self.calls[f"{name}.{outcome}"] += 1
            self.busy_ns[f"{name}.{outcome}"] += dur
        if parent is not None:
            self.child_ns[parent[0]] += dur
            self.pair_ns[(parent[0], name)] += dur
        if len(self.spans) < self.max_spans:
            self.spans.append((name, start, end, parent[2] if parent else None,
                               self.instance, outcome, span_id))
        else:
            self.dropped += 1

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: calls, busy and self time for every span name."""
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.busy_ms"] = (self.busy_ns[name] / 1e6, "ms")
            if name in SELF_TIMED:
                out[f"{name}.self_ms"] = ((self.busy_ns[name] - self.child_ns[name]) / 1e6, "ms")
        for name in OUTCOMES:
            for outcome in ("yes", "no", "undecided"):
                out[f"{name}.{outcome}.calls"] = (self.calls[f"{name}.{outcome}"], "count")
                out[f"{name}.{outcome}.busy_ms"] = (self.busy_ns[f"{name}.{outcome}"] / 1e6, "ms")
        for parent, child in CHILD_TIMED:
            short = child.split(".")[-1]
            out[f"{parent}.{short}_ms"] = (self.pair_ns[(parent, child)] / 1e6, "ms")
        return out

    def write(self, path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "instance", "outcome", "id")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
