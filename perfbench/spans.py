"""In-memory span tracer that wraps powerchroma's layer-boundary functions.

The tracer lives entirely in the benchmark: ``install`` replaces each traced
function with a timing wrapper in every ``powerchroma`` module that holds it
(so ``toolkit.construct_group`` and ``exchange.build_power_graph`` are traced
along with the originals), and ``uninstall`` puts the originals back. Hot
helpers such as ``make_edge`` and ``EdgeColoring.assign`` are deliberately not
wrapped: they run millions of times per pass and a wrapper would swamp them.

A span is ``[name, start, end, parent, group]``; ``parent`` is the index of
the enclosing span (-1 at the root) and ``group`` the spec being processed.
``layer_metrics`` turns one traced pass into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import sys
from collections import Counter
from time import perf_counter

# (module, function) pairs traced at the layer boundaries. The span name is
# "<module>.<function>".
TRACED = (
    ("groups", "construct_group"),
    ("groups", "validate_table"),
    ("powergraph", "build_power_graph"),
    ("powergraph", "graph_to_json"),
    ("powergraph", "graph_from_json"),
    ("overfull", "deficiency_report"),
    ("overfull", "predict_class"),
    ("overfull", "core_class1_check"),
    ("coloring", "round_robin_coloring"),
    ("coloring", "restrict_coloring"),
    ("coloring", "rotation_classes"),
    ("coloring", "base_rotation_coloring"),
    ("coloring", "verify_proper"),
    ("coloring", "verify_assignment"),
    ("coloring", "coloring_to_csv"),
    ("coloring", "coloring_to_json"),
    ("coloring", "parse_coloring_csv"),
    ("coloring", "parse_coloring_json"),
    ("exchange", "color_power_graph"),
    ("exchange", "exchange_coloring"),
    ("oracle", "exact_chromatic_index"),
    ("oracle", "is_k_edge_colorable"),
    ("oracle", "misra_gries_coloring"),
    ("toolkit", "generate_catalog"),
    ("toolkit", "run_survey"),
    ("toolkit", "survey_group"),
)

# Spans whose first argument names the group being processed.
GROUP_SPANS = {"toolkit.survey_group"}
# Serializers whose returned text counts toward coloring.write_bytes.
WRITERS = {"coloring.coloring_to_csv", "coloring.coloring_to_json", "powergraph.graph_to_json"}
READERS = {"coloring.parse_coloring_csv", "coloring.parse_coloring_json", "powergraph.graph_from_json"}
EXCHANGE_STATS = ("attempts", "exchanges", "inversions", "restores")

# Inclusive layer times: metric -> (span names, ancestor names that exclude a span).
# A span counts only when no ancestor is in either set, so recursion (product
# factors) and calls nested inside another counted span are not counted twice.
LAYER_TIMES = {
    "groups.construct_ms": ({"groups.construct_group"}, set()),
    "groups.validate_ms": ({"groups.validate_table"}, set()),
    "powergraph.build_ms": ({"powergraph.build_power_graph"}, set()),
    "overfull.analyze_ms": (
        {"overfull.deficiency_report", "overfull.predict_class", "overfull.core_class1_check"},
        set(),
    ),
    "coloring.construct_ms": (
        {
            "coloring.round_robin_coloring",
            "coloring.restrict_coloring",
            "coloring.rotation_classes",
            "coloring.base_rotation_coloring",
        },
        set(),
    ),
    "coloring.verify_ms": ({"coloring.verify_proper"}, set()),
    "coloring.write_ms": (WRITERS, set()),
    "coloring.read_ms": (READERS, set()),
    "coloring.read_verify_ms": ({"coloring.verify_assignment"}, {"coloring.verify_proper"}),
    "exchange.color_ms": ({"exchange.exchange_coloring"}, set()),
    "oracle.search_ms": (
        {"oracle.exact_chromatic_index", "oracle.is_k_edge_colorable", "oracle.misra_gries_coloring"},
        set(),
    ),
}
# Self times: metric -> span names whose duration minus direct children is summed.
SELF_TIMES = {
    "exchange.dispatch_self_ms": {"exchange.color_power_graph"},
    "toolkit.self_ms": {"toolkit.run_survey", "toolkit.survey_group"},
}


class NullTracer:
    """Stand-in for untraced passes: group scopes cost nothing."""

    def group(self, spec):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.current_group: str | None = None
        self.counters: Counter = Counter()
        self.missing: set[str] = set()
        self._states: list = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> list:
        record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.current_group]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def group(self, spec: str):
        """Span for one group driven by the benchmark itself."""
        previous = self.current_group
        self.current_group = spec
        record = self._open("bench.group")
        try:
            yield
        finally:
            self._close(record)
            self.current_group = previous

    def _wrap(self, fn, name: str):
        tracer = self
        sets_group = name in GROUP_SPANS
        counts_bytes = name in WRITERS
        harvests = name == "exchange.exchange_coloring"

        def traced(*args, **kwargs):
            previous = tracer.current_group
            if sets_group and args:
                tracer.current_group = str(args[0])
            record = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(record)
                tracer.current_group = previous
                if harvests:
                    tracer.harvest_states()
            if counts_bytes:
                tracer.counters["coloring.write_bytes"] += len(result.encode("utf-8"))
            return result

        return traced

    # -- hooks ---------------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "powerchroma" or key.startswith("powerchroma."))]
        for module_name, func_name in TRACED:
            name = f"{module_name}.{func_name}"
            home = sys.modules.get(f"powerchroma.{module_name}")
            original = getattr(home, func_name, None) if home is not None else None
            if not callable(original):
                self.missing.add(name)
                continue
            wrapper = self._wrap(original, name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        self._hook_init("powergraph", "Graph", self._count_graph)
        self._hook_init("exchange", "ExchangeState", self._states.append)

    def _hook_init(self, module_name: str, class_name: str, record) -> None:
        module = sys.modules.get(f"powerchroma.{module_name}")
        cls = getattr(module, class_name, None) if module is not None else None
        if not isinstance(cls, type):
            self.missing.add(f"{module_name}.{class_name}")
            return
        original = cls.__init__

        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            record(obj)

        self._patch(cls, "__init__", init)

    def _count_graph(self, graph) -> None:
        self.counters["powergraph.graphs"] += 1

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        self.harvest_states()
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def harvest_states(self) -> None:
        """Add the final stats of every ExchangeState created since the last harvest."""
        for state in self._states:
            stats = getattr(state, "stats", None) or {}
            for key in EXCHANGE_STATS:
                if key in stats:
                    self.counters[f"exchange.{key}"] += stats[key]
                else:
                    self.missing.add(f"exchange.{key}")
        self._states.clear()

    # -- aggregation -----------------------------------------------------------

    def span_records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "group": g}
            for n, s, e, p, g in self.spans
        ]

    def _layer_ms(self, names: set, exclude: set) -> float:
        blocked = names | exclude
        total = 0.0
        spans = self.spans
        for name, start, end, parent, _ in spans:
            if name not in names:
                continue
            while parent >= 0 and spans[parent][0] not in blocked:
                parent = spans[parent][3]
            if parent < 0:
                total += end - start
        return total * 1000.0

    def _self_ms(self, names: set) -> float:
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total = 0.0
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if name in names:
                total += end - start - child_time[i]
        return total * 1000.0

    def _calls(self, name: str) -> int | None:
        if name in self.missing:
            return None
        return sum(1 for span in self.spans if span[0] == name)

    def _hooked(self, names) -> bool:
        return not set(names) <= self.missing

    def layer_metrics(self, groups: int) -> dict:
        """Per-layer metrics of the spans recorded so far; None where a hook is gone."""
        out: dict = {}
        for metric, (names, exclude) in LAYER_TIMES.items():
            out[metric] = self._layer_ms(names, exclude) if self._hooked(names) else None
        for metric, names in SELF_TIMES.items():
            out[metric] = self._self_ms(names) if self._hooked(names) else None
        out["groups.validate_calls"] = self._calls("groups.validate_table")
        out["powergraph.build_calls"] = self._calls("powergraph.build_power_graph")
        out["groups.count"] = groups
        graphs = None if "powergraph.Graph" in self.missing else self.counters["powergraph.graphs"]
        out["powergraph.graphs"] = graphs
        out["powergraph.graphs_per_group"] = _ratio(graphs, groups)
        out["coloring.write_bytes"] = (
            self.counters["coloring.write_bytes"] if self._hooked(WRITERS) else None
        )
        hooked = "exchange.ExchangeState" not in self.missing
        for key in EXCHANGE_STATS:
            name = f"exchange.{key}"
            out[name] = self.counters[name] if hooked and name not in self.missing else None
        out["exchange.attempts_per_exchange"] = _ratio(
            out["exchange.attempts"], out["exchange.exchanges"]
        )
        return out


def _ratio(numerator, base):
    """numerator / base; 0 when the base is 0, None when either side is unknown."""
    if numerator is None or base is None:
        return None
    return numerator / base if base else 0.0
