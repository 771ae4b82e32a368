"""Outside-in timing of clawsq's public functions, one layer per module.

``from .graph import square`` gives every importing module its own binding,
so a wrapper is installed under each name in every namespace that binds the
original function, and the originals are put back on removal. A span's
self time is its duration minus the durations of the traced spans it
directly contains.
"""

from __future__ import annotations

import time

# layer -> public functions timed from outside. ``errors`` does no work.
LAYERS = {
    "graph": (
        "square",
        "max_clique",
        "connected_components",
        "induced_subgraph",
        "delete_vertex",
        "Coloring.is_proper_on",
    ),
    "structure": (
        "classify",
        "find_reducible_vertex",
        "neighborhood_shape",
        "krausz_partition",
        "root_graph",
    ),
    "coloring": ("color_square", "greedy_reduce", "strong_edge_color", "verify_coloring"),
    "analysis": ("find_claw", "run_lemma_suite", "q_value", "z_set"),
    "oracle": ("exact_chromatic",),
    "corpus": ("parse_dimacs", "write_dimacs"),
    "cli": ("main",),
}

# Counts computed from arguments and results at the same boundaries.
EXTRA = {
    "graph.vertices_built": "count",
    "structure.find_reducible_vertex.hit_ratio": "ratio",
    "coloring.peeled_vertices": "count",
    "analysis.lemma_reports": "count",
    "oracle.nodes_explored": "count",
    "cli.stdout_bytes": "bytes",
}

NAMESPACES = ("", ".graph", ".structure", ".coloring", ".analysis", ".oracle", ".corpus", ".cli")


def span_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA)
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    """Aggregated spans and counts for the functions in ``LAYERS``."""

    def __init__(self, modules: dict):
        # modules maps "" and ".graph" etc. to the imported clawsq modules
        self._modules = modules
        self._restore: list[tuple[object, str, object]] = []
        self._open: list[float] = []
        self._depth = dict.fromkeys(span_names(), 0)
        self.reset()

    def reset(self) -> None:
        self.calls = dict.fromkeys(span_names(), 0)
        self.self_s = dict.fromkeys(span_names(), 0.0)
        self.counts = dict.fromkeys(
            ("graph.vertices_built", "structure.find_reducible_vertex.hits",
             "coloring.peeled_vertices", "analysis.lemma_reports",
             "oracle.nodes_explored", "cli.stdout_bytes", "structure.classify.line_graph"),
            0,
        )

    def _after(self, name: str, result) -> None:
        c = self.counts
        if name in ("graph.square", "graph.delete_vertex"):
            c["graph.vertices_built"] += result.n
        elif name == "graph.induced_subgraph":
            c["graph.vertices_built"] += result[0].n
        elif name == "structure.find_reducible_vertex" and result is not None:
            c["structure.find_reducible_vertex.hits"] += 1
        elif name == "structure.classify" and result.kind == "line_graph":
            c["structure.classify.line_graph"] += 1
        elif name == "analysis.run_lemma_suite":
            c["analysis.lemma_reports"] += len(result)
        elif name == "oracle.exact_chromatic":
            c["oracle.nodes_explored"] += result.nodes_explored
        if name == "graph.delete_vertex" and self._depth["coloring.greedy_reduce"]:
            c["coloring.peeled_vertices"] += 1

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        opened = self._open
        depth = self._depth

        def traced(*args, **kwargs):
            opened.append(0.0)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += elapsed - opened.pop()
                if opened:
                    opened[-1] += elapsed
            self._after(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for layer, fns in LAYERS.items():
            home = self._modules[f".{layer}"]
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                if "." in fn_name:
                    cls_name, attr = fn_name.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    self._restore.append((cls, attr, original))
                    setattr(cls, attr, self._wrap(name, original))
                    continue
                original = getattr(home, fn_name)
                wrapper = self._wrap(name, original)
                for module in self._modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def remove(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def add_stdout(self, nbytes: int) -> None:
        self.counts["cli.stdout_bytes"] += nbytes

    def op_counts(self) -> dict[str, int]:
        """The counts the workload self-checks read around each operation."""
        return {
            "peeled": self.counts["coloring.peeled_vertices"],
            "line_graph": self.counts["structure.classify.line_graph"],
        }

    def snapshot(self) -> dict[str, float]:
        """Per-layer values accumulated since the last reset."""
        out: dict[str, float] = {}
        for name in span_names():
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        c = self.counts
        out["graph.vertices_built"] = c["graph.vertices_built"]
        calls = self.calls["structure.find_reducible_vertex"]
        hits = c["structure.find_reducible_vertex.hits"]
        out["structure.find_reducible_vertex.hit_ratio"] = hits / calls if calls else 0.0
        for key in ("coloring.peeled_vertices", "analysis.lemma_reports",
                    "oracle.nodes_explored", "cli.stdout_bytes"):
            out[key] = c[key]
        return out
