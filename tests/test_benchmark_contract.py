"""What the benchmark in ``perfbench/`` takes from clawsq, checked from ``tests/``.

The benchmark's tracer wraps clawsq functions by name (``tracer.LAYERS``),
counts peels and line-graph base cases through those wrappers, and its
workloads call ``classify(sub, w, check_claw_free=False)``; its tracer test
expects ``color_square`` to build at least one square. The benchmark's
own tests sit outside ``tests/``, so without this guard a renamed or
deleted function would pass here and break every ``peel-large`` and
``base-large`` run. Only ``perfbench/tracer.py`` is imported.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_one_peel_per_frame():
    # The benchmark counts peels by delete_vertex calls under greedy_reduce,
    # so the engine must delete exactly once per frame it records.
    tracer = load_tracer()
    mods = {ns: importlib.import_module("clawsq" + ns) for ns in tracer.NAMESPACES}
    lib = mods[""]
    g = lib.gen_random_claw_free(60, 4, 1)
    frames = mods[".coloring"]._peel(g)[1]
    tr = tracer.Tracer(mods)
    tr.install()
    try:
        lib.greedy_reduce(g)
    finally:
        tr.remove()
    assert len(frames) > 0
    assert tr.op_counts()["peeled"] == len(frames)


def test_tracer_counts_peels_and_line_graph_bases(stress_family):
    tracer = load_tracer()
    mods = {ns: importlib.import_module("clawsq" + ns) for ns in tracer.NAMESPACES}
    lib = mods[""]
    peeling = lib.gen_random_claw_free(40, 4, 1)
    line_graph = stress_family[0][3]
    tr = tracer.Tracer(mods)
    tr.install()  # raises AttributeError when a traced name is gone
    try:
        lib.color_square(peeling)
        after_peeling = tr.op_counts()
        lib.color_square(line_graph)
        after_base = tr.op_counts()
        outcome = lib.classify(line_graph, lib.max_clique(line_graph)[0], check_claw_free=False)
    finally:
        tr.remove()
    assert after_peeling["peeled"] > 0
    assert after_base["peeled"] == after_peeling["peeled"]
    assert after_base["line_graph"] > after_peeling["line_graph"]
    assert outcome.kind == "line_graph"


def test_color_square_builds_a_square():
    # The benchmark's tracer test colors a path and expects graph.square
    # among the traced calls; the final check's square is that call.
    tracer = load_tracer()
    mods = {ns: importlib.import_module("clawsq" + ns) for ns in tracer.NAMESPACES}
    lib = mods[""]
    tr = tracer.Tracer(mods)
    tr.install()
    try:
        lib.color_square(lib.build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))
        snap = tr.snapshot()
    finally:
        tr.remove()
    assert snap["coloring.color_square.calls"] == 1
    assert snap["graph.square.calls"] >= 1
