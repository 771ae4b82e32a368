"""Tests of the benchmark itself: generator, independent checker, tiny runs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest

import check
import rootgen
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _girth(n, edges) -> int:
    adj = check.adjacency(n, edges)
    best = n + 1
    for s in range(n):
        dist = {s: 0}
        parent = {s: -1}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


@pytest.mark.parametrize("n,d", [(40, 3), (60, 3), (40, 4), (120, 4)])
def test_root_is_regular_connected_with_girth_five(n, d):
    edges = rootgen.regular_girth5_root(n, d, seed=5)
    assert len(edges) == n * d // 2
    assert len(set(edges)) == len(edges)
    assert all(u < v for u, v in edges)
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    assert degree == [d] * n
    assert _girth(n, edges) >= 5
    reach = {0}
    adj = check.adjacency(n, edges)
    frontier = [0]
    while frontier:
        frontier = [w for u in frontier for w in adj[u] if w not in reach]
        reach.update(frontier)
    assert len(reach) == n


def test_root_depends_only_on_seed():
    assert rootgen.regular_girth5_root(80, 3, 9) == rootgen.regular_girth5_root(80, 3, 9)
    assert rootgen.regular_girth5_root(80, 3, 9) != rootgen.regular_girth5_root(80, 3, 10)


def test_line_graph_of_root_has_clique_number_degree():
    root = rootgen.regular_girth5_root(40, 4, 1)
    lg = rootgen.line_graph(root)
    assert len(lg) == 40 * 6
    assert check.clique_number(check.adjacency(len(root), lg)) == 4


def test_checker_accepts_square_coloring_and_rejects_bad_ones():
    n, edges = check.parse_edges("c path\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    adj = check.adjacency(n, edges)
    assert check.clique_number(adj) == 2
    assert check.coloring_problem(adj, 2, [0, 1, 2, 0]) is None
    assert "distance 2" in check.coloring_problem(adj, 2, [0, 1, 0, 2])
    assert "adjacent" in check.coloring_problem(adj, 2, [0, 0, 1, 2])
    assert "uncolored" in check.coloring_problem(adj, 2, [0, 1, 2, -1])
    assert "3 colors for 4 vertices" in check.coloring_problem(adj, 2, [0, 1, 2])
    assert "bound" in check.coloring_problem(adj, 2, [0, 1, 2, 5])


def test_checker_palette_bound_follows_the_paper():
    assert [check.palette_bound(w) for w in (1, 2, 3, 4, 5, 6)] == [5, 5, 10, 22, 41, 61]


def test_tracer_wraps_every_binding_and_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    import importlib

    mods = {ns: importlib.import_module("clawsq" + ns) for ns in tracer.NAMESPACES}
    lib = mods[""]
    original = mods[".graph"].square
    tr = tracer.Tracer(mods)
    tr.install()
    try:
        assert mods[".coloring"].square is not original
        assert mods[".coloring"].square is lib.square is mods[".graph"].square
        g = lib.build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        lib.color_square(g)
        snap = tr.snapshot()
    finally:
        tr.remove()
    assert mods[".coloring"].square is original and lib.square is original
    assert "is_proper_on" in vars(lib.Coloring) and not hasattr(
        lib.Coloring.is_proper_on, "__wrapped__"
    )
    assert snap["coloring.color_square.calls"] == 1
    assert snap["graph.square.calls"] >= 1
    assert snap["coloring.color_square.self_s"] > 0


def test_stdout_bytes_ignores_timing_digits():
    import run

    report = '{\n  "n": 12,\n  "timings": {\n    "elapsed_s": %s\n  }\n}\n'
    assert run.stdout_bytes(report % "0.0123456789") == run.stdout_bytes(report % "1.5e-05")
    assert run.stdout_bytes(report % "1") == len(report % "1")


def _run(*args, cwd=ROOT, optimize=False):
    cmd = [sys.executable] + (["-O"] if optimize else [])
    cmd += [str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc) -> tuple[dict, dict]:
    record, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return record["record"], result


WORKLOADS = ["corpus-batch", "peel-large", "base-large", "dense-analyze"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_runs_check_outputs_and_agree_traced_and_untraced(workload):
    tiny = ("--workload", workload, "--seed", "3", "--seconds", "0", "--size", "0.1")
    plain = _run(*tiny, "--trace", "0")
    assert plain.returncode == 0, plain.stderr
    record, result = _result(plain)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {
        "setup_s", "vertices_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mib"
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["environment"]["optimize"] == 0

    traced = _run(*tiny, "--trace", "1")
    assert traced.returncode == 0, traced.stderr
    traced_record, traced_result = _result(traced)
    assert traced_result["correct"]
    assert traced_record["digest"] == record["digest"]
    assert list(traced_result["metrics"]) == list(tracer.metric_units())
    layers = {k: v["value"] for k, v in traced_result["metrics"].items()}
    if workload == "base-large":
        assert layers["coloring.peeled_vertices"] == 0
        assert layers["graph.delete_vertex.calls"] == 0
        assert layers["structure.root_graph.calls"] > 0
    if workload == "peel-large":
        assert layers["coloring.peeled_vertices"] > 0
    if workload == "corpus-batch":
        assert layers["oracle.nodes_explored"] > 0 and layers["analysis.lemma_reports"] > 0
    assert not (ROOT / ".perfbench-work" / workload).exists()


def test_refuses_to_run_under_optimize():
    proc = _run("--workload", "peel-large", "--seed", "1", "--seconds", "0", optimize=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "-O" in proc.stderr


def test_fails_without_clawsq_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "peel-large", "--seed", "1", "--seconds", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
