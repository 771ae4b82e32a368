import json
import os
import random
import shlex
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import (
    backtracking_base_root,
    disjoint_union,
    k2_join_cliques,
    one_color_matching,
    open_edge_masks,
    random_graph,
    record_calls,
)

from clawsq import analysis, cli, coloring, graph, structure
from clawsq.cli import main
from clawsq.corpus import (
    claw,
    cocktail_party,
    complete,
    cycle,
    default_corpus,
    gen_icosahedron,
    gen_line_graph,
    gen_random_claw_free,
    octahedron,
    path,
    petersen,
    write_corpus,
    write_dimacs,
)
from clawsq.errors import InternalBoundViolation


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, name, g):
    target = tmp_path / name
    target.write_text(write_dimacs(g), encoding="ascii")
    return str(target)


def strip_timings(text):
    report = json.loads(text)
    report.pop("timings", None)
    return report


def subprocess_env():
    """Environment whose PYTHONPATH reaches the package sources and the test helpers."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    paths = (str(here.parent / "src"), str(here), env.get("PYTHONPATH"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    return env


class TestAnalyze:
    def test_icosahedron(self, tmp_path, capsys):
        target = write_graph(tmp_path, "ico.col", gen_icosahedron())
        code, out, _ = run_cli(capsys, "analyze", target)
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == "clawsq/2"
        assert report["omega"] == 3
        assert report["claw_free"] is True
        assert set(report["square_degrees"]) == {10}
        assert report["classification"][0]["kind"] == "icosahedron"
        assert report["z_sets"]["0"] == sorted(gen_icosahedron().neighbors(0))

    def test_octahedron_reducible(self, tmp_path, capsys):
        target = write_graph(tmp_path, "oct.col", octahedron())
        code, out, _ = run_cli(capsys, "analyze", target)
        assert code == 0
        cls = json.loads(out)["classification"][0]
        assert cls["kind"] == "reducible"
        assert cls["vertex"] == 0
        assert cls["case"] == "iii"

    def test_claw_reported(self, tmp_path, capsys):
        target = write_graph(tmp_path, "claw.col", claw())
        code, out, _ = run_cli(capsys, "analyze", target)
        assert code == 0
        report = json.loads(out)
        assert report["claw_free"] is False
        assert report["claw"] == {"center": 0, "leaves": [1, 2, 3]}
        assert report["classification"] is None

    def test_claw_fails_under_flag(self, tmp_path, capsys):
        target = write_graph(tmp_path, "claw.col", claw())
        code, _, _ = run_cli(capsys, "analyze", target, "--require-claw-free")
        assert code == 2

    @pytest.mark.parametrize("k", [10, 11])
    def test_cocktail_party_all_ambiguous(self, tmp_path, capsys, k):
        # Every neighborhood of K_{k x 2} is K_{(k-1) x 2}, which splits into
        # two cliques in 2^(k-2) ways, whatever its size.
        target = write_graph(tmp_path, "cp.col", cocktail_party(k))
        code, out, _ = run_cli(capsys, "analyze", target)
        assert code == 0
        assert json.loads(out)["ambiguous_neighborhoods"] == list(range(2 * k))

    def test_one_induced_subgraph_per_component(self, tmp_path, capsys, monkeypatch):
        # Neighborhoods, q values and the icosahedron test read g's own rows;
        # only the classification of each component builds a subgraph.
        line_petersen, _ = gen_line_graph(petersen())
        g = disjoint_union([gen_icosahedron(), line_petersen, octahedron(), cycle(7), path(3)])
        target = write_graph(tmp_path, "union.col", g)
        calls = record_calls(monkeypatch, graph, "induced_subgraph")
        code, out, _ = run_cli(capsys, "analyze", target)
        assert code == 0
        kinds = [c["kind"] for c in json.loads(out)["classification"]]
        assert kinds == ["icosahedron", "line_graph", "reducible", "small_omega", "small_omega"]
        assert len(calls) == 5

    def test_one_cover_walk_per_vertex(self, tmp_path, capsys, monkeypatch):
        # The claw check walks each neighborhood once, and each component's
        # subgraph copies those entries for its omega and classification.
        line_petersen, _ = gen_line_graph(petersen())
        g = disjoint_union([gen_icosahedron(), line_petersen, octahedron()])
        target = write_graph(tmp_path, "union.col", g)
        covers = record_calls(monkeypatch, graph, "_cover_walk")
        code, out, _ = run_cli(capsys, "analyze", target)
        assert code == 0 and len(json.loads(out)["classification"]) == 3
        assert g.n == 33 and len(covers) == 33

    def test_one_q_value_per_edge(self, tmp_path, capsys, monkeypatch):
        # q is symmetric, so analyze searches each edge at most once and
        # mirrors the value; an edge with an end whose neighborhood is two
        # cliques with no edge between them needs no search at all.
        g = disjoint_union([gen_icosahedron(), gen_random_claw_free(40, 4, 5), cycle(7)])
        target = write_graph(tmp_path, "union.col", g)
        calls = record_calls(monkeypatch, analysis, "_complement_matching")
        code, out, _ = run_cli(capsys, "analyze", target)
        assert code == 0
        assert Counter(mask for _, mask in calls) <= open_edge_masks(g)
        assert len(calls) >= 30  # every icosahedron edge
        q = json.loads(out)["q_values"]
        assert all(q[v][w] == q[w][v] for v in q for w in q[v])
        assert sum(len(row) for row in q.values()) == 2 * g.edge_count

    def test_k2_join_two_large_cliques(self, tmp_path, capsys):
        # q(0, 1) is the matching number of K_{18,18}, the complement of
        # K_18 + K_18, too large for a search over vertex subsets to finish
        # within the bound.
        target = write_graph(tmp_path, "join.col", k2_join_cliques(18, 18))
        started = time.perf_counter()
        code, out, _ = run_cli(capsys, "analyze", target)
        assert time.perf_counter() - started < 1.0
        assert code == 0
        assert json.loads(out)["q_values"]["0"]["1"] == 18

    def test_no_q_values_on_a_claw(self, tmp_path, capsys, monkeypatch):
        # q and Z are defined for claw-free graphs only (schema clawsq/2),
        # so a claw leaves them null without a single matching search.
        g = random_graph(random.Random(1), 40, 0.5)
        target = write_graph(tmp_path, "dense.col", g)
        calls = record_calls(monkeypatch, analysis, "_complement_matching")
        code, out, _ = run_cli(capsys, "analyze", target)
        assert code == 0
        report = json.loads(out)
        assert report["claw_free"] is False and calls == []
        assert report["q_values"] is None and report["z_sets"] is None

    def test_clique_search_only_from_omega_five(self, tmp_path, capsys, monkeypatch):
        # Reducibility reads square rows on demand, so classifying builds no
        # square. Each component's omega is read off its neighborhood clique
        # table, and only a component of omega 5 or more searches for it; the
        # report's omega is their maximum.
        line_petersen, _ = gen_line_graph(petersen())
        union = disjoint_union([gen_icosahedron(), line_petersen, octahedron()])
        dense = gen_random_claw_free(18, 5, 0)
        cases = (
            (line_petersen, 1, 3, 0),
            (union, 3, 3, 0),
            (dense, 1, 5, 1),
            (disjoint_union([line_petersen, dense]), 2, 5, 1),
        )
        for g, components, omega, cliques in cases:
            calls = {
                name: record_calls(monkeypatch, graph, name) for name in ("square", "max_clique")
            }
            code, out, _ = run_cli(capsys, "analyze", write_graph(tmp_path, "g.col", g))
            report = json.loads(out)
            assert code == 0 and len(report["classification"]) == components
            assert report["omega"] == omega
            assert {name: len(log) for name, log in calls.items()} == {
                "square": 0,
                "max_clique": cliques,
            }
            monkeypatch.undo()

    @pytest.mark.parametrize("error", [RecursionError, MemoryError])
    def test_resource_failure_exits_three(self, tmp_path, capsys, monkeypatch, error):
        def exhausted(g):
            raise error()

        monkeypatch.setattr(cli, "q_rows", exhausted)
        target = write_graph(tmp_path, "oct.col", octahedron())
        code, out, err = run_cli(capsys, "analyze", target)
        assert code == 3 and out == ""
        assert err.startswith("internal error:") and err.count("\n") == 1
        assert error.__name__ in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "/nonexistent/g.col")
        assert code == 1
        assert "error" in err


class TestColor:
    def test_icosahedron_six(self, tmp_path, capsys):
        target = write_graph(tmp_path, "ico.col", gen_icosahedron())
        code, out, _ = run_cli(capsys, "color", target, "--oracle")
        assert code == 0
        report = json.loads(out)
        assert report["palette"] == 6
        assert report["bound"] == 10
        assert report["verified"] is True
        assert report["oracle"]["chi_square"] == 6
        assert len(report["colors"]) == 12

    def test_c7(self, tmp_path, capsys):
        target = write_graph(tmp_path, "c7.col", cycle(7))
        code, out, _ = run_cli(capsys, "color", target, "--oracle")
        report = json.loads(out)
        assert code == 0
        assert report["palette"] == 4
        assert report["oracle"]["chi_square"] == 4

    def test_long_path_oracle(self, tmp_path, capsys):
        # The exact search descends once per vertex; it must not hit the
        # interpreter's recursion limit.
        target = write_graph(tmp_path, "path.col", path(1200))
        code, out, _ = run_cli(capsys, "color", target, "--oracle")
        assert code == 0
        assert json.loads(out)["oracle"]["chi_square"] == 3

    def test_optimized_interpreter(self, tmp_path, stress_family):
        # python -O strips asserts; the coloring must still be verified.
        name, d, _, g = stress_family[-1]
        target = write_graph(tmp_path, f"{name}.col", g)
        done = subprocess.run(
            [sys.executable, "-O", "-m", "clawsq.cli", "color", target],
            capture_output=True,
            text=True,
            env=subprocess_env(),
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        assert report["verified"] is True
        assert report["palette"] <= report["bound"] == (10 if d == 3 else 22)

    def test_base_step_that_backtracks(self, tmp_path, capsys):
        g, _ = gen_line_graph(backtracking_base_root())
        target = write_graph(tmp_path, "backtrack.col", g)
        code, out, _ = run_cli(capsys, "color", target, "--oracle")
        assert code == 0
        report = json.loads(out)
        assert report["palette"] == 10
        assert report["oracle"] == {"chi_square": 8, "nodes_explored": 607, "palette_gap": 2}
        code, out, err = run_cli(capsys, "color", target, "--node-limit", "100")
        assert (code, out, err) == (3, "", "internal error: gave up after 100 nodes\n")
        done = subprocess.run(
            [sys.executable, "-O", "-m", "clawsq.cli", "color", target],
            capture_output=True,
            text=True,
            env=subprocess_env(),
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        assert report["verified"] is True and report["palette"] == 10

    def test_claw_exits_two(self, tmp_path, capsys):
        target = write_graph(tmp_path, "claw.col", claw())
        code, out, _ = run_cli(capsys, "color", target)
        assert code == 2
        assert json.loads(out)["claw_free"] is False

    def test_one_claw_check_per_run(self, tmp_path, capsys, monkeypatch):
        calls = record_calls(monkeypatch, analysis, "find_claw")
        for name, g, expected in (("oct", octahedron(), 0), ("claw", claw(), 2)):
            calls.clear()
            code, _, _ = run_cli(capsys, "color", write_graph(tmp_path, f"{name}.col", g))
            assert code == expected
            assert len(calls) == 1, name

    def test_malformed_input_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.col"
        bad.write_text("p edge 3 9\ne 1 2\n")
        code, _, err = run_cli(capsys, "color", str(bad))
        assert code == 1

    def test_one_pass_through_the_structure(self, tmp_path, capsys, monkeypatch):
        # color_square walks the induction once; the report adds no second
        # classification of its components, and reads the whole graph's
        # omega off the table color_square left on it.
        line_petersen, _ = gen_line_graph(petersen())
        g = disjoint_union([gen_icosahedron(), line_petersen, octahedron(), cycle(7), path(3)])
        target = write_graph(tmp_path, "union.col", g)
        calls = {
            name: record_calls(monkeypatch, owner, name)
            for owner, name in (
                (structure, "classify"),
                (graph, "induced_subgraph"),
                (graph, "max_clique"),
            )
        }
        coloring.color_square(g)
        alone = {name: len(log) for name, log in calls.items()}
        assert alone["classify"] > 0 and alone["max_clique"] == 0
        for log in calls.values():
            log.clear()
        code, out, _ = run_cli(capsys, "color", target)
        assert code == 0
        assert {name: len(log) for name, log in calls.items()} == alone
        assert sorted(json.loads(out)) == [
            "bound", "claw_free", "colors", "command", "input", "m", "n",
            "omega", "oracle", "palette", "schema", "timings", "verified",
        ]  # fmt: skip

    def test_clique_search_only_from_omega_five(self, tmp_path, capsys, monkeypatch):
        # Connected inputs: below omega 5 the tables settle omega; at 5 both
        # color_square's component and the report search for it.
        line_petersen, _ = gen_line_graph(petersen())
        for g, omega, cliques in ((line_petersen, 3, 0), (gen_random_claw_free(18, 5, 0), 5, 2)):
            calls = record_calls(monkeypatch, graph, "max_clique")
            code, out, _ = run_cli(capsys, "color", write_graph(tmp_path, "g.col", g))
            assert code == 0 and json.loads(out)["omega"] == omega
            assert len(calls) == cliques
            monkeypatch.undo()

    def test_node_limit_below_the_first_descent_exits_three(self, tmp_path, capsys):
        line_petersen, _ = gen_line_graph(petersen())
        target = write_graph(tmp_path, "lp.col", line_petersen)
        code, out, err = run_cli(capsys, "color", target, "--node-limit", "1")
        assert code == 3 and out == ""
        assert err.startswith("internal error:") and err.count("\n") == 1


class TestBrokenRecoloring:
    """A recoloring step that breaks the coloring exits 3, with or without -O."""

    @pytest.fixture(scope="class")
    def graph(self):
        return gen_random_claw_free(60, 4, 1)  # omega 4; 54 of its vertices peel

    def test_in_process(self, tmp_path, capsys, monkeypatch, graph):
        monkeypatch.setattr(
            coloring, "_match_distinct", one_color_matching(coloring._match_distinct)
        )
        with pytest.raises(InternalBoundViolation):
            coloring.color_square(graph)
        code, out, err = run_cli(capsys, "color", write_graph(tmp_path, "g.col", graph))
        assert code == 3 and out == ""
        assert err.startswith("internal error:")

    def test_optimized_interpreter(self, tmp_path, graph):
        target = write_graph(tmp_path, "g.col", graph)
        script = (
            "import sys\n"
            "from helpers import one_color_matching\n"
            "from clawsq import coloring\n"
            "from clawsq.cli import main\n"
            "from clawsq.corpus import load_dimacs\n"
            "from clawsq.errors import InternalBoundViolation\n"
            "coloring._match_distinct = one_color_matching(coloring._match_distinct)\n"
            "try:\n"
            "    coloring.color_square(load_dimacs(sys.argv[1]))\n"
            "except InternalBoundViolation:\n"
            "    sys.exit(main(['color', sys.argv[1]]))\n"
            "sys.exit('color_square returned a broken coloring')\n"
        )
        done = subprocess.run(
            [sys.executable, "-O", "-c", script, target],
            capture_output=True,
            text=True,
            env=subprocess_env(),
            timeout=120,
        )
        assert done.returncode == 3, done.stderr
        assert done.stdout == ""
        assert done.stderr.startswith("internal error:")


class TestVerifyLemmas:
    @pytest.fixture()
    def small_manifest(self, tmp_path, corpus):
        return write_corpus(corpus[:10], tmp_path / "corpus")

    def test_clean_corpus_passes(self, small_manifest, capsys):
        code, out, _ = run_cli(capsys, "verify-lemmas", str(small_manifest))
        assert code == 0
        report = json.loads(out)
        assert report["files"] == 10
        assert report["failures"] == []
        assert report["claw_found"] is False

    def test_one_claw_check_per_row(self, small_manifest, capsys, monkeypatch):
        directory = small_manifest.parent
        (directory / "planted.col").write_text(write_dimacs(claw()))
        rows = json.loads(small_manifest.read_text())
        rows.append({"id": "planted", "file": "planted.col"})
        small_manifest.write_text(json.dumps(rows))
        calls = record_calls(monkeypatch, analysis, "find_claw")
        code, _, _ = run_cli(capsys, "verify-lemmas", str(small_manifest))
        assert code == 2
        assert len(calls) == len(rows) == 11

    def test_clique_search_only_from_omega_five(self, tmp_path, capsys, monkeypatch):
        # The row's omega is read off the claw check's table below 5, and
        # still checked against the exact value the manifest records.
        line_petersen, _ = gen_line_graph(petersen())
        for g, omega, cliques in ((line_petersen, 3, 0), (gen_random_claw_free(18, 5, 0), 5, 1)):
            (tmp_path / "g.col").write_text(write_dimacs(g))
            manifest = tmp_path / "manifest.json"
            manifest.write_text(json.dumps([{"file": "g.col", "known": {"omega": omega}}]))
            calls = record_calls(monkeypatch, graph, "max_clique")
            code, out, _ = run_cli(capsys, "verify-lemmas", str(manifest))
            assert code == 0 and json.loads(out)["problems"] == []
            assert len(calls) == cliques
            monkeypatch.undo()

    def test_jobs_one_matches_default(self, small_manifest, capsys):
        code1, out1, _ = run_cli(capsys, "verify-lemmas", str(small_manifest))
        code2, out2, _ = run_cli(
            capsys, "verify-lemmas", str(small_manifest), "--jobs", "1"
        )
        assert code1 == code2 == 0
        assert strip_timings(out1) == strip_timings(out2)

    @pytest.mark.parametrize("value", ["2", "64", "0", "-5", "x", "١٠", "1_000", "+3"])
    def test_jobs_other_than_one_exits_one(self, small_manifest, capsys, monkeypatch, value):
        calls = record_calls(monkeypatch, cli, "_verify_manifest_row")
        code, out, err = run_cli(
            capsys, "verify-lemmas", str(small_manifest), "--jobs", value
        )
        assert code == 1 and out == "" and calls == []
        assert err.startswith("error: argument --jobs: ") and err.count("\n") == 1

    def test_planted_claw_exits_two(self, small_manifest, capsys, tmp_path):
        directory = small_manifest.parent
        (directory / "planted.col").write_text(write_dimacs(claw()))
        rows = json.loads(small_manifest.read_text())
        rows.append(
            {
                "id": "planted",
                "file": "planted.col",
                "generator": "hand",
                "params": {},
                "seed": None,
                "known": {"claw_free": True, "omega": 2},
            }
        )
        small_manifest.write_text(json.dumps(rows))
        code, out, _ = run_cli(capsys, "verify-lemmas", str(small_manifest))
        assert code == 2
        assert json.loads(out)["claw_found"] is True

    @pytest.mark.parametrize(
        "known, mismatch",
        [
            ({"claw_free": False}, "claw_free recorded false, no claw found"),
            ({"omega": 3}, "omega recorded 3, computed 2"),
        ],
    )
    def test_recorded_value_mismatch_exits_three(self, tmp_path, capsys, known, mismatch):
        (tmp_path / "k2.col").write_text(write_dimacs(complete(2)))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"file": "k2.col", "known": known}]))
        code, out, _ = run_cli(capsys, "verify-lemmas", str(manifest))
        assert code == 3
        report = json.loads(out)
        assert report["claw_found"] is False
        assert [p["mismatches"] for p in report["problems"]] == [[mismatch]]

    def test_empty_manifest_warns(self, tmp_path, capsys):
        manifest = tmp_path / "empty.json"
        manifest.write_text("[]")
        code, out, err = run_cli(capsys, "verify-lemmas", str(manifest))
        assert code == 0
        assert "empty manifest" in err

    def test_manifest_not_an_array_exits_one(self, tmp_path, capsys):
        manifest = tmp_path / "object.json"
        manifest.write_text("{}")
        code, out, err = run_cli(capsys, "verify-lemmas", str(manifest))
        assert code == 1 and out == ""
        assert err == "error: manifest must be a JSON array\n"

    def test_failing_lemma_exits_three(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "k2.col").write_text(write_dimacs(complete(2)))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"id": "k2", "file": "k2.col"}]))
        failing = [
            analysis.LemmaReport("planted", 0, 1, 3, 2),
            analysis.LemmaReport("planted-fraction", 1, None, Fraction(5, 2), 2),
        ]
        ties = [
            analysis.LemmaReport("tie", 0, None, 2, Fraction(2)),
            analysis.LemmaReport("tie", 1, None, Fraction(4, 2), 2),
        ]
        planted = [ties[0], failing[0], ties[1], failing[1]]
        monkeypatch.setattr(cli, "run_lemma_suite", lambda g: planted)
        code, out, _ = run_cli(capsys, "verify-lemmas", str(manifest))
        assert code == 3
        report = json.loads(out)
        assert report["failures"] == [{"id": "k2", **rep.as_dict()} for rep in failing]
        assert report["problems"] == [] and report["claw_found"] is False

    def test_bad_manifest_json(self, tmp_path, capsys):
        manifest = tmp_path / "broken.json"
        manifest.write_text("{nope")
        code, _, err = run_cli(capsys, "verify-lemmas", str(manifest))
        assert code == 1

    @pytest.mark.parametrize(
        "row, problem",
        [
            ({"id": "nofile"}, 'not an object with a "file" string'),
            ({"file": 7}, 'not an object with a "file" string'),
            (["planted.col"], 'not an object with a "file" string'),
            ("planted.col", 'not an object with a "file" string'),
            ({"file": "planted.col", "known": [2]}, '"known" is not an object'),
            ({"file": "planted.col", "known": None}, '"known" is not an object'),
            ({"file": "a\u0000b"}, '"file" contains a NUL character'),
            ({"file": "planted.col", "known": {"omega": "2"}}, '"known.omega" is not an integer'),
            ({"file": "planted.col", "known": {"omega": True}}, '"known.omega" is not an integer'),
            ({"file": "planted.col", "known": {"omega": 2.0}}, '"known.omega" is not an integer'),
            (
                {"file": "planted.col", "known": {"claw_free": "no"}},
                '"known.claw_free" is not a boolean',
            ),
            (
                {"file": "planted.col", "known": {"claw_free": 1}},
                '"known.claw_free" is not a boolean',
            ),
        ],
    )
    @pytest.mark.parametrize("jobs", ["1"])
    def test_malformed_row_rejected_before_dispatch(
        self, small_manifest, capsys, monkeypatch, row, problem, jobs
    ):
        rows = json.loads(small_manifest.read_text())
        small_manifest.write_text(json.dumps(rows[:2] + [row] + rows[2:]))
        calls = record_calls(monkeypatch, cli, "_verify_manifest_row")
        code, out, err = run_cli(
            capsys, "verify-lemmas", str(small_manifest), "--jobs", jobs
        )
        assert code == 1 and out == "" and calls == []
        assert err.startswith("error: manifest row 2: " + problem)
        assert err.count("\n") == 1


MALFORMED_GRAPHS = {
    "endpoint-out-of-range": b"p edge 3 1\ne 4 1\n",
    "self-loop": b"p edge 3 1\ne 2 2\n",
    "duplicate-edge": b"p edge 3 2\ne 1 2\ne 2 1\n",
    "negative-vertex-count": b"p edge -3 0\n",
    "non-ascii": "c caf\u00e9\np edge 2 1\ne 1 2\n".encode(),
    "vertex-count-above-maxsize": b"p edge 99999999999999999999 0\n",
    # int() raises ValueError past 4 300 digits
    "count-past-int-digit-limit": b"p edge 3 " + b"9" * 5001 + b"\n",
    "endpoint-past-int-digit-limit": b"p edge 3 1\ne 1 " + b"9" * 5001 + b"\n",
}


class TestInputErrors:
    """Malformed files and out-of-range options exit 1 with one error line."""

    @pytest.fixture(params=sorted(MALFORMED_GRAPHS))
    def bad_file(self, request, tmp_path):
        target = tmp_path / "bad.col"
        target.write_bytes(MALFORMED_GRAPHS[request.param])
        return str(target)

    @pytest.mark.parametrize(
        "argv",
        [["color", "{}"], ["analyze", "{}"], ["generate", "line-graph", "--of", "{}"]],
    )
    def test_malformed_graph_exits_one(self, capsys, bad_file, argv):
        code, out, err = run_cli(capsys, *(a.format(bad_file) for a in argv))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_malformed_row_is_a_problem(self, tmp_path, capsys, corpus, bad_file):
        manifest = write_corpus(corpus[:3], tmp_path / "corpus")
        rows = json.loads(manifest.read_text())
        rows.insert(1, {"id": "bad", "file": bad_file})
        manifest.write_text(json.dumps(rows))
        code, out, _ = run_cli(capsys, "verify-lemmas", str(manifest))
        assert code == 1
        report = json.loads(out)
        assert report["files"] == 4 and report["failures"] == []
        assert [p["id"] for p in report["problems"]] == ["bad"]
        assert report["problems"][0]["error"].startswith("input: ")

    @pytest.mark.parametrize(
        "text, problem",
        [
            ('[{"file": "caf\u00e9.col"}]', "is not ASCII"),
            ("[" * 100_000 + "]" * 100_000, "nests too deeply"),
            ("[{", "is not valid JSON"),
        ],
    )
    def test_unreadable_manifest_exits_one(self, tmp_path, capsys, text, problem):
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(text.encode())
        code, out, err = run_cli(capsys, "verify-lemmas", str(manifest))
        assert code == 1 and out == ""
        assert err.startswith("error: manifest " + problem) and err.count("\n") == 1

    def test_no_traceback(self, tmp_path):
        target = tmp_path / "bad.col"
        target.write_bytes(MALFORMED_GRAPHS["endpoint-out-of-range"])
        done = subprocess.run(
            [sys.executable, "-m", "clawsq.cli", "color", str(target)],
            capture_output=True,
            text=True,
            env=subprocess_env(),
            timeout=60,
        )
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr

    def test_vertex_count_beyond_memory_exits_three(self, tmp_path, capsys):
        # [0] * sys.maxsize raises MemoryError before it allocates anything.
        target = tmp_path / "huge.col"
        target.write_text(f"p edge {sys.maxsize} 0\n", encoding="ascii")
        code, out, err = run_cli(capsys, "color", str(target))
        assert code == 3 and out == ""
        assert err.startswith("internal error: resource exhausted (MemoryError")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("value", ["-5", "0", "x", "١٠", "1_000", "+3"])
    @pytest.mark.parametrize("argv", [["color", "g.col", "--node-limit"]])
    def test_option_below_one_exits_one(self, capsys, argv, value):
        code, out, err = run_cli(capsys, *argv, value)
        assert code == 1 and out == ""
        assert err.startswith(f"error: argument {argv[-1]}: must be an integer of at least 1")
        assert err.count("\n") == 1


class TestGenerate:
    def test_blowup(self, tmp_path, capsys):
        out_file = tmp_path / "b.col"
        code, out, _ = run_cli(
            capsys, "generate", "blowup-c5", "--sizes", "2,2,2,2,2", "--out", str(out_file)
        )
        assert code == 0
        report = json.loads(out)
        assert report["n"] == 10 and report["m"] == 20
        assert out_file.read_text().startswith("p edge 10 20")

    def test_icosahedron_inline(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "icosahedron")
        assert code == 0
        report = json.loads(out)
        assert report["n"] == 12
        assert "p edge 12 30" in report["dimacs"]

    def test_line_graph_of_petersen(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "line-graph", "--of", "petersen")
        report = json.loads(out)
        assert code == 0 and report["n"] == 15

    def test_line_graph_of_family(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "line-graph", "--of", "cycle:6")
        report = json.loads(out)
        assert code == 0 and report["n"] == 6

    def test_line_graph_of_blowup(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "line-graph", "--of", "blowup:1,1,1,1,1")
        report = json.loads(out)
        assert code == 0 and (report["n"], report["m"]) == (5, 5)

    def test_line_graph_of_file_with_colon_in_path(self, tmp_path, capsys):
        # A prefix that names no family is part of a file name, not a family.
        target = write_graph(tmp_path, "a:b.col", petersen())
        code, out, _ = run_cli(capsys, "generate", "line-graph", "--of", target)
        assert code == 0 and json.loads(out)["n"] == 15
        code, out, err = run_cli(capsys, "generate", "line-graph", "--of", target + ".missing")
        assert code == 1 and out == "" and err.startswith("error: ")

    def test_random_deterministic(self, capsys):
        code1, out1, _ = run_cli(
            capsys, "generate", "random", "--n", "12", "--omega", "4", "--seed", "9"
        )
        code2, out2, _ = run_cli(
            capsys, "generate", "random", "--n", "12", "--omega", "4", "--seed", "9"
        )
        assert code1 == code2 == 0
        assert out1 == out2

    def test_blowup_below_five_vertices_exits_one(self, capsys):
        code, out, err = run_cli(
            capsys, "generate", "random", "--n", "4", "--omega", "4", "--strategy", "blowup"
        )
        assert code == 1 and out == ""
        assert err.startswith("error: no blow-up fits")

    def test_corpus_writes_manifest(self, tmp_path, capsys, monkeypatch):
        # Patch the corpus down to a handful of entries to keep the test fast.
        import clawsq.cli as cli_mod

        small = default_corpus()[:5]
        monkeypatch.setattr(cli_mod, "default_corpus", lambda: small)
        out_dir = tmp_path / "corpus"
        code, out, _ = run_cli(capsys, "generate", "corpus", "--out", str(out_dir))
        assert code == 0
        report = json.loads(out)
        assert report["entries"] == 5
        assert (out_dir / "manifest.json").exists()

    def test_usage_error_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "generate", "blowup-c5")
        assert code == 1
        assert "sizes" in err

    @pytest.mark.parametrize("kind", ["corpus", "line-graph"])
    def test_missing_required_option_exits_one(self, capsys, kind):
        code, out, err = run_cli(capsys, "generate", kind)
        assert code == 1 and out == ""
        assert err.startswith(f"error: generate {kind} requires ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["line-graph", "--of", "cycle:2"], "cycles need at least 3 vertices"),
            (["line-graph", "--of", "squared-cycle:4"], "squared cycles need at least 5 vertices"),
            (["random", "--omega", "1"], "omega_target must be at least 2"),
        ],
    )
    def test_invalid_spec_exits_one(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "generate", *argv)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_every_kind_exits_zero(self, tmp_path, capsys, monkeypatch, corpus):
        # cmd_generate checks no kind name: the parser admits only the kinds
        # it handles, and "random", the last, takes its else branch.
        monkeypatch.setattr(cli, "default_corpus", lambda: corpus[:3])
        expected = {  # kind: its options here, and the params of its report
            "blowup-c5": (["--sizes", "1,1,1,2,2"], ["sizes"]),
            "corpus": (["--out", str(tmp_path / "corpus")], []),
            "icosahedron": ([], []),
            "line-graph": (["--of", "petersen"], ["of"]),
            "random": ([], ["n", "omega_target", "seed", "strategy"]),
        }
        commands = next(a for a in cli.build_parser()._actions if a.dest == "command")
        kinds = next(a for a in commands.choices["generate"]._actions if a.dest == "kind").choices
        assert sorted(kinds) == sorted(expected)
        for kind in kinds:
            options, params = expected[kind]
            code, out, err = run_cli(capsys, "generate", kind, *options)
            assert code == 0 and err == "" and out.count("\n") == 1
            report = json.loads(out)
            assert report["kind"] == kind and sorted(report.get("params", {})) == params

    @pytest.mark.parametrize(
        "argv",
        [
            ["line-graph", "--of", "cycle:abc"],
            ["line-graph", "--of", "cycle:"],
            ["blowup-c5", "--sizes", "1,x,1,1,1"],
            ["line-graph", "--of", "blowup:2,2,-2,2,2"],
            ["line-graph", "--of", "complete:-1"],
            ["line-graph", "--of", "path:-3"],
            ["random", "--n", "١٢"],
            # above sys.maxsize; int() alone raises ValueError past 4 300 digits
            ["line-graph", "--of", "cycle:" + "9" * 5001],
            ["blowup-c5", "--sizes", "1,1,1,1," + "9" * 5001],
            ["blowup-c5", "--sizes", "1,1,1,1,99999999999999999999"],
            ["random", "--n", "9" * 5001],
            ["random", "--seed", "9" * 5001],
            # the message leaves out the rejected text, whatever its length
            ["random", "--seed", "x" * 5001],
            ["line-graph", "--of", "cycle:" + "x" * 5001],
            ["blowup-c5", "--sizes", "1,1,1,1," + "x" * 5001],
        ],
    )
    def test_malformed_number_exits_one(self, capsys, argv):
        code, out, err = run_cli(capsys, "generate", *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "non-negative integer" in err
        assert len(err.rstrip("\n")) <= 200

    def test_zero_padded_number_still_parses(self, capsys):
        pad = "0" * 5000
        for kind, option, padded, plain in (
            ("line-graph", "--of", f"cycle:{pad}6", "cycle:6"),
            ("blowup-c5", "--sizes", f"1,1,1,{pad}2,2", "1,1,1,2,2"),
            ("random", "--n", f"{pad}12", "12"),
            ("random", "--seed", f"{pad}9", "9"),
        ):
            code, out, _ = run_cli(capsys, "generate", kind, option, padded)
            assert code == 0
            _, expected, _ = run_cli(capsys, "generate", kind, option, plain)
            assert json.loads(out)["dimacs"] == json.loads(expected)["dimacs"]

    def test_bad_subcommand_exits_one(self, capsys):
        code, _, _ = run_cli(capsys, "generate", "nonsense")
        assert code == 1

    def test_calls_in_one_process_behave_as_alone(self, capsys):
        # main reuses one parser: a failed parse must leave nothing behind.
        runs = (["generate", "random", "--n", "x"], ["generate", "random", "--seed", "3"])
        alone = []
        for argv in runs:
            done = subprocess.run(
                [sys.executable, "-m", "clawsq.cli", *argv],
                capture_output=True,
                text=True,
                env=subprocess_env(),
                timeout=60,
            )
            alone.append((done.returncode, done.stdout, done.stderr))
        together = [run_cli(capsys, *argv) for argv in runs]
        assert together == alone
        assert [code for code, _, _ in together] == [1, 0]


def keys_in_order(text):
    """``text`` parsed, asserting that every object's keys come sorted.

    Keys that are all vertex numbers must come in increasing numeric order.
    """

    def check(pairs):
        keys = [k for k, _ in pairs]
        if keys and all(k.isdigit() for k in keys):
            assert [int(k) for k in keys] == sorted(int(k) for k in keys), keys
        else:
            assert keys == sorted(keys), keys
        return dict(pairs)

    return json.loads(text, object_pairs_hook=check)


class TestReportLayout:
    """Each report is one line from the C encoder, keys sorted, vertex keys numerically."""

    @pytest.fixture(
        params=[
            "analyze",
            "color",
            "color-claw",
            "verify-lemmas",
            "generate",
            "generate-corpus",
        ]
    )
    def run(self, request, tmp_path, corpus, monkeypatch):
        """The command's argv and its exit code."""
        line_petersen, _ = gen_line_graph(petersen())
        name = request.param
        if name == "analyze":
            return ["analyze", write_graph(tmp_path, "lp.col", line_petersen)], 0
        if name == "color":
            return ["color", write_graph(tmp_path, "lp.col", line_petersen)], 0
        if name == "color-claw":
            return ["color", write_graph(tmp_path, "claw.col", claw())], 2
        if name == "verify-lemmas":
            return ["verify-lemmas", str(write_corpus(corpus[:3], tmp_path / "corpus"))], 0
        if name == "generate":
            return ["generate", "line-graph", "--of", "petersen"], 0
        monkeypatch.setattr(cli, "default_corpus", lambda: corpus[:3])
        return ["generate", "corpus", "--out", str(tmp_path / "corpus")], 0

    def test_one_line_with_keys_in_order(self, capsys, run):
        argv, expected = run
        code, out, _ = run_cli(capsys, *argv)
        assert code == expected
        assert out.count("\n") == 1 and out.endswith("\n")
        report = keys_in_order(out)
        if argv[0] == "analyze":
            vertices = list(range(15))
            assert [int(v) for v in report["q_values"]] == vertices
            assert [int(v) for v in report["z_sets"]] == vertices
            (component,) = report["classification"]
            assert component["kind"] == "line_graph"
            assert [int(v) for v in component["vertex_to_root_edge"]] == vertices

    def test_no_pure_python_encoding(self, capsys, monkeypatch, run):
        # json.dumps with an indent bypasses the C encoder for this function.
        argv, expected = run
        calls = record_calls(monkeypatch, json.encoder, "_make_iterencode")
        code, _, _ = run_cli(capsys, *argv)
        assert code == expected
        # generate corpus also writes manifest.json, indented for people who edit it.
        assert len(calls) == (1 if argv[:2] == ["generate", "corpus"] else 0)


class TestDeterminism:
    def test_reports_byte_identical_modulo_timings(self, tmp_path, capsys):
        target = write_graph(tmp_path, "oct.col", octahedron())
        _, out1, _ = run_cli(capsys, "analyze", target)
        _, out2, _ = run_cli(capsys, "analyze", target)
        assert strip_timings(out1) == strip_timings(out2)
        _, out1, _ = run_cli(capsys, "color", target, "--oracle")
        _, out2, _ = run_cli(capsys, "color", target, "--oracle")
        assert strip_timings(out1) == strip_timings(out2)


def test_import_loads_no_process_pool():
    # verify-lemmas runs every row in the calling process.
    script = (
        "import sys, clawsq.cli\n"
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """The argv of every ``clawsq`` line in the README's ``sh`` blocks, comments and pipes cut."""
    commands = []
    in_shell = False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_shell = line == "```sh"
            continue
        words = shlex.split(line.partition("|")[0], comments=True) if in_shell else []
        if words[:1] == ["clawsq"] and words[1:] not in commands:
            commands.append(words[1:])
    return commands


class TestReadmeCommands:
    """The README's examples parse under today's options; nothing is run."""

    def test_examples_found(self):
        assert len(readme_commands()) >= 10

    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_parses(self, argv):
        cli.build_parser().parse_args(argv)


def readme_python_blocks():
    """The source of every ``python`` block in the README, in order."""
    blocks = []
    block = None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            if block is not None:
                blocks.append("\n".join(block))
            block = [] if line == "```python" else None
        elif block is not None:
            block.append(line)
    return blocks


class TestReadmeLibrarySketch:
    """Every ``python`` block of the README runs, asserts included."""

    def test_blocks_found(self):
        assert readme_python_blocks()

    @pytest.mark.parametrize("index", range(len(readme_python_blocks())))
    def test_runs(self, index):
        exec(compile(readme_python_blocks()[index], str(README), "exec"), {})
