"""Acceptance criteria, one test per criterion, timed where the contract is timed.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
inline). The corpus fixture is shared and deterministic, so two runs of this
module exercise identical graphs.
"""

import json
import time

from clawsq.analysis import run_lemma_suite
from clawsq.cli import main as cli_main
from clawsq.coloring import (
    color_square,
    palette_bound,
    strong_edge_color,
    verify_coloring,
)
from clawsq.corpus import (
    BlowupSpec,
    gen_blowup_c5,
    gen_icosahedron,
    gen_line_graph,
    petersen,
    write_corpus,
)
from clawsq.graph import (
    Coloring,
    connected_components,
    delete_vertex,
    induced_subgraph,
    max_clique,
    max_degree,
    square,
)
from clawsq.oracle import exact_chromatic, exact_strong_chromatic_index
from clawsq.structure import classify, recognize_icosahedron

from helpers import bfs_distances, brute_is_clique, brute_is_strong_edge_coloring
from iso_util import is_isomorphic


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_sharpness_omega3():
    started = time.perf_counter()
    f = gen_blowup_c5(BlowupSpec((1, 1, 1, 2, 2)))
    g, _ = gen_line_graph(f)
    coloring = color_square(g)
    oracle = exact_chromatic(square(g), 10)
    elapsed = time.perf_counter() - started
    ok = (
        coloring.palette_size == 10
        and verify_coloring(g, coloring)
        and oracle.value == 10
        and elapsed < 1.0
    )
    report(
        "criterion 1 (sharpness at clique number 3)",
        ok,
        f"engine palette {coloring.palette_size}, oracle {oracle.value}, {elapsed:.3f}s",
    )


def test_criterion_2_strong_index_twenty():
    started = time.perf_counter()
    f = gen_blowup_c5(BlowupSpec((2, 2, 2, 2, 2)))
    result = exact_strong_chromatic_index(f, 25)
    elapsed = time.perf_counter() - started
    ok = result.value == 20 and elapsed < 10.0
    report(
        "criterion 2 (strong index of the full blow-up)",
        ok,
        f"exact value {result.value}, {elapsed:.3f}s",
    )


def test_criterion_3_icosahedron():
    started = time.perf_counter()
    g = gen_icosahedron()
    coloring = color_square(g)
    pairing = recognize_icosahedron(g)
    antipodal = all(coloring.colors[a] == coloring.colors[b] for a, b in pairing)
    oracle = exact_chromatic(square(g), 10)
    sq = square(g)
    degrees_ok = all(sq.degree(v) == 10 for v in range(12))
    elapsed = time.perf_counter() - started
    ok = (
        coloring.palette_size == 6
        and antipodal
        and oracle.value == 6
        and degrees_ok
        and elapsed < 1.0
    )
    report(
        "criterion 3 (icosahedron)",
        ok,
        f"palette {coloring.palette_size}, antipodal {antipodal}, "
        f"oracle {oracle.value}, {elapsed:.3f}s",
    )


def test_criterion_4_bound_compliance(corpus):
    started = time.perf_counter()
    assert len(corpus) >= 500
    assert all(entry.graph.n <= 40 for entry in corpus)
    violations = []
    for entry in corpus:
        coloring = color_square(entry.graph)
        bound = palette_bound(max(entry.known["omega"], 1))
        if not verify_coloring(entry.graph, coloring) or coloring.palette_size > bound:
            violations.append(entry.id)
    elapsed = time.perf_counter() - started
    ok = not violations and elapsed < 300.0
    report(
        "criterion 4 (bound compliance over the corpus)",
        ok,
        f"{len(corpus)} graphs, {len(violations)} violations, {elapsed:.1f}s",
    )


def _witness_verified(sub, outcome):
    if outcome.kind == "reducible":
        red = outcome.reduction
        sq = square(sub)
        if sq.degree(red.vertex) > red.kprime:
            return False
        threshold = red.kprime + 2 if red.case == "ii" else red.kprime + 1
        if red.case == "ii":
            if red.xstar is None or sq.degree(red.xstar) > red.kprime + 1:
                return False
        bad = [x for x in sub.neighbors(red.vertex) if sq.degree(x) > threshold]
        deleted_sq = square(delete_vertex(sub, red.vertex))
        shifted = [x if x < red.vertex else x - 1 for x in bad]
        return brute_is_clique(deleted_sq, shifted)
    if outcome.kind == "line_graph":
        root = outcome.root
        if max_degree(root.f) > outcome.omega:
            return False
        for u in range(sub.n):
            eu = set(root.edge_of_vertex[u])
            for w in range(u + 1, sub.n):
                if bool(eu & set(root.edge_of_vertex[w])) != sub.has_edge(u, w):
                    return False
        return True
    if outcome.kind == "icosahedron":
        pairs = outcome.antipodal_pairs
        cover = sorted(v for p in pairs for v in p)
        return cover == list(range(12)) and all(
            bfs_distances(sub, a)[b] == 3 for a, b in pairs
        )
    return False


def test_criterion_5_classification_exhaustive(corpus):
    checked = 0
    unverified = []
    for entry in corpus:
        for comp in connected_components(entry.graph):
            sub, _ = induced_subgraph(entry.graph, comp)
            omega = max_clique(sub)[0]
            if omega not in (3, 4):
                continue
            outcome = classify(sub, omega, check_claw_free=False)
            checked += 1
            if not _witness_verified(sub, outcome):
                unverified.append((entry.id, outcome.kind))
    ok = checked > 0 and not unverified
    report(
        "criterion 5 (classification exhaustiveness)",
        ok,
        f"{checked} components classified, {len(unverified)} unverified witnesses",
    )


def test_criterion_6_lemma_suite(corpus):
    started = time.perf_counter()
    failures = []
    for entry in corpus:
        for rep in run_lemma_suite(entry.graph):
            if not rep.holds:
                failures.append((entry.id, rep.lemma_id, rep.vertex))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 120.0
    report(
        "criterion 6 (lemma suite over the corpus)",
        ok,
        f"{len(corpus)} graphs, {len(failures)} failed reports, {elapsed:.1f}s",
    )


def test_criterion_7_oracle_cross_check(corpus):
    gap = 0
    violations = []
    small = [entry for entry in corpus if entry.graph.n <= 14]
    assert small
    for entry in small:
        coloring = color_square(entry.graph)
        bound = palette_bound(max(entry.known["omega"], 1))
        oracle = exact_chromatic(square(entry.graph), bound)
        if oracle.value is None or not (
            oracle.value <= coloring.palette_size <= bound
        ):
            violations.append(entry.id)
        else:
            gap = max(gap, coloring.palette_size - oracle.value)
    ok = not violations
    report(
        "criterion 7 (oracle cross-check on small graphs)",
        ok,
        f"{len(small)} graphs, max engine-minus-oracle gap {gap} (informational)",
    )


def test_criterion_8_line_petersen_pipeline(line_petersen):
    started = time.perf_counter()
    outcome = classify(line_petersen, 3)
    root_ok = outcome.kind == "line_graph" and is_isomorphic(outcome.root.f, petersen())
    sec = strong_edge_color(petersen())
    sec_ok = sec.palette_size <= 10 and brute_is_strong_edge_coloring(sec, petersen())
    index = {e: i for i, e in enumerate(sec.edges)}
    # The classifier's root is Petersen up to isomorphism; pull the strong
    # edge coloring back through the classifier's own bijection.
    own = strong_edge_color(outcome.root.f)
    own_index = {e: i for i, e in enumerate(own.edges)}
    pulled = Coloring(
        own.colors[own_index[outcome.root.edge_of_vertex[v]]]
        for v in range(line_petersen.n)
    )
    pulled_ok = pulled.is_proper_on(square(line_petersen))
    elapsed = time.perf_counter() - started
    ok = root_ok and sec_ok and pulled_ok and elapsed < 5.0
    report(
        "criterion 8 (line graph of Petersen pipeline)",
        ok,
        f"root isomorphic {root_ok}, strong palette {sec.palette_size}, "
        f"pull-back proper {pulled_ok}, {elapsed:.3f}s",
    )


def _strip_timings(text):
    data = json.loads(text)
    data.pop("timings", None)
    return json.dumps(data, sort_keys=True)


def test_criterion_9_determinism(corpus, tmp_path, capsys):
    # Corpus bytes are identical across regenerations.
    first = tmp_path / "one"
    second = tmp_path / "two"
    subset = corpus[:60]
    write_corpus(subset, first)
    write_corpus(subset, second)
    byte_identical = all(
        (first / f"{e.id}.col").read_bytes() == (second / f"{e.id}.col").read_bytes()
        for e in subset
    ) and (first / "manifest.json").read_bytes() == (second / "manifest.json").read_bytes()

    # CLI reports are identical after dropping timings.
    outputs = []
    for _ in range(2):
        run = []
        code = cli_main(["verify-lemmas", str(first / "manifest.json")])
        run.append(_strip_timings(capsys.readouterr().out))
        assert code == 0
        for entry in subset[:20]:
            target = str(first / f"{entry.id}.col")
            assert cli_main(["analyze", target]) == 0
            run.append(_strip_timings(capsys.readouterr().out))
            assert cli_main(["color", target]) == 0
            run.append(_strip_timings(capsys.readouterr().out))
        outputs.append(run)
    reports_identical = outputs[0] == outputs[1]
    ok = byte_identical and reports_identical
    with capsys.disabled():
        report(
            "criterion 9 (determinism)",
            ok,
            f"corpus bytes identical {byte_identical}, reports identical {reports_identical}",
        )
