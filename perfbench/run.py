"""Closed-loop benchmark of clawsq, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller in one process: the next operation starts when the previous one
returns. The library and ``clawsq.cli.main`` are driven in-process from
``src/`` of this checkout, on inputs generated from ``--seed``, and every
output is checked by the benchmark's own code.

With ``--trace 0`` the run prints the end-to-end metrics of untraced
passes. With ``--trace 1`` it runs untraced passes and then traced ones,
and prints per-layer calls, self times and counts (see ``tracer.py``) plus
the tracing overhead. The next-to-last stdout line is a JSON record of the
environment, digest and sample details; the last line is the result.
The exit status is 0 only when every output passed its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path(".perfbench-work")

SETUP_REPEATS = 5
MIN_SAMPLES = 40  # so the tail percentile is at least p75

# The "timings" object of a CLI report and a number inside it: cli.stdout_bytes
# counts each such number as one byte, so the count repeats from run to run.
TIMINGS = re.compile(r'"timings": \{[^{}]*\}')
NUMBER = re.compile(r"-?[0-9][-+.0-9eE]*")


def stdout_bytes(stdout: str) -> int:
    return len(TIMINGS.sub(lambda m: NUMBER.sub("0", m.group()), stdout).encode())


# Host-speed normalisation. The shared host this benchmark was built on runs
# the same Python code up to 1.7x slower for stretches of a few seconds (CPU
# time tracks wall time, so it is not scheduling). Every timing is therefore
# rescaled by REF_S over the time the reference work takes next to it, probed
# at least every PROBE_EVERY_S of op time: reported times are what the host
# would measure when the reference runs in REF_S. Raw times go to the record.
# Over 12 s windows of a fixed color_square loop this cut the interquartile
# spread of the mean latency from 25% to 3%.
REF_S = 0.010
PROBE_EVERY_S = 0.1

_REF_RNG = random.Random(1)
_REF_ROWS = [0] * 300
for _ in range(600):
    _u, _v = _REF_RNG.randrange(300), _REF_RNG.randrange(300)
    if _u != _v:
        _REF_ROWS[_u] |= 1 << _v
        _REF_ROWS[_v] |= 1 << _u


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reference() -> int:
    """Fixed work of the kinds clawsq does, written without clawsq.

    Integer, dict and set churn, then the square of a fixed 300-vertex
    bitmask graph the way clawsq builds one: generator walks over set bits.
    """
    table = {}
    seen = set()
    mask = 0
    x = 0
    for i in range(10_000):
        x = (x * 31 + i) & 0xFFFFFFFF
        table[i & 1023] = x
        if x & 7 == 0:
            seen.add(x & 4095)
        mask ^= 1 << (x % 700)
        x ^= mask.bit_count()
    total = len(table) + len(seen) + x
    for _ in range(2):
        rows = []
        for v, adj in enumerate(_REF_ROWS):
            row = adj
            for u in _bits(adj):
                row |= _REF_ROWS[u]
            rows.append(tuple(_bits(row & ~(1 << v))))
        total += sum(map(len, rows))
    return total


def probe() -> float:
    started = time.perf_counter()
    reference()
    return time.perf_counter() - started


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", type=float, default=1.0, help="input scale; below 1 for tests")
    return p.parse_args(argv)


def environment() -> dict:
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "optimize": sys.flags.optimize,
        "nproc": cpus,
        "platform": platform.platform(),
    }


def import_clawsq() -> dict:
    """Fresh import of every clawsq module this checkout holds, keyed as in tracer."""
    for key in [k for k in sys.modules if k == "clawsq" or k.startswith("clawsq.")]:
        del sys.modules[key]
    mods = {ns: importlib.import_module("clawsq" + ns) for ns in tracer.NAMESPACES}
    origin = Path(mods[""].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: imported clawsq from {origin}, not from {SRC}")
    return mods


class Run:
    """Outputs, failures and digests of one benchmark process."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict[str, str] = {}

    def judge(self, op, output, deltas=None) -> None:
        self.attempted += 1
        try:
            problem, payload = op.check(output)
        except Exception as exc:  # a checker crash is a failed output, not a lost run
            problem, payload = f"check raised {exc!r}", ""
        digest = hashlib.sha256(payload.encode()).hexdigest()
        if problem is None and self.reference.setdefault(op.label, digest) != digest:
            problem = "output differs from the first pass"
        if problem is None and deltas is not None:
            problem = self_check(op, deltas)
        if problem is not None:
            self.failures.append(f"{op.label}: {problem}")

    def digest(self) -> str:
        h = hashlib.sha256()
        for label in sorted(self.reference):
            h.update(f"{label}\0{self.reference[label]}\n".encode())
        return h.hexdigest()


def self_check(op, deltas: dict) -> str | None:
    """The op reached the layer its workload is meant to measure."""
    if op.expect == "peel" and deltas["peeled"] == 0:
        return "peeled no vertex"
    if op.expect == "base" and (deltas["peeled"] != 0 or deltas["line_graph"] == 0):
        return f"expected a line-graph base with nothing peeled, got {deltas}"
    return None


def attempt(op):
    """The op's output, or the exception it raised, which its check then fails."""
    try:
        return op.run()
    except Exception as exc:  # recorded as this op's failure; the run goes on
        return exc


def run_pass(ops, run: Run, tr=None) -> dict:
    """Time every op once, then check the outputs; returns the pass record.

    Each latency is scaled by REF_S over the mean of the reference probes
    taken just before and just after it.
    """
    raw = []
    probes = [probe()]
    probe_of = []
    outputs = []
    if tr is not None:
        tr.reset()
    since_probe = 0.0
    for op in ops:
        if since_probe > PROBE_EVERY_S:
            probes.append(probe())
            since_probe = 0.0
        probe_of.append(len(probes) - 1)
        before = tr.op_counts() if tr is not None else None
        t0 = time.perf_counter()
        out = attempt(op)
        raw.append(time.perf_counter() - t0)
        since_probe += raw[-1]
        deltas = None
        if tr is not None:
            if isinstance(out, workloads.CliResult):
                tr.add_stdout(stdout_bytes(out.stdout))
            after = tr.op_counts()
            deltas = {k: after[k] - before[k] for k in after}
        outputs.append((op, out, deltas))
    probes.append(probe())
    snapshot = tr.snapshot() if tr is not None else None
    for op, out, deltas in outputs:
        run.judge(op, out, deltas)
    latencies = [
        t * REF_S * 2 / (probes[i] + probes[i + 1]) for t, i in zip(raw, probe_of)
    ]
    vertices = sum(op.vertices for op in ops)
    return {"latencies": latencies, "raw": raw, "probes": probes,
            "rate": vertices / sum(latencies), "layers": snapshot}


def min_passes(wl) -> int:
    return max(wl.min_passes, math.ceil(MIN_SAMPLES / len(wl.ops)))


def run_passes(wl, seconds: float, run: Run) -> list[dict]:
    passes = []
    started = time.perf_counter()
    while len(passes) < min_passes(wl) or time.perf_counter() - started < seconds:
        passes.append(run_pass(wl.ops, run))
    return passes


def traced_passes(mods, ops, seconds: float, run: Run) -> list[dict]:
    tr = tracer.Tracer(mods)
    tr.install()
    try:
        passes = []
        started = time.perf_counter()
        while not passes or time.perf_counter() - started < seconds:
            passes.append(run_pass(ops, run, tr))
    finally:
        tr.remove()
    first = passes[0]["layers"]
    for p in passes[1:]:
        for name, value in p["layers"].items():
            if not name.endswith(".self_s") and value != first[name]:
                run.failures.append(f"trace count {name} changed between passes")
    return passes


def tail(latencies: list[float], wl) -> tuple[float, dict]:
    """The highest percentile with at least 10 samples beyond it, nearest rank.

    The percentile is fixed per workload from the fewest samples a run can
    take, so it does not move with the number of passes the host allowed.
    """
    floor = len(wl.ops) * min_passes(wl)
    ordered = sorted(latencies)
    n = len(ordered)
    index = -(-(floor - 10) * n // floor) - 1
    return ordered[index], {"percentile": 100 * (floor - 10) / floor, "samples": n,
                            "beyond": n - 1 - index}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    if sys.flags.optimize:
        print("perfbench: refusing to run under python -O: it strips clawsq's __debug__ "
              "full-square check in the reinsert step, so the timings would belong to a "
              "different program", file=sys.stderr)
        return 2
    if not (SRC / "clawsq" / "__init__.py").is_file():
        print(f"perfbench: no clawsq sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    args = parse_args(argv)
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    workdir = WORK / args.workload
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def measure(args, workdir: Path) -> int:
    setups = []
    raw_setups = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        before = probe()
        started = time.perf_counter()
        mods = import_clawsq()
        wl = workloads.build(args.workload, mods, args.seed, workdir, args.size)
        warm = [(op, attempt(op)) for op in wl.warmup]
        raw_setups.append(time.perf_counter() - started)
        setups.append(raw_setups[-1] * REF_S * 2 / (before + probe()))
    run = Run()
    for op, out in warm:
        run.judge(op, out)

    self_checked = any(op.expect for op in wl.ops)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(), "ops_per_pass": len(wl.ops)}
    if args.trace:
        plain = run_passes(wl, args.seconds / 2, run)
        traced = traced_passes(mods, wl.ops, args.seconds / 2, run)
        layers = dict(traced[0]["layers"])
        for name in layers:
            if name.endswith(".self_s"):
                layers[name] = statistics.median(p["layers"][name] for p in traced)
        layers["trace.overhead_ratio"] = (
            statistics.median(sum(p["latencies"]) for p in traced)
            / statistics.median(sum(p["latencies"]) for p in plain)
        )
        units = tracer.metric_units()
        metrics = {name: metric(layers[name], unit) for name, unit in units.items()}
        record["passes"] = {"untraced": len(plain), "traced": len(traced)}
    else:
        plain = run_passes(wl, args.seconds, run)
        if self_checked:  # one untimed traced pass feeds the self-checks
            traced_passes(mods, wl.ops, 0, run)
        latencies = [x for p in plain for x in p["latencies"]]
        tail_s, record["tail"] = tail(latencies, wl)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "vertices_per_s": metric(statistics.median(p["rate"] for p in plain), "1/s"),
            "op_p50_ms": metric(1000 * statistics.median(latencies), "ms"),
            "op_tail_ms": metric(1000 * tail_s, "ms"),
            "peak_rss_mib": metric(rss_mib, "MiB"),
        }
        record["passes"] = len(plain)
        raws = [x for p in plain for x in p["raw"]]
        record["raw"] = {
            "setup_s": statistics.median(raw_setups),
            "op_p50_ms": 1000 * statistics.median(raws),
            "op_tail_ms": 1000 * tail(raws, wl)[0],
            "vertices_per_s": statistics.median(
                sum(op.vertices for op in wl.ops) / sum(p["raw"]) for p in plain),
        }
    probes = [x for p in plain for x in p["probes"]]
    record["reference_ms"] = {"nominal": 1000 * REF_S,
                              "median": 1000 * statistics.median(probes),
                              "min": 1000 * min(probes), "max": 1000 * max(probes)}
    record["digest"] = run.digest()
    record["fail_ratio"] = len(run.failures) / run.attempted
    record["failures"] = run.failures[:20]
    print(json.dumps({"record": record}, sort_keys=True))
    for line in run.failures[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    correct = not run.failures
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
