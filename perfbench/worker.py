"""Child-process side of the benchmark: every call into thdist happens here.

    python3 perfbench/worker.py probe
    python3 perfbench/worker.py catalog-check TRACE
    python3 perfbench/worker.py distance-sweep SEED SECONDS TRACE
    python3 perfbench/worker.py cli ARGS...

Each mode runs in a fresh process started by run.py with PYTHONPATH=src,
so the process-global memo tables start empty, and prints JSON on stdout:
one object, or for distance-sweep one line per pass and then a summary.
`cli` prints the command's own output instead and writes its JSON to the
file named by PERFBENCH_SIDECAR.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
from time import perf_counter_ns

from references import check_distance, oracle_matrix
from tracer import Tracer

CATALOG = "src/thdist/data/paper_examples.cat"


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def reference_ns() -> int:
    """Time a fixed pure-Python loop of about 10 ms.  Runs between
    operations, outside the timed sections, to follow the host's speed,
    which a shared machine can move by 20-40% within a minute."""
    start = perf_counter_ns()
    total = 0
    for i in range(150_000):
        total += i * i % 7
    return perf_counter_ns() - start


def probe() -> dict:
    """Set-up as every workload pays it: import thdist, parse the catalog."""
    from thdist import load_catalog

    load_catalog(CATALOG)
    return {"ready_ns": perf_counter_ns()}


def catalog_check(trace: bool) -> dict:
    """Verify the shipped catalog's certificates in catalog order, timing each."""
    tracer = Tracer()
    if trace:
        tracer.install()
        tracer.op = "setup"
    import thdist

    catalog = thdist.load_catalog(CATALOG)
    k, caps = catalog.policy.size_cap, catalog.policy.caps()
    ops = []  # [label, start ns, end ns, state, bound, error]
    refs = []
    for cert in catalog.certificates:
        refs.append(reference_ns())
        tracer.op = cert.label()
        start = perf_counter_ns()
        try:
            status = thdist.verify_certificate(cert, catalog.theories, k, caps)
            outcome = [status.state, status.bound, None]
        except Exception as exc:  # counted as a failed operation
            outcome = [None, None, f"{type(exc).__name__}: {exc}"]
        ops.append([cert.label(), start, perf_counter_ns(), *outcome])
    refs.append(reference_ns())
    return {"ops": ops, "refs": refs, "rss_kb": _rss_kb(), "spans": tracer.spans}


# ---------------------------------------------------------------------------
# Distance sweep

# Node counts of one pass.  Networks up to 40 nodes (A1's largest) are
# queried on all ordered pairs; larger ones on SAMPLED_PAIRS seeded pairs.
ALL_PAIRS_SIZES = (2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 40)
SAMPLED_SIZES = (48, 64, 80, 96, 128, 160)
SAMPLED_PAIRS = 400
# (equivalence edges, step edges) per node, cycled over the networks.
DENSITIES = ((0.0, 1.0), (0.3, 2.0), (0.6, 0.5), (1.0, 3.0))
# The reference loop runs before every REF_EVERY-th network and after the last.
REF_EVERY = 4


def make_networks(seed: int) -> list[dict]:
    """The pass's inputs: node names, (a, b, weight) edges and queries."""
    rng = random.Random(seed)
    specs = []
    index = 0
    for mode in ("symmetric", "directed"):
        for n in ALL_PAIRS_SIZES + SAMPLED_SIZES:
            eq_rate, step_rate = DENSITIES[index % len(DENSITIES)]
            index += 1
            nodes = [f"n{i}" for i in range(n)]
            edges = []
            for weight, rate in ((0, eq_rate), (1, step_rate)):
                for _ in range(round(rate * n)):
                    a, b = rng.sample(range(n), 2)
                    edges.append((nodes[a], nodes[b], weight))
            if n in ALL_PAIRS_SIZES:
                queries = [(a, b) for a in nodes for b in nodes]
            else:
                queries = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(SAMPLED_PAIRS)]
            specs.append({"name": f"{mode[0]}{n}", "mode": mode, "nodes": nodes,
                          "edges": edges, "queries": queries})
    return specs


def distance_sweep(seed: int, seconds: float, trace: bool) -> dict:
    """Closed-loop passes over the seeded networks for `seconds`; with
    `trace`, every other pass runs traced.  Each pass is printed as one
    JSON line as soon as it ends, so that the process's memory does not
    grow with the number of passes: [traced, per network [construction ns,
    query latencies ns], failures, timed intervals (traced only), spans,
    reference ns]."""
    tracer = Tracer()
    from thdist import network

    specs = make_networks(seed)
    prepared = []
    for spec in specs:
        directed = spec["mode"] == "directed"
        edges = tuple(
            network.NetEdge(a, b, w, "equiv" if w == 0 else "step",
                            directed=directed and w == 1)
            for a, b, w in spec["edges"]
        )
        moves = {(a, b, w) for a, b, w in spec["edges"]}
        moves |= {(b, a, w) for a, b, w in spec["edges"] if not (directed and w == 1)}
        comp_of, dist = oracle_matrix(spec["nodes"], spec["edges"], directed)
        expected = [dist[comp_of[a]][comp_of[b]] for a, b in spec["queries"]]
        prepared.append((spec, edges, moves, expected))
    plain = (network.step_distance, network.directed_step_distance)
    if trace:
        tracer.install()
    spanned = (network.step_distance, network.directed_step_distance)

    passes = 0
    errors: list[str] = []
    begin = perf_counter_ns()
    while not passes or perf_counter_ns() - begin < seconds * 1e9 or (trace and passes < 2):
        traced = trace and passes % 2 == 1
        fns = spanned if traced else plain
        timings = []
        intervals = []  # (operation id, start, end); kept for traced passes
        refs = []
        failures = 0
        for index, (spec, edges, moves, expected) in enumerate(prepared):
            if index % REF_EVERY == 0:
                refs.append(reference_ns())
            fn = fns[spec["mode"] == "directed"]
            start = perf_counter_ns()
            net = network.ClusterNetwork(spec["name"], spec["mode"], tuple(spec["nodes"]), edges)
            built = perf_counter_ns()
            intervals.append((f"build:{spec['name']}", start, built))
            latencies = []
            timings.append([built - start, latencies])
            answers = []
            for qi, (a, b) in enumerate(spec["queries"]):
                if traced:
                    tracer.op = f"{spec['name']}:{qi}"
                start = perf_counter_ns()
                try:
                    answer = fn(net, a, b)
                except Exception as exc:  # counted as a failed operation
                    answer = exc
                end = perf_counter_ns()
                latencies.append(end - start)
                if traced:
                    intervals.append((tracer.op, start, end))
                answers.append(answer)
            for (a, b), want, answer in zip(spec["queries"], expected, answers):
                if isinstance(answer, Exception):
                    problem = f"d({a},{b}) raised {type(answer).__name__}: {answer}"
                else:
                    problem = check_distance(answer, a, b, want, moves)
                if problem:
                    failures += 1
                    if len(errors) < 5:
                        errors.append(f"{spec['name']}: {problem}")
        refs.append(reference_ns())
        json.dump([traced, timings, failures, intervals if traced else [], tracer.spans, refs],
                  sys.stdout, separators=(",", ":"))
        print(flush=True)
        tracer.spans.clear()
        passes += 1
    sizes = {
        "networks": len(specs),
        "queries_per_pass": sum(len(s["queries"]) for s in specs),
        "edges_per_pass": sum(len(s["edges"]) for s in specs),
        "max_nodes": max(len(s["nodes"]) for s in specs),
    }
    return {"errors": errors, "sizes": sizes, "rss_kb": _rss_kb()}


# ---------------------------------------------------------------------------
# One workbench command

def cli(argv: list[str]) -> int:
    """Run one `thdist` command as the CLI would, then record start-up,
    memory and (with PERFBENCH_TRACE=1) spans in the sidecar file."""
    from thdist.cli import main

    ready = perf_counter_ns()
    tracer = Tracer()
    if os.environ.get("PERFBENCH_TRACE") == "1":
        tracer.install()
        tracer.op = os.environ.get("PERFBENCH_OP")
    try:
        code = main(argv)
    finally:
        sys.stdout.flush()
        with open(os.environ["PERFBENCH_SIDECAR"], "w") as fh:
            json.dump({"ready_ns": ready, "rss_kb": _rss_kb(), "spans": tracer.spans}, fh)
    return code


def _main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "cli":
        return cli(argv[1:])
    if mode == "probe":
        out = probe()
    elif mode == "catalog-check":
        out = catalog_check(argv[1] == "1")
    elif mode == "distance-sweep":
        out = distance_sweep(int(argv[1]), float(argv[2]), argv[3] == "1")
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")
    json.dump(out, sys.stdout, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
