"""thdist benchmark: three closed-loop workloads, one caller, one process at a time.

    python3 perfbench/run.py --workload catalog-check --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run it from the repository root; it needs nothing beyond the standard
library and imports thdist from ./src.  Workloads (README.md says why
each exists and which metrics a change to each layer should move):

  catalog-check     verify the shipped catalog's 22 certificates, one fresh
                    process per pass, no disk cache
  distance-sweep    0/1-BFS distance queries on seeded random cluster networks
  workbench-session 15 CLI commands, one process each, sharing a disk cache
                    that is empty when each session starts

Every answer is checked against references.py.  The last line of stdout
is one JSON object: correct, attempted, failed and the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1).  The lines
before it list every metric with its unit, the error rate, tail
latencies with their sample counts, input sizes, nproc and the Python
version.  With --trace 1, spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

sys.path.insert(0, str(Path(__file__).resolve().parent))

import references  # noqa: E402
from worker import REF_EVERY, reference_ns  # noqa: E402
from tracer import LAYER_METRICS, SESSION_COMMANDS, covered_ns, layer_metrics, self_times  # noqa: E402

WORKLOADS = ("catalog-check", "distance-sweep", "workbench-session")
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170
OUT_DIR = Path("perfbench/out")
WORKER = "perfbench/worker.py"
# Timed sections are reported in seconds at a reference speed of the host.
# Time spent computing is scaled by REFERENCE_NS over the median time of the
# nearest worker.reference_ns() calls; time spent starting a process (until
# the child has imported what it needs) by SPAWN_REFERENCE_NS over the
# median of the nearest spawn_reference_ns() calls.  "Nearest" is up to
# REF_WINDOW calls on each side: one call each side let the noise of single
# reference timings through, a whole pass missed the host's drift.
REFERENCE_NS = 10_000_000
SPAWN_REFERENCE_NS = 15_000_000
REF_WINDOW = 4


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env(**extra: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("THDIST_CACHE_DIR", "PYTHONPATH")}
    env["PYTHONPATH"] = "src"
    env.update(extra)
    return env


def spawn(args: list[str], env: dict) -> tuple[int, int, subprocess.CompletedProcess]:
    """Run one child to completion; returns (start ns, end ns, result)."""
    start = perf_counter_ns()
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} exceeded {CHILD_TIMEOUT_S} s") from exc
    return start, perf_counter_ns(), proc


def worker_lines(args: list[str], env: dict) -> tuple[int, list]:
    """Run a worker; returns its start time and its stdout JSON lines."""
    start, _, proc = spawn(args, env)
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return start, [json.loads(line) for line in proc.stdout.splitlines()]


def worker_json(args: list[str], env: dict) -> tuple[int, dict]:
    start, lines = worker_lines(args, env)
    return start, lines[-1]


def spawn_reference_ns() -> int:
    """Time a bare interpreter (no site packages) to start and exit."""
    start = perf_counter_ns()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return perf_counter_ns() - start


def scale(refs: list[int], i: int, nominal: int) -> float:
    """Factor for the i-th stretch of work, done between refs[i] and refs[i + 1]."""
    return nominal / statistics.median(refs[max(0, i + 1 - REF_WINDOW):i + 1 + REF_WINDOW])


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds from process start to an imported thdist with a parsed
    catalog: (scaled, as measured) per probe."""
    env = child_env()
    worker_json(["probe"], env)  # writes the bytecode caches, untimed
    scaled_s, raw_s = [], []
    refs = [spawn_reference_ns()]
    for i in range(SETUP_PROBES):
        start, out = worker_json(["probe"], env)
        refs.append(spawn_reference_ns())
        raw_s.append((out["ready_ns"] - start) / 1e9)
        scaled_s.append(raw_s[-1] * scale(refs, i, SPAWN_REFERENCE_NS))
    return scaled_s, raw_s


# ---------------------------------------------------------------------------
# Statistics

def rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile of n samples."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(values: list[float], p: float) -> float:
    return sorted(values)[rank(len(values), p) - 1]


def beyond(n: int, p: float) -> int:
    """Samples ranked above the p-th percentile of n."""
    return n - rank(n, p)


def tail_percentile(n: int, candidates=(50, 90, 99, 99.9)) -> float | None:
    """The highest candidate percentile with at least 10 samples beyond it."""
    best = None
    for p in candidates:
        if beyond(n, p) >= 10:
            best = p
    return best


class Trace:
    """Traced passes of one run: spans re-keyed into one id space."""

    def __init__(self):
        self.spans: list[list] = []
        self.passes = 0
        self.walls: list[float] = []
        self.scaled_walls: list[float] = []
        self.self_sums: list[float] = []
        self.unspanned: list[float] = []
        self.problems: list[str] = []

    def add_pass(self, spans: list[list], ops: list[tuple[str, int, int]],
                 scaled_wall_ns: float) -> None:
        """Take the spans of one traced pass whose timed operations ran
        over the `ops` (operation id, start ns, end ns) intervals."""
        offset = max((s[0] for s in self.spans), default=0)
        spans = [[sid + offset, (parent + offset) if parent is not None else None,
                  op, name, start, end, note]
                 for sid, parent, op, name, start, end, note in spans]
        self.spans.extend(spans)
        self.passes += 1
        op_ids = {op for op, _, _ in ops}
        timed = [s for s in spans if s[2] in op_ids]
        ids = {s[0] for s in timed}
        self_sum = sum(self_times(timed).values())
        top = [(s[4], s[5]) for s in timed if s[1] not in ids]
        wall = sum(end - start for _, start, end in ops)
        unspanned = wall - covered_ns(top)
        if abs(self_sum + unspanned - wall) > 1000:
            self.problems.append(
                f"span self times {self_sum} ns + unspanned {unspanned} ns != wall {wall} ns")
        self.walls.append(wall / 1e9)
        self.scaled_walls.append(scaled_wall_ns / 1e9)
        self.self_sums.append(self_sum / 1e9)
        self.unspanned.append(unspanned / 1e9)

    def metrics(self, untraced_walls: list[float]) -> dict[str, float]:
        """Per-layer metrics; `untraced_walls` are the run's scaled untraced walls."""
        out = layer_metrics(self.spans, self.passes)
        out["trace.wall_s"] = statistics.fmean(self.walls)
        out["trace.spans_self_s"] = statistics.fmean(self.self_sums)
        out["trace.unspanned_s"] = statistics.fmean(self.unspanned)
        out["trace.overhead_s"] = (statistics.fmean(self.scaled_walls)
                                   - statistics.fmean(untraced_walls))
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


class Run:
    """What one workload run measured."""

    def __init__(self):
        self.walls: list[float] = []  # untraced passes, scaled seconds
        self.raw_walls: list[float] = []  # the same, as measured
        self.latencies: list[float] = []  # untraced operations, scaled ms
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.rss_kb = 0
        self.trace = Trace()
        self.info: dict = {}
        self.extra: dict[str, dict] = {}  # workload-specific reported metrics
        self.cli_ms: dict[str, float] = {}  # per-layer cli metrics, traced sessions only

    def add_pass(self, raw_wall_ns: int, wall_ns: float, op_ns: list[float]) -> None:
        """Record one untraced pass: its time as measured, then its time and
        its operations' times scaled to the reference speed."""
        self.raw_walls.append(raw_wall_ns / 1e9)
        self.walls.append(wall_ns / 1e9)
        self.latencies += [ns / 1e6 for ns in op_ns]

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


def keep_going(run: Run, begin: int, seconds: float, trace: bool) -> bool:
    if not run.walls:
        return True
    if trace and not run.trace.passes:
        return True
    return perf_counter_ns() - begin < seconds * 1e9


# ---------------------------------------------------------------------------
# Workloads

def catalog_check(seed: int, seconds: float, trace: bool) -> Run:
    """The cold first-order path of `thdist check` without a disk cache.
    The input is the shipped catalog in catalog order, whatever the seed."""
    run = Run()
    env = child_env()
    begin = perf_counter_ns()
    while keep_going(run, begin, seconds, trace):
        traced = trace and len(run.walls) > run.trace.passes
        _, out = worker_json(["catalog-check", "1" if traced else "0"], env)
        run.rss_kb = max(run.rss_kb, out["rss_kb"])
        ops = []
        for label, start, end, state, bound, error in out["ops"]:
            run.attempted += 1
            problem = error or references.check_cert_status(label, state, bound)
            if problem:
                run.fail(problem)
            ops.append((label, start, end))
        op_ns = [end - start for _, start, end in ops]
        scaled_ns = [ns * scale(out["refs"], i, REFERENCE_NS) for i, ns in enumerate(op_ns)]
        if traced:
            run.trace.add_pass(out["spans"], ops, sum(scaled_ns))
        else:
            run.add_pass(sum(op_ns), sum(scaled_ns), scaled_ns)
    run.info["input"] = {"certificates": len(references.CERT_STATUS), "size_cap": 4,
                         "order": "catalog"}
    return run


def distance_sweep(seed: int, seconds: float, trace: bool) -> Run:
    """Single-pair 0/1-BFS queries, the only path that exercises `network` alone."""
    run = Run()
    _, lines = worker_lines(["distance-sweep", str(seed), str(seconds), "1" if trace else "0"],
                            child_env())
    out = lines.pop()
    run.rss_kb = out["rss_kb"]
    for traced, timings, failures, intervals, spans, refs in lines:
        raw_wall = wall = 0
        latencies = []
        for index, (build_ns, op_ns) in enumerate(timings):
            factor = scale(refs, index // REF_EVERY, REFERENCE_NS)
            raw_wall += build_ns + sum(op_ns)
            wall += (build_ns + sum(op_ns)) * factor
            latencies += [ns * factor for ns in op_ns]
        run.attempted += len(latencies)
        run.failed += failures
        if traced:
            # network construction has no span: it is the pass's unspanned time
            run.trace.add_pass(spans, intervals, wall)
        else:
            run.add_pass(raw_wall, wall, latencies)
    run.errors = out["errors"]
    run.info["input"] = out["sizes"]
    return run


def workbench_session(seed: int, seconds: float, trace: bool) -> Run:
    """The README's commands as a desk user runs them, one process each."""
    rng = random.Random(seed)
    middle = list(SESSION_COMMANDS[1:-1])
    rng.shuffle(middle)
    order = ["classify-ad", *middle, "check"]
    poset = rng.choice(references.closure_candidates())
    perm = list(range(4))
    rng.shuffle(perm)
    poset = frozenset((perm[a], perm[b]) for a, b in poset)
    orbits = references.pair_orbits(poset, 4)
    model = json.dumps({"size": 4, "interp": {"R": sorted(list(t) for t in poset)}})

    run = Run()
    classify_s: list[float] = []
    startup_ms: list[float] = []
    per_command: dict[str, list[float]] = {cmd: [] for cmd in SESSION_COMMANDS}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    begin = perf_counter_ns()
    while keep_going(run, begin, seconds, trace):
        traced = trace and len(run.walls) > run.trace.passes
        tmp = Path(tempfile.mkdtemp(prefix="session-", dir=OUT_DIR))
        try:
            model_file = tmp / "model.json"
            model_file.write_text(model)
            commands = references.session_commands(str(model_file), orbits)
            ops, spans, refs, spawn_refs, ready = [], [], [], [], []
            offset = 0
            for cmd in order:
                refs.append(reference_ns())
                spawn_refs.append(spawn_reference_ns())
                args, check = commands[cmd]
                sidecar = tmp / "sidecar.json"
                env = child_env(THDIST_CACHE_DIR=str(tmp / "cache"),
                                PERFBENCH_SIDECAR=str(sidecar),
                                PERFBENCH_TRACE="1" if traced else "0", PERFBENCH_OP=cmd)
                start, end, proc = spawn(["cli", *args], env)
                ops.append((cmd, start, end))
                run.attempted += 1
                try:
                    side = json.loads(sidecar.read_text())
                    sidecar.unlink()
                except (OSError, ValueError):
                    side = None
                problem = None
                if proc.returncode != 0:
                    problem = f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
                else:
                    try:
                        payload = json.loads(proc.stdout)
                    except ValueError:
                        payload = None
                        problem = "output is not JSON"
                    if payload is not None:
                        problem = check(payload)
                if problem:
                    run.fail(f"{cmd}: {problem}")
                ready.append(side["ready_ns"] if side else start)
                if side is None:
                    continue
                run.rss_kb = max(run.rss_kb, side["rss_kb"])
                if traced:
                    # span ids restart in every child process
                    spans += [[sid + offset, parent + offset if parent is not None else None,
                               op, name, s, e, note]
                              for sid, parent, op, name, s, e, note in side["spans"]]
                    offset += max((s[0] for s in side["spans"]), default=0)
                    startup_ms.append((side["ready_ns"] - start) / 1e6)
                    per_command[cmd].append((end - start) / 1e6)
            refs.append(reference_ns())
            spawn_refs.append(spawn_reference_ns())
            # a command starts its process until `ready`, then computes
            op_ns = [(r - start) * scale(spawn_refs, i, SPAWN_REFERENCE_NS)
                     + (end - r) * scale(refs, i, REFERENCE_NS)
                     for i, ((_, start, end), r) in enumerate(zip(ops, ready))]
            raw_ns = sum(end - start for _, start, end in ops)
            if traced:
                run.trace.add_pass(spans, ops, sum(op_ns))
            else:
                run.add_pass(raw_ns, sum(op_ns), op_ns)
                classify_s.append(op_ns[0] / 1e9)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    run.info["input"] = {"commands": order, "closure_model": sorted(poset)}
    run.extra["classify_ad_s"] = {"value": statistics.median(classify_s), "unit": "s",
                                  "samples": len(classify_s)}
    if trace:
        per_command["startup"] = startup_ms
        run.cli_ms = {f"cli.{cmd}_ms": statistics.fmean(v) if v else 0.0
                      for cmd, v in per_command.items()}
    return run


RUNNERS = {
    "catalog-check": catalog_check,
    "distance-sweep": distance_sweep,
    "workbench-session": workbench_session,
}


# ---------------------------------------------------------------------------
# Reporting

def report(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup, raw_setup = measure_setup()
    run = RUNNERS[workload](seed, seconds, trace)
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "passes": len(run.walls), "traced_passes": run.trace.passes,
        "as_measured": {"setup_s": statistics.median(raw_setup),
                        "wall_s": statistics.median(run.raw_walls)},
        **run.info,
    }
    # printed with the result but not declared in BENCHMARK.json: see README.md
    samples = len(run.latencies)
    extra = {"op_p50_ms": {"value": statistics.median(run.latencies), "unit": "ms",
                           "samples": samples}}
    tail = tail_percentile(samples)
    if tail and tail > 50:
        extra[f"op_p{tail:g}_ms"] = {"value": percentile(run.latencies, tail), "unit": "ms",
                                     "samples": samples, "beyond": beyond(samples, tail)}
    if workload == "distance-sweep":
        extra["op_p99_ms"] = {"value": percentile(run.latencies, 99), "unit": "ms",
                              "samples": samples, "beyond": beyond(samples, 99)}
    extra.update(run.extra)
    extra["error_rate"] = {"value": run.failed / run.attempted, "unit": "ratio",
                           "samples": run.attempted, "failed": run.failed}
    info["reported"] = extra
    info["errors"] = run.errors + run.trace.problems
    if trace:
        layer = run.trace.metrics(run.walls)
        layer.update(run.cli_ms)
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        metrics = {name: {"value": layer[name], "unit": units[name]} for name in units}
        run.trace.write(OUT_DIR / f"{workload}.spans.jsonl")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(run.walls), "unit": "s"},
            "peak_rss_mb": {"value": run.rss_kb / 1024, "unit": "MB"},
        }
    for name, m in [*metrics.items(), *extra.items()]:
        note = f"  ({m['samples']} samples)" if "samples" in m else ""
        print(f"{workload:18} {name:44} {m['value']:>14.6g} {m['unit']}{note}")
    print(json.dumps(info, sort_keys=True))
    return {
        "correct": run.failed == 0 and not run.trace.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/thdist/__init__.py").is_file() or not Path(WORKER).is_file():
        print("run from the root of a thdist checkout (src/thdist and perfbench/ are missing)",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for workload in WORKLOADS:
            # each workload in its own process, like separate runs
            status |= subprocess.run([sys.executable, __file__, "--workload", workload,
                                      "--seed", str(args.seed), "--seconds", str(args.seconds),
                                      "--trace", str(args.trace)]).returncode
        return status
    try:
        result = report(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
