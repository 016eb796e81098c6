"""Self-tests of the benchmark's oracle, statistics, checkers and tracer.

    python3 perfbench/selftest.py

Run from the repository root; takes about ten seconds.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import references  # noqa: E402
import run  # noqa: E402
from tracer import LAYER_METRICS, covered_ns, self_times  # noqa: E402

INF = math.inf


def distances(nodes, edges, directed):
    comp_of, dist = references.oracle_matrix(nodes, edges, directed)
    return {(a, b): dist[comp_of[a]][comp_of[b]] for a in nodes for b in nodes}


class OracleTest(unittest.TestCase):
    def test_symmetric(self):
        d = distances("abcd", [("a", "b", 1), ("b", "c", 0)], False)
        self.assertEqual((d["a", "c"], d["c", "a"], d["b", "c"], d["a", "a"]), (1, 1, 0, 0))
        self.assertEqual(d["a", "d"], INF)

    def test_directed(self):
        d = distances("abcd", [("a", "b", 1), ("b", "c", 1), ("c", "d", 0)], True)
        self.assertEqual((d["a", "b"], d["a", "c"], d["a", "d"], d["d", "c"]), (1, 2, 2, 0))
        self.assertEqual((d["b", "a"], d["c", "a"], d["d", "b"]), (INF, INF, INF))

    def test_zero_edges_only(self):
        d = distances("abcx", [("a", "b", 0), ("c", "b", 0)], True)
        self.assertEqual({d[p] for p in d if "x" not in p}, {0})
        self.assertEqual((d["a", "x"], d["x", "c"], d["x", "x"]), (INF, INF, 0))


class PercentileTest(unittest.TestCase):
    def test_rule_keeps_ten_samples_beyond(self):
        cases = {9: None, 19: None, 20: 50, 99: 50, 100: 90, 999: 90, 1000: 99,
                 9999: 99, 10000: 99.9, 10**6: 99.9}
        for n, p in cases.items():
            self.assertEqual(run.tail_percentile(n), p, n)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 99), 99)
        self.assertEqual(run.percentile([7.0], 99), 7.0)
        self.assertEqual(run.percentile(list(range(1, 10001)), 99.9), 9990)


class CheckerTest(unittest.TestCase):
    def test_wrong_certificate_reference_counts_as_failure(self):
        saved = references.CERT_STATUS["bot-from-empty"]
        references.CERT_STATUS["bot-from-empty"] = ("verified-exact", None)
        try:
            result = run.catalog_check(seed=1, seconds=0, trace=False)
        finally:
            references.CERT_STATUS["bot-from-empty"] = saved
        self.assertEqual((result.attempted, result.failed), (22, 1))
        self.assertIn("bot-from-empty", result.errors[0])

    def test_wrong_distance_reference_counts_as_failure(self):
        from thdist.network import ClusterNetwork, NetEdge, step_distance

        net = ClusterNetwork("t", "symmetric", ("a", "b", "c"),
                             (NetEdge("a", "b", 1, "step"), NetEdge("b", "c", 0, "equiv")))
        moves = {("a", "b", 1), ("b", "a", 1), ("b", "c", 0), ("c", "b", 0)}
        answer = step_distance(net, "a", "c")
        self.assertIsNone(references.check_distance(answer, "a", "c", 1, moves))
        self.assertIsNotNone(references.check_distance(answer, "a", "c", 2, moves))
        self.assertIsNotNone(references.check_distance(answer, "a", "c", 1, moves - {("b", "c", 0)}))

    def test_wrong_session_answers_count_as_failures(self):
        commands = references.session_commands("model.json", 8)
        self.assertIsNone(commands["dist-Ladder"][1]({"distance": 4, "status": "exact"}))
        self.assertIsNotNone(commands["dist-Ladder"][1]({"distance": 4, "status": "bounded"}))
        self.assertIsNotNone(commands["classify-ad"][1]({"distance": 1}))
        self.assertIsNotNone(commands["spectrum-Eqrels"][1]({"spectrum": references.SPECTRA["Posets"]}))
        self.assertIsNone(commands["closure"][1]({"count": 256}))
        self.assertIsNotNone(commands["closure"][1]({"count": 1024}))

    def test_poset_reference(self):
        self.assertEqual([len(references.posets(k)) for k in (1, 2, 3, 4)], [1, 2, 5, 16])
        self.assertEqual(len(references.closure_candidates()), 11)


class TracerTest(unittest.TestCase):
    def test_self_time_subtracts_covered_children(self):
        spans = [[1, None, "op", "root", 0, 100, None],
                 [2, 1, "op", "child", 10, 30, None],
                 [3, 1, "op", "child", 50, 60, None],
                 [4, 2, "op", "leaf", 15, 20, None]]
        self.assertEqual(self_times(spans), {1: 70, 2: 15, 3: 10, 4: 5})
        self.assertEqual(covered_ns([(0, 10), (5, 20), (30, 40)]), 30)

    def test_install_patches_every_binding(self):
        code = (
            "import sys; sys.path[:0] = ['perfbench', 'src']\n"
            "from tracer import Tracer\n"
            "t = Tracer(); t.install()\n"
            "import thdist, thdist.relations as r, thdist.semantics as s, thdist.cache as c\n"
            "assert r.enumerate_models is s.enumerate_models\n"
            "assert thdist.enumerate_models is s.enumerate_models\n"
            "assert hasattr(s.enumerate_models, '__wrapped__')\n"
            "assert hasattr(c.DiskProfileStore.get, '__wrapped__')\n"
            "thdist.spectrum(thdist.Theory('T', thdist.Language.make('L', {'P': 1}, 1), ()), 2)\n"
            "assert {x[3] for x in t.spans} >= {'semantics.enumerate_models'}\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], cwd=HERE.parent,
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)


class BenchmarkFileTest(unittest.TestCase):
    def test_metrics_match_the_benchmark_file(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         LAYER_METRICS)
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         ["setup_s", "wall_s", "peak_rss_mb"])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
