"""Self-tests of the benchmark's own arithmetic and declarations.

Run from the root of a checkout::

    python3 -m unittest discover perfbench
"""

from __future__ import annotations

import importlib
import json
import re
import sys
import threading
import unittest
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import analysis
import gen
import run
import tracer
from analysis import SpanTree, covered_ns, layer_metrics, tail

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def span(sid, parent, name, start, end, counts=None, thread=1):
    return {"id": sid, "parent": parent, "name": name, "op": "op", "thread": thread,
            "start_ns": start, "end_ns": end, "counts": counts, "error": None}


class TailTest(unittest.TestCase):
    def test_needs_more_than_ten_samples(self):
        self.assertIsNone(tail([1.0] * 10))
        self.assertIsNone(tail([]))

    def test_eleven_samples_leave_ten_beyond_the_smallest(self):
        value, percentile, beyond = tail([float(v) for v in range(11, 0, -1)])
        self.assertEqual((value, beyond), (1.0, 10))
        self.assertAlmostEqual(percentile, 100.0 / 11)

    def test_picks_highest_percentile_with_ten_beyond(self):
        samples = [float(v) for v in range(100)]
        value, percentile, beyond = tail(list(reversed(samples)))
        self.assertEqual(value, 89.0)
        self.assertEqual(percentile, 90.0)
        self.assertEqual(sum(1 for v in samples if v > value), beyond)


class SelfTimeTest(unittest.TestCase):
    def test_union_of_overlapping_intervals(self):
        self.assertEqual(covered_ns([(10, 50), (30, 80), (90, 95)], 0, 100), 75)
        self.assertEqual(covered_ns([(10, 50), (20, 30)], 0, 100), 40)
        self.assertEqual(covered_ns([], 0, 100), 0)

    def test_children_are_clipped_to_the_parent(self):
        self.assertEqual(covered_ns([(-20, 10), (90, 200)], 0, 100), 20)

    def test_overlapping_children_on_two_threads(self):
        tree = SpanTree([[
            span(1, None, "bench.op", 0, 100),
            span(2, 1, "repro.attack.aes_search.AesKeySearch.find_hits", 10, 50, thread=1),
            span(3, 1, "repro.attack.aes_search.AesKeySearch.find_hits", 30, 80, thread=2),
            span(4, 2, "repro.attack.keymine.mine_scrambler_keys", 15, 45, thread=1),
        ]])
        root, first = tree.by_key[(0, 1)], tree.by_key[(0, 2)]
        self.assertEqual(tree.self_ns(root), 30)  # 100 - |[10, 80]|
        self.assertEqual(tree.self_ns(first), 10)  # the grandchild nests inside
        self.assertEqual(tree.self_ns(tree.by_key[(0, 4)]), 30)

    def test_processes_do_not_share_span_ids(self):
        tree = SpanTree([[span(1, None, "bench.op", 0, 10)],
                         [span(1, None, "bench.op", 0, 20)]])
        self.assertEqual(len(tree.named("bench.op")), 2)
        self.assertEqual(tree.children, {})


class LayerMetricsTest(unittest.TestCase):
    def test_recover_self_time_and_outermost_busy_time(self):
        recover = "repro.attack.aes_search.AesKeySearch.recover_keys"
        tree = SpanTree([[
            span(1, None, "bench.op", 0, 1000),
            span(2, 1, recover, 0, 1000, counts={"keys": 2}),
            span(3, 2, analysis.FIND_HITS, 0, 300, counts={"hits": 4, "join_s": 0.1,
                                                           "verify_s": 0.2}),
            span(4, 2, "repro.attack.decode_shard.decode_schedules_sharded", 400, 700,
                 counts={"tables": 10, "converged": 4, "sweeps": 50}),
            span(5, 4, "repro.attack.decode.decode_schedules", 400, 650,
                 counts={"tables": 5, "converged": 2, "sweeps": 25}),
            span(6, 2, "repro.attack.aes_search.repair_observed_table", 800, 900),
        ]])
        metrics = layer_metrics(tree)
        # recover_keys minus find_hits and decode, keeping its own helpers.
        self.assertAlmostEqual(metrics["aes_search.recover_self_s"], 400e-9)
        self.assertAlmostEqual(metrics["decode.busy_s"], 300e-9)
        self.assertEqual(metrics["decode.tables"], 10)
        self.assertEqual(metrics["decode.abstained"], 6)
        self.assertAlmostEqual(metrics["decode.converged_frac"], 0.4)
        self.assertAlmostEqual(metrics["aes_search.keys_per_hit"], 0.5)
        self.assertEqual(metrics["trace.unattributed_frac"], 0.0)

    def test_attack_layer_counters_are_zero_without_spans(self):
        metrics = layer_metrics(SpanTree([]))
        self.assertTrue(all(value == 0 for value in metrics.values()))


class TracerTest(unittest.TestCase):
    def test_pool_thread_spans_are_children_of_the_submitter(self):
        trace = tracer.Tracer()
        tracer._propagate_context_to_pool_threads()
        work = trace.wrap(lambda: threading.get_ident(), "repro.test.work")
        with trace.span("bench.op", op="op-1"):
            with ThreadPoolExecutor(max_workers=2) as pool:
                threads = {pool.submit(work).result() for _ in range(4)}
        records = trace.records()
        root = next(r for r in records if r["name"] == "bench.op")
        kids = [r for r in records if r["name"] == "repro.test.work"]
        self.assertEqual(len(kids), 4)
        self.assertTrue(all(r["parent"] == root["id"] and r["op"] == "op-1" for r in kids))
        self.assertTrue(threads)

    def test_failed_calls_are_recorded_and_reraised(self):
        trace = tracer.Tracer()

        def boom():
            raise ValueError("no")

        with self.assertRaises(ValueError):
            trace.wrap(boom, "repro.test.boom")()
        self.assertEqual(trace.records()[0]["error"], "ValueError")

    @unittest.skipUnless((run.SRC / "repro").is_dir(), "needs the program's src/")
    def test_install_rebinds_imported_aliases(self):
        sys.path.insert(0, str(run.SRC))
        try:
            trace = tracer.Tracer()
            self.assertGreater(trace.install(), 50)
            import repro.attack.keymine as keymine
            import repro.attack.pipeline as pipeline
        finally:
            sys.path.remove(str(run.SRC))
        self.assertIs(pipeline.mine_scrambler_keys, keymine.mine_scrambler_keys)
        self.assertTrue(hasattr(pipeline.mine_scrambler_keys, "__wrapped__"))

    @unittest.skipUnless((run.SRC / "repro").is_dir(), "needs the program's src/")
    def test_span_names_the_metrics_read_are_real_callables(self):
        """A renamed function must fail here, not read as a zero metric."""
        names = {*tracer.COUNTERS, *tracer.OP_IDS, *analysis.LOADS, analysis.MINE,
                 analysis.PRECOMPUTE, analysis.FIND_HITS, analysis.RECOVER,
                 analysis.ADAPTIVE, analysis.ESTIMATE, analysis.TRIAGE, analysis.RESILIENT,
                 analysis.JOURNAL, analysis.WAL_APPEND, analysis.EXECUTE_JOB}
        sys.path.insert(0, str(run.SRC))
        try:
            for name in sorted(names):
                module_name = max((m for m in tracer.TRACED_MODULES
                                   if name.startswith(m + ".")), key=len)
                target = importlib.import_module(module_name)
                for part in name[len(module_name) + 1:].split("."):
                    target = getattr(target, part)
                self.assertTrue(callable(target), name)
        finally:
            sys.path.remove(str(run.SRC))


class DeclarationsTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def test_metric_names_and_units_use_the_allowed_charset(self):
        for name, unit in {**run.E2E_METRICS, **run.LAYER_METRICS}.items():
            self.assertRegex(name, NAME)
            self.assertRegex(unit, UNIT)
        for workload in run.WORKLOADS:
            self.assertRegex(workload, NAME)

    def test_declared_metrics_are_exactly_the_emitted_ones(self):
        declared = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual(declared, run.E2E_METRICS)
        declared = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(declared, run.LAYER_METRICS)
        emitted = set(layer_metrics(SpanTree([])))
        self.assertLessEqual(emitted, set(run.LAYER_METRICS))

    def test_declared_workloads_are_the_runnable_ones(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))

    def test_bounds_and_setup_metric(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertTrue(all(0 < bound <= 0.25 for bound in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertEqual(self.spec["command"], ["python3", "perfbench/run.py"])


class OracleTest(unittest.TestCase):
    def test_exact_and_wrong_keys(self):
        dump = gen.PlantedDump(Path("d"), (b"a" * 32, b"b" * 32), 0.01, 64)
        self.assertEqual(gen.score_keys([b"a" * 32, b"b" * 32], dump), (2, 0))
        self.assertEqual(gen.score_keys([b"a" * 32, b"c" * 32], dump), (1, 1))
        self.assertEqual(gen.score_keys([], dump), (0, 0))


if __name__ == "__main__":
    unittest.main()
