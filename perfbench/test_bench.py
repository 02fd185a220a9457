"""Tests of the benchmark itself (not of circuitkit).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the root of a source checkout; the traced-run test starts a few
fresh interpreters and takes under a minute.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

COUNTS = ("lp.pivots", "subspace.enum.supports_tried", "augment.steps", "graver.elements")


def scratch():
    run.WORK_ROOT.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.WORK_ROOT)


def generated_files(workload, seed):
    with scratch() as tmp:
        work = Path(tmp)
        gen.generate(workload, seed, work)
        return {p.name: p.read_bytes() for p in sorted(work.iterdir())}


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = generated_files(workload, 7)
                self.assertEqual(first, generated_files(workload, 7))
                self.assertNotEqual(first, generated_files(workload, 8))

    def test_separability_matches_the_circuit_hypergraph(self):
        # block-diagonal: ker splits; a 1 x 3 all-ones row: one component;
        # ker [[1, 0, 0], [0, 1, 1]] has x_0 = 0, a coordinate in no circuit
        self.assertTrue(gen.separable([[1, 1, 0, 0], [0, 0, 1, 1]], 4))
        self.assertFalse(gen.separable([[1, 1, 1]], 3))
        self.assertTrue(gen.separable([[1, 0, 0], [0, 1, 1]], 3))
        self.assertFalse(gen.separable([[1, -1, 0, 2], [0, 1, 1, 1]], 4))

    def test_flow_oracle_matches_a_known_optimum(self):
        # two parallel routes 0 -> 2: cost 1 via node 1 with cap 2, cost 5 direct
        arcs = [(0, 1), (1, 2), (0, 2)]
        optimum = gen.min_cost_flow(3, arcs, [2, 2, None], [0, 1, 5], [-3, 0, 3])
        self.assertEqual(optimum, 2 * 1 + 1 * 5)


class TracedRunTest(unittest.TestCase):
    def traced_counts(self, workload, units):
        saved = run.TRACE_UNITS[workload]
        run.TRACE_UNITS[workload] = units
        try:
            with scratch() as tmp:
                work = Path(tmp)
                built, _ = run.setup(workload, 3, work)
                tally, metrics, _, problems = run.traced_run(workload, built, work)
        finally:
            run.TRACE_UNITS[workload] = saved
        self.assertEqual(tally.status["failed"], 0)
        self.assertEqual(problems, [])
        self.assertEqual(set(metrics), set(run.PER_LAYER))
        return {key: metrics[key] for key in COUNTS}, tally.digest.hexdigest()

    def test_two_traced_runs_give_identical_counts(self):
        for workload, units in (("prox-sweep", 1), ("walks-graver-cli", 9)):
            with self.subTest(workload=workload):
                first = self.traced_counts(workload, units)
                self.assertEqual(first, self.traced_counts(workload, units))
                self.assertTrue(any(first[0].values()))


class TracerTest(unittest.TestCase):
    def test_self_time_excludes_child_spans(self):
        ticks = iter(range(100))
        tr = tracer.Tracer(clock=lambda: next(ticks))
        inner = tr.wrap("ratmat", lambda: None)
        nested = tr.wrap("ratmat", inner)  # same layer: not a new span
        outer = tr.wrap("imbalance.kappa_star", nested)
        outer()
        # outer runs over ticks 0..3, the one ratmat span over ticks 1..2
        self.assertEqual(tr.spans["ratmat"], [1, 1])
        self.assertEqual(tr.spans["imbalance.kappa_star"], [1, 2])

    def test_missing_name_is_reported_not_raised(self):
        sys.path.insert(0, str(run.ROOT / "src"))
        saved = dict(tracer.LAYERS)
        tracer.LAYERS["ratmat"] = ("circuitkit.ratmat", ("rref", "no_such_entry"))
        tracer.LAYERS["gone"] = ("circuitkit.no_such_module", ("f",))
        try:
            tr = tracer.Tracer()
            tr.install()
        finally:
            tracer.LAYERS.clear()
            tracer.LAYERS.update(saved)
        self.assertEqual(
            tr.missing, ["circuitkit.ratmat.no_such_entry", "circuitkit.no_such_module"]
        )


class TimedRunTest(unittest.TestCase):
    def test_end_to_end_metric_names_match_benchmark_json(self):
        with scratch() as tmp:
            work = Path(tmp)
            units, _ = run.setup("analyze-cli", 3, work)
            tally, metrics, _ = run.timed_run(units, 1, work)
        self.assertEqual(tally.status["failed"], 0)
        self.assertEqual(set(metrics) | {"setup_s"}, set(run.END_TO_END))
        self.assertEqual([w["name"] for w in run.SPEC["workloads"]], list(run.WORKLOADS))

    def test_prox_check_rejects_a_wrong_optimum(self):
        sys.path.insert(0, str(run.ROOT / "src"))
        import child

        inst = gen.prox_instance(gen._rng("prox-sweep", 3), 7, 3)
        op = {"index": 0, "kind": "prox", "inst": inst}
        out = child.prox_op(inst)
        self.assertEqual(checks.classify(op, {"out": out}), ("ok", ""))
        for part, key in (("lp", "y"), ("lp", "x"), ("bounded", "y"), ("bounded", "dual_upper")):
            with self.subTest(part=part, key=key):
                bad = json.loads(json.dumps(out))
                bad[part][key][0] = str(Fraction(bad[part][key][0]) + 1)
                self.assertEqual(checks.classify(op, {"out": bad})[0], "failed")

    def test_an_unexpected_refusal_fails(self):
        op = {"index": 0, "kind": "analyze", "rows": [[1, 1, 1, 1]]}
        record = {"exit": 2, "stdout": "", "stderr": "pairwise ratios need a non-separable subspace"}
        self.assertEqual(checks.classify(op, record)[0], "failed")
        op["rows"] = [[1, 1, 0, 0], [0, 0, 1, 1]]
        self.assertEqual(checks.classify(op, record), ("refused", "analyze-separable"))
        op = {"index": 0, "kind": "support", "refusal": None}
        record = {"exit": 1, "stdout": "", "stderr": "audit support failed: support did not shrink"}
        self.assertEqual(checks.classify(op, record)[0], "failed")
        op["refusal"] = "support-did-not-shrink"
        self.assertEqual(checks.classify(op, record), ("refused", "support-did-not-shrink"))

    def test_latency_is_scaled_to_the_reference_but_a_failure_is_not(self):
        ref = probe.PROBE_REF_MS
        self.assertEqual(probe.scale(2 * ref, 2 * ref), 0.5)
        tally = run.Tally()
        op = {"index": 0, "kind": "analyze", "rows": [[1, 1, 0, 0], [0, 0, 1, 1]]}
        record = {"exit": 2, "stdout": "", "stderr": "pairwise ratios need a non-separable subspace"}
        tally.add(op, record, 300.0, probe.scale(2 * ref, 2 * ref))  # refused: no latency
        tally.add(op, None, 300.0, probe.scale(2 * ref, 2 * ref))  # timed out
        self.assertEqual(tally.samples, {0: [run.OP_LIMIT_S * 1000.0]})

    def test_an_op_weighs_the_same_however_many_passes_it_made(self):
        self.assertEqual(run.per_op({0: [100.0, 300.0, 200.0], 1: [50.0]}), [200.0, 50.0])

    def test_tail_is_the_highest_percentile_with_ten_beyond(self):
        value, pct, beyond = run.tail_latency(list(range(100)))
        self.assertEqual((pct, beyond), (90.0, 10))
        self.assertTrue(89.0 < value < 90.0, value)

    def test_quantile_is_smooth_across_a_gap(self):
        self.assertAlmostEqual(run.quantile([5, 1, 4, 2, 3], 0.5), 3.0)
        # moving the middle value of a sample with a gap moves a plain
        # median by all of it, and this estimate by a fraction of it
        before = run.quantile([100.0] * 7 + [150.0] + [200.0] * 7, 0.5)
        after = run.quantile([100.0] * 7 + [199.0] + [200.0] * 7, 0.5)
        self.assertLess(after - before, 49.0 / 4)


def tearDownModule():
    try:
        run.WORK_ROOT.rmdir()
    except OSError:
        pass


if __name__ == "__main__":
    unittest.main()
