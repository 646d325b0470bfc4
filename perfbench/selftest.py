"""Self-test of the benchmark at tiny sizes (about a minute on two cores).

Run from the repository root::

    python3 perfbench/selftest.py

It checks that every workload prints each metric named in BENCHMARK.json
with its unit, that failed operations are counted against attempted ones,
that the traced run puts back every function it wrapped, and that the
benchmark refuses to report when the program's sources are missing.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _invoke(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


class PrintedMetrics(unittest.TestCase):
    def test_every_workload_prints_every_metric_with_its_unit(self):
        self.assertEqual(sorted(run.WORKLOADS), sorted(w["name"] for w in SPEC["workloads"]))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    done = _invoke(ROOT, workload, trace)
                    self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(printed, expected)


class FailedOperations(unittest.TestCase):
    def _measure(self, workload):
        return run.measure(workload, seed=3, seconds=0.5, trace=False, tiny=True, import_s=0.0)

    def _every_other(self, workload, corrupt):
        operate, calls = workload.operate, [0]

        def faulty():
            wall, output = operate()
            calls[0] += 1
            return wall, corrupt(output) if calls[0] % 2 else output

        workload.operate = faulty
        return workload

    def test_invalid_report_counts(self):
        def invalid(report):
            return dataclasses.replace(report, metrics={**report.metrics, "valid": False})

        record, result = self._measure(self._every_other(run.WORKLOADS["mis-powerlaw100k"](), invalid))
        self.assertGreater(result["failed"], 0)
        self.assertFalse(result["correct"])
        self.assertAlmostEqual(record["notes"]["failed_frac"], result["failed"] / result["attempted"])

    def test_solution_failing_the_independent_check_counts(self):
        def non_maximal(report):  # the library's own validator still says valid
            return dataclasses.replace(report, solution=report.solution[1:])

        _, result = self._measure(self._every_other(run.WORKLOADS["mis-powerlaw100k"](), non_maximal))
        self.assertGreater(result["failed"], 0)
        self.assertFalse(result["correct"])

    def test_broken_maintained_solution_counts(self):
        workload = run.WORKLOADS["stream-churn-mis20k"]()

        def conflicting(stats):  # put a neighbour of an MIS member into the MIS
            maintainer = workload.maintainer
            csr = maintainer.graph.snapshot()
            clash = maintainer.in_mis[csr.src] & ~maintainer.in_mis[csr.indices]
            maintainer.in_mis[csr.indices[clash][0]] = True
            return stats

        _, result = self._measure(self._every_other(workload, conflicting))
        self.assertGreater(result["failed"], 0)
        self.assertFalse(result["correct"])

    def test_raised_exception_counts(self):
        workload = run.WORKLOADS["matching-gnm20k"]()

        def boom(report):
            raise RuntimeError("injected")

        _, result = self._measure(self._every_other(workload, boom))
        self.assertGreater(result["failed"], 0)
        self.assertFalse(result["correct"])


class IndependentChecks(unittest.TestCase):
    # Path 0-1-2-3 plus the chord 0-2; keys are u * n + v with u < v.
    N = 4
    KEYS = sorted(u * 4 + v for u, v in ((0, 1), (1, 2), (2, 3), (0, 2)))

    def test_matching(self):
        keys = run.np.asarray(self.KEYS)
        self.assertTrue(run.is_matching(self.N, keys, [[0, 1], [2, 3]]))
        self.assertTrue(run.is_matching(self.N, keys, [[3, 2]]))
        self.assertFalse(run.is_matching(self.N, keys, [[0, 1], [1, 2]]))  # shared endpoint
        self.assertFalse(run.is_matching(self.N, keys, [[0, 3]]))  # not an edge
        self.assertFalse(run.is_matching(self.N, keys, [[2, 4]]))  # out of range

    def test_mis(self):
        us, vs = (run.np.asarray(a) for a in zip(*((0, 1), (1, 2), (2, 3), (0, 2))))
        self.assertTrue(run.is_mis(self.N, us, vs, [0, 3]))
        self.assertTrue(run.is_mis(self.N, us, vs, [1, 3]))
        self.assertFalse(run.is_mis(self.N, us, vs, [0]))  # 3 undominated
        self.assertFalse(run.is_mis(self.N, us, vs, [0, 2]))  # adjacent
        self.assertFalse(run.is_mis(self.N, us, vs, [0, 3, 3]))  # repeated member


class TracerRestores(unittest.TestCase):
    def _targets(self):
        for _, module_name, class_name, attrs in layers.TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            for attr in attrs:
                yield owner, attr

    def test_wrapped_functions_are_the_originals_afterwards(self):
        before = {(owner, attr): vars(owner)[attr] for owner, attr in self._targets()}
        workload = run.WORKLOADS["matching-gnm20k"]()
        workload.set_up(3, True)
        window, tracer, _ = run.traced_window(workload, 0.5, 1, run.HostReference())
        self.assertTrue(window.walls)
        for layer in ("core.fractional", "core.thresholds", "core.rounding", "graph.to_csr", "mpc"):
            self.assertGreater(tracer.calls[layer], 0, layer)
        claimed = sum(tracer.self_s.values())
        self.assertLessEqual(claimed, sum(window.walls))
        for (owner, attr), original in before.items():
            self.assertIs(vars(owner)[attr], original, f"{owner.__name__}.{attr}")

    def test_restored_after_an_exception(self):
        before = {(owner, attr): vars(owner)[attr] for owner, attr in self._targets()}
        with self.assertRaises(RuntimeError):
            with layers.LayerTracer():
                for (owner, attr), original in before.items():
                    self.assertIsNot(vars(owner)[attr], original)
                raise RuntimeError("inside the traced window")
        for (owner, attr), original in before.items():
            self.assertIs(vars(owner)[attr], original)


class MissingSources(unittest.TestCase):
    def test_refuses_without_the_program(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = _invoke(bare, "matching-gnm20k", 0)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
