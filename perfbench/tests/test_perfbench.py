"""Tests of the benchmark program on tiny inputs.

    python3 -m unittest discover -s perfbench/tests -v

Run from the repository root; the first test builds the program into
.bench_build as perfbench/run.py does.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402

TARGET_GAP = 0.10 + 1e-12


def setUpModule():
    if not run.build():
        raise RuntimeError("cannot build the benchmark program")


def drive(workload, *extra, configs=6):
    """Run the benchmark program on a tiny design space; returns the report."""
    command = [run.PROGRAM, "--workload", workload, "--seed", "1",
               "--seconds", "0", "--max-configs", str(configs)]
    result = subprocess.run(command + list(extra), cwd=ROOT,
                            env=dict(os.environ, HILP_LOG_LEVEL="warn"),
                            stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(result.stdout.strip().splitlines()[-1])


def value(report, name):
    return report["metrics"][name]["value"]


def pareto(rows):
    """dse::paretoFront over (area, speedup) with Figure 7's 0.5% gain."""
    order = sorted(rows, key=lambda r: (r["area_mm2"], -r["speedup"]))
    front, best = [], -1e300
    for row in order:
        if row["speedup"] > best + abs(best) * 5e-3:
            front.append(row)
            best = row["speedup"]
    return front


class PerfbenchTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_build"))

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def path(self, name):
        return os.path.join(self.tmp, name)

    def reference(self, workload):
        return os.path.join(PERFBENCH, "reference", workload + ".json")

    def test_metrics_are_exact_on_a_tiny_space(self):
        for workload in ("explore", "packing"):
            points = self.path(workload + "-points.json")
            report = drive(workload, "--reference", self.reference(workload),
                           "--points-out", points, configs=12)
            with open(points) as f:
                rows = json.load(f)
            self.assertEqual(len(rows), 12)
            self.assertTrue(report["correct"])
            self.assertEqual(report["attempted"], 12)
            self.assertEqual(report["failed"], 0)
            ok = [r for r in rows if r["ok"]]
            self.assertEqual(value(report, "over_target"),
                             sum(r["gap"] > TARGET_GAP for r in ok))
            self.assertEqual(value(report, "gap_max"),
                             max(r["gap"] for r in ok))

            traced = drive(workload, "--reference", self.reference(workload),
                           "--trace", "1", configs=12)
            self.assertEqual(value(traced, "dse.front_over_target"),
                             sum(r["gap"] > TARGET_GAP for r in pareto(ok)))
            self.assertEqual(value(traced, "cp.bnb.nodes"),
                             sum(r["nodes"] for r in rows))
            self.assertEqual(value(traced, "hilp.solves_per_eval"),
                             sum(r["solves"] for r in rows) / len(rows))
            self.assertEqual(value(traced, "dse.cache_hits"),
                             sum(r["cache_hit"] for r in rows))
            self.assertEqual(value(traced, "dse.warm_started"),
                             sum(r["warm_started"] for r in rows))
            self.assertEqual(value(traced, "dse.pruned"),
                             sum(r["pruned"] for r in rows))
            self.assertEqual(value(traced, "hilp.eval_samples"),
                             sum(r["solves"] > 0 for r in rows))
            # Points that lower to one instance replay once.
            self.assertGreater(value(traced, "replay.instances"), 0)
            self.assertLessEqual(value(traced, "replay.instances"), len(ok))

    def test_shifted_reference_fails_the_check(self):
        reference = self.path("reference.json")
        drive("explore", "--write-reference", reference)
        self.assertTrue(drive("explore", "--reference", reference)["correct"])

        with open(reference) as f:
            data = json.load(f)
        point = data["points"][3]
        width = point["hi"] - point["lo"]
        point["lo"] = point["hi"] * 1.5 + width
        point["hi"] = point["lo"] + width
        shifted = self.path("shifted.json")
        with open(shifted, "w") as f:
            json.dump(data, f)
        report = drive("explore", "--reference", shifted)
        self.assertFalse(report["correct"])
        self.assertEqual(report["failed"], 1)

    def test_points_at_another_step_are_replayed(self):
        # A certificate holds only at its own time step, so a point
        # whose reference was solved at another step is checked by
        # replaying its schedule instead, and a reference interval at
        # another step cannot fail it.
        reference = self.path("reference.json")
        drive("packing", "--write-reference", reference)
        with open(reference) as f:
            data = json.load(f)
        for point in data["points"]:
            point["step_s"] *= 5
            point["lo"] = point["hi"] = point["hi"] * 3
        moved = self.path("moved.json")
        with open(moved, "w") as f:
            json.dump(data, f)
        report = drive("packing", "--reference", moved)
        self.assertTrue(report["correct"])
        self.assertEqual(report["failed"], 0)

    def test_digests_compare_only_within_one_program(self):
        old_build = run.BUILD
        run.BUILD = self.tmp
        try:
            self.assertEqual(run.check_digests("deep", 1, ["a", "b"], "p1"), 0)
            self.assertEqual(run.check_digests("deep", 1, ["a", "b"], "p1"), 0)
            self.assertEqual(run.check_digests("deep", 1, ["a", "c"], "p1"), 1)
            # Another program may change the evaluations on purpose.
            self.assertEqual(run.check_digests("deep", 1, ["x", "y"], "p2"), 0)
        finally:
            run.BUILD = old_build
        self.assertEqual(run.program_key(), run.program_key())

    def test_deep_schedules_replay_clean(self):
        report = drive("deep", configs=2)
        self.assertTrue(report["correct"])
        self.assertEqual(report["attempted"], 4)
        self.assertEqual(report["failed"], 0)

    def test_same_seed_repeats_exactly(self):
        first = drive("explore", "--reference", self.reference("explore"))
        second = drive("explore", "--reference", self.reference("explore"))
        self.assertEqual(first["digests"], second["digests"])

    def test_traced_spans_nest_and_validate(self):
        trace = self.path("trace.json")
        report = drive("packing", "--reference", self.reference("packing"),
                       "--trace", "1", "--trace-out", trace)
        self.assertTrue(report["correct"])
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            per_layer = [m["name"] for m in json.load(f)["per_layer"]]
        self.assertEqual(sorted(report["metrics"]), sorted(per_layer))

        with open(trace) as f:
            events = json.load(f)["traceEvents"]
        stack = []
        for event in events:
            if event["ph"] == "B":
                if stack and stack[-1]["name"] == "replay.instance":
                    # A stage shares its instance's id.
                    self.assertEqual(event["args"]["id"],
                                     stack[-1]["args"]["id"])
                stack.append(event)
            else:
                self.assertEqual(stack.pop()["name"], event["name"])
        self.assertEqual(stack, [])
        names = {e["name"] for e in events}
        for name in ("replay.instance", "hilp.build", "cp.bounds", "cp.bnb",
                     "cp.solve", "baselines.gables_transform"):
            self.assertIn(name, names)

        check = subprocess.run([run.TRACE_CHECK, trace],
                               stdout=subprocess.PIPE, text=True)
        self.assertEqual(check.returncode, 0, check.stdout)

    def test_fails_without_the_program_sources(self):
        bare = self.path("bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(PERFBENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        result = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", "deep", "--seed",
             "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=180)
        self.assertNotEqual(result.returncode, 0)
        self.assertEqual(result.stdout, "")


if __name__ == "__main__":
    unittest.main()
