#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_perfbench.py

Builds the measuring program like run.py does, then checks that a seed
reproduces exactly, that malformed flags exit 2, that the result line
carries every metric BENCHMARK.json names, and that the traced run's hook
attribution adds up to its run_until time.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = str(bench.build())
        cls.spec = bench.load_spec()

    def perfbench(self, *args):
        return subprocess.run([self.binary, *args], capture_output=True, text=True)

    def traced(self, workload, seed):
        out = self.perfbench(f"--workload={workload}", f"--seed={seed}", "--seconds=0",
                             "--trace=1")
        self.assertEqual(out.returncode, 0, out.stderr)
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_same_seed_gives_identical_digests_and_counters(self):
        a = self.traced("quiet_tree", 7)
        b = self.traced("quiet_tree", 7)
        self.assertEqual(a["digest"], b["digest"])
        self.assertEqual(a["events"], b["events"])
        self.assertEqual(a["worst_offsets"], b["worst_offsets"])
        for m in self.spec["per_layer"]:
            if m["unit"] == "count":
                self.assertEqual(a["layers"][m["name"]], b["layers"][m["name"]], m["name"])
        # Traced and bridged repetitions reproduced the plain one.
        self.assertEqual(a["repro_failed"], 0, a["failures"])
        self.assertNotEqual(a["digest"], self.traced("quiet_tree", 8)["digest"])

    def test_malformed_flag_exits_2(self):
        for args in (["--workload=quiet_tree", "--seed=abc"],
                     ["--workload=quiet_tree", "--seconds=1,5"],
                     ["--workload=quiet_tree", "--trace=2"],
                     ["--workload=quiet_tree", "--bogus=1"],
                     ["--workload=quiet_tree", "--seed"],
                     ["--workload=nope"],
                     []):
            self.assertEqual(self.perfbench(*args).returncode, 2, args)
        for args in (["--workload", "quiet_tree", "--seed", "x"],
                     ["--workload", "quiet_tree", "--trace", "2"],
                     ["--workload", "nope"]):
            out = subprocess.run([sys.executable, str(bench.HERE / "run.py"), *args],
                                 capture_output=True, text=True, cwd=bench.ROOT)
            self.assertEqual(out.returncode, 2, args)

    def test_result_line_has_every_metric(self):
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            out = subprocess.run([sys.executable, str(bench.HERE / "run.py"), "--workload",
                                  "quiet_tree", "--seed", "1", "--seconds", "0", "--trace", trace],
                                 capture_output=True, text=True, cwd=bench.ROOT)
            self.assertEqual(out.returncode, 0, out.stderr)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(list(result["metrics"]), [m["name"] for m in self.spec[kind]])

    def test_counts_depend_on_seed_not_run_length(self):
        # A longer run fits more repetitions; attempted and failed must not
        # grow with them, or two sets of runs of one seed disagree.
        counts = []
        for seconds in ("0", "6"):
            out = subprocess.run([sys.executable, str(bench.HERE / "run.py"), "--workload",
                                  "quiet_tree", "--seed", "5", "--seconds", seconds],
                                 capture_output=True, text=True, cwd=bench.ROOT)
            self.assertEqual(out.returncode, 0, out.stderr)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            counts.append((result["attempted"], result["failed"]))
        self.assertEqual(counts[0], counts[1])

    def test_attribution_adds_up_to_run_until_time(self):
        # The loaded tree nests Mac::on_receive inside PhyPort::on_frame, so
        # double-counted nesting would show as attributed > run time.
        t = self.traced("loaded_tree", 3)
        a = t["attribution"]
        self.assertEqual(sum(h["self_ns"] for h in a["hooks"].values()), a["attributed_ns"])
        self.assertGreater(a["hooks"]["host_rx"]["calls"], 0)
        self.assertGreater(a["hooks"]["switch_rx"]["calls"], 0)
        self.assertGreater(a["attributed_ns"], 0)
        self.assertGreater(a["unattributed_ns"], 0)
        self.assertAlmostEqual(a["attributed_ns"] + a["unattributed_ns"], a["run_ns"],
                               delta=1e-9 * a["run_ns"])
        self.assertLess(t["layers"]["sim.unattributed_share"], 1.0)


if __name__ == "__main__":
    unittest.main()
