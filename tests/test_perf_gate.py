"""tools/perf_gate.py's judgement, fed synthetic perfbench/run.py outputs.

Run from this directory: python3 -m unittest test_perf_gate
"""

import contextlib
import io
import json
import os
import sys
import unittest
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))
import perf_gate  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRICS = [m["name"] for m in SPEC["end_to_end"]]


def output(pair, scale=None, failed=0, skip=()):
    """One run.py output for pair `pair`: every metric reads 1 with a few
    percent of pair-to-pair noise, times scale[(workload, metric)]."""
    noise = 1.0 + 0.02 * ((pair * 7) % 5 - 2)
    lines = []
    for w in WORKLOADS:
        if w in skip:
            continue
        metrics = {m: {"value": noise * (scale or {}).get((w, m), 1.0), "unit": "s"}
                   for m in METRICS}
        lines.append(f"workload {w}: seed {pair + 1}, DPF_VPS=16")
        lines.append(json.dumps({"correct": failed == 0, "attempted": 100,
                                 "failed": failed, "metrics": metrics}))
    return "\n".join(lines) + "\n"


def judge(parent, change):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = perf_gate.compare(parent, change, SPEC)
    return status, out.getvalue()


def main_with(parent, change):
    """perf_gate.main() with the benchmark runs replaced by the outputs."""
    out = io.StringIO()
    with mock.patch.object(perf_gate, "run_pairs",
                           return_value=(parent, change)), \
            contextlib.redirect_stdout(out):
        status = perf_gate.main(["HEAD"])
    return status, out.getvalue()


PARENT = [output(i) for i in range(10)]


class PerfGateTest(unittest.TestCase):
    def testIdenticalSidesPass(self):
        status, text = judge(PARENT, PARENT[::-1])
        self.assertEqual(0, status, text)
        self.assertNotIn("WORSE", text)
        self.assertIn("perf_gate: pass (0 unresolved)", text)

    def testSlowerInEveryPairFails(self):
        change = [output(i, {("irregular", "pass_s"): 1.5})
                  for i in range(10)]
        status, text = judge(PARENT, change)
        self.assertEqual(1, status, text)
        self.assertIn("irregular pass_s", text.splitlines()[-1])
        self.assertEqual(1, text.count("WORSE"), text)

    def testSlowerInSevenPairsIsUnresolved(self):
        change = [output(i, {("exchange", "pass_s"): 1.5 if i < 7 else 0.9})
                  for i in range(10)]
        status, text = judge(PARENT, change)
        self.assertEqual(0, status, text)
        row = [r for r in text.splitlines()
               if r.split()[:2] == ["exchange", "pass_s"]]
        self.assertIn("unresolved", row[0])
        self.assertIn(" 7/10", row[0])

    def testMoreFailedRunsFails(self):
        change = PARENT[:9] + [output(9, failed=1)]
        status, text = judge(PARENT, change)
        self.assertEqual(1, status, text)
        self.assertIn("failed member runs", text.splitlines()[-1])

    def testMissingWorkloadExitsTwo(self):
        change = PARENT[:9] + [output(9, skip=("dense",))]
        status, text = main_with(PARENT, change)
        self.assertEqual(2, status)
        self.assertEqual(["perf_gate: no result line for workload dense"],
                         text.splitlines())

    def testMalformedLineExitsTwo(self):
        change = PARENT[:9] + ['workload dense: seed 10\n{"correct": tru\n']
        status, text = main_with(PARENT, change)
        self.assertEqual(2, status)
        self.assertEqual(1, len(text.splitlines()), text)
        self.assertIn("malformed result line", text)


if __name__ == "__main__":
    unittest.main()
