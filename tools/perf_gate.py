#!/usr/bin/env python3
"""Performance gate: the engine benchmark on a change and on its parent.

    python3 tools/perf_gate.py BASE_REF

Run from a git checkout. The gate adds a temporary git worktree of the
merge-base of HEAD and BASE_REF (the parent) and runs perfbench/run.py on
it and on this tree (the change) in PAIRS pairs, alternating which side
runs first. Both runs of a pair use one seed, and each side builds into its
own CARGO_TARGET_DIR. Every end-to-end metric of every workload is judged
by its `better` direction and `bound` in BENCHMARK.json:

  worse       the change's median is past the parent's by more than the
              bound, the change is worse than its paired parent run in at
              least MIN_WORSE_PAIRS pairs, and the gap between the medians
              exceeds the parent's interquartile range;
  unresolved  the median is past the bound, but the other two conditions
              do not both hold: the host's noise reaches the bound.

Exit 0 when nothing is worse; 1 on a worse metric, or when the change has a
larger share of failed member runs on a workload than the parent; 2 when
the gate cannot compare (a git or build failure, a missing or malformed
result line).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
MIN_WORSE_PAIRS = 9
# run.py's shortest run length (two processes per workload; a run takes
# 12-55 s on a 4-vCPU host). A constant, so both sides always run alike.
RUN_SECONDS = 1


class GateError(Exception):
    """The gate cannot compare: print one line, exit 2."""


def git(*args):
    proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                          text=True)
    if proc.returncode != 0:
        why = (proc.stderr.strip() or f"exit {proc.returncode}").splitlines()
        raise GateError(f"git {' '.join(args)}: {why[-1]}")
    return proc.stdout.strip()


def run_bench(tree, target, seed):
    """One perfbench/run.py run on `tree`; returns its standard output."""
    cmd = [sys.executable, "perfbench/run.py", "--seed", str(seed),
           "--seconds", str(RUN_SECONDS)]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    with subprocess.Popen(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            out, err = proc.communicate()
        except BaseException:
            proc.terminate()  # run.py stops its pass runner on SIGTERM
            proc.communicate()
            raise
    if proc.returncode != 0:
        sys.stderr.write(err)
    if proc.returncode not in (0, 1):  # 1: a member run failed its check
        raise GateError(f"perfbench/run.py in {tree} exited "
                        f"{proc.returncode}")
    return out


def run_pairs(base_ref):
    """Runs the pairs; returns the parent's and the change's outputs."""
    base = git("merge-base", "HEAD", base_ref)
    tmp = tempfile.mkdtemp(prefix="perf_gate.")
    sides = {"parent": os.path.join(tmp, "parent"), "change": ROOT}
    outputs = {"parent": [], "change": []}
    try:
        git("worktree", "add", "--detach", sides["parent"], base)
        for i in range(PAIRS):
            for side in (("parent", "change"), ("change", "parent"))[i % 2]:
                start = time.monotonic()
                outputs[side].append(run_bench(
                    sides[side], os.path.join(tmp, side + "-build"), i + 1))
                print(f"pair {i + 1}/{PAIRS} {side}: "
                      f"{time.monotonic() - start:.0f} s", file=sys.stderr)
        return outputs["parent"], outputs["change"]
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                        sides["parent"]], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)


def results(text, workloads):
    """{workload: result} of one run.py output, whose JSON result lines
    each follow their `workload NAME:` header line."""
    found, name = {}, None
    for line in text.splitlines():
        if line.startswith("workload "):
            name = line.split()[1].rstrip(":")
        elif line.startswith("{"):
            try:
                res = json.loads(line)
                ok = {"attempted", "failed", "metrics"} <= res.keys()
            except ValueError:
                ok = False
            if not ok or name is None:
                raise GateError(f"malformed result line: {line[:60]}")
            found[name], name = res, None
    missing = [w for w in workloads if w not in found]
    if missing:
        raise GateError(f"no result line for workload {', '.join(missing)}")
    return found


def value(res, metric):
    """A metric's value, or None when the workload produced no metrics
    (its failed member runs count instead)."""
    if not res["metrics"]:
        return None
    try:
        return float(res["metrics"][metric]["value"])
    except (KeyError, TypeError, ValueError):
        raise GateError(f"result line without a value for {metric}") from None


def compare(parent, change, spec):
    """Judges each side's run.py outputs (one per pair, in pair order) by
    the workloads and end-to-end bounds of `spec` (BENCHMARK.json). Prints
    one row per workload and metric; returns the exit status, 0 or 1."""
    names = [w["name"] for w in spec["workloads"]]
    par = [results(t, names) for t in parent]
    chg = [results(t, names) for t in change]
    print(f"{'workload':10} {'metric':12} {'parent':>10} {'IQR':>10} "
          f"{'change':>10} {'ratio':>6} {'worse':>6}  verdict")
    failures, unresolved = [], 0
    for w in names:
        share = [sum(r[w]["failed"] for r in side) /
                 max(1, sum(r[w]["attempted"] for r in side))
                 for side in (par, chg)]
        if share[1] > share[0]:
            failures.append(f"{w} failed member runs "
                            f"{share[0]:.2%} -> {share[1]:.2%}")
        for m in spec["end_to_end"]:
            pairs = [(value(p[w], m["name"]), value(c[w], m["name"]))
                     for p, c in zip(par, chg)]
            pairs = [pc for pc in pairs if None not in pc]
            if len(pairs) < 2:
                raise GateError(f"{w} {m['name']}: fewer than two pairs "
                                f"with a value on both sides")
            sign = 1 if m["better"] == "lower" else -1
            pm = statistics.median(p for p, _ in pairs)
            cm = statistics.median(c for _, c in pairs)
            q1, _, q3 = statistics.quantiles([p for p, _ in pairs], n=4,
                                             method="inclusive")
            worse = sum(sign * (c - p) > 0 for p, c in pairs)
            verdict = "ok"
            if sign * (cm - pm) > m["bound"] * pm:
                if worse >= MIN_WORSE_PAIRS and abs(cm - pm) > q3 - q1:
                    verdict = "WORSE"
                    failures.append(f"{w} {m['name']}")
                else:
                    verdict = "unresolved"
                    unresolved += 1
            print(f"{w:10} {m['name']:12} {pm:10.4g} {q3 - q1:10.3g} "
                  f"{cm:10.4g} {cm / pm if pm else 0:6.3f} "
                  f"{worse:>3}/{len(pairs):<2}  {verdict}")
    if failures:
        print(f"perf_gate: worse than the parent: {'; '.join(failures)}")
        return 1
    print(f"perf_gate: pass ({unresolved} unresolved)")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base_ref", help="branch or commit to compare with; "
                    "the parent is its merge-base with HEAD")
    args = ap.parse_args(argv)
    # On SIGTERM, unwind through the finally that removes the worktree.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        try:
            with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
                spec = json.load(f)
        except (OSError, ValueError) as e:
            raise GateError(f"cannot read BENCHMARK.json: {e}") from None
        parent, change = run_pairs(args.base_ref)
        return compare(parent, change, spec)
    except GateError as e:
        print(f"perf_gate: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
