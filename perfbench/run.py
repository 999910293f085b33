#!/usr/bin/env python3
"""The engine benchmark: drives the DPF engine through its public API and
reports end-to-end and per-layer metrics (see NOTES.md).

    python3 perfbench/run.py [--workload suite|irregular|dense|exchange|all]
                             [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --write-reference

Run from the repository root. The script builds perfbench/ (the pass runner
and the engine libraries from src/) into $CARGO_TARGET_DIR/perfbench, by
default .bench_build/perfbench, then starts a fixed number of pass-runner
processes per workload, checks every member run's outputs against
reference.json and prints a table of the metrics. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics; --trace 1 adds a traced run and
the layer probes and reports the per-layer metrics.
"""

import argparse
import json
import os
import signal
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")

DEFAULT_SEED = 1
# Run length the pass counts below are sized for. A workload is a fixed
# number of passes, never a time budget: the engine's comm log grows with
# every pass (NOTES.md, drift), so a time budget would hand a faster commit
# longer, slower passes. --seconds scales the number of processes only.
NOMINAL_SECONDS = 20
VPS = 16
# A run must end within 180 s; past this many seconds it stops starting
# processes and reports from those that finished (a heavily loaded host).
RUN_DEADLINE_S = 150
TRACED_PROCESSES = 2
WARMUP_S = 1.0

SUITE = [
    "gather", "reduction", "scatter", "transpose",
    "conj-grad", "fft", "gauss-jordan", "jacobi", "lu", "matrix-vector",
    "pcr", "qr",
    "boson", "diff-1D", "diff-2D", "diff-3D", "ellip-2D", "fem-3D",
    "fermion", "gmo", "ks-spectral", "md", "mdcell", "n-body",
    "pic-gather-scatter", "pic-simple", "qcd-kernel", "qmc", "qptransport",
    "rp", "step4", "wave-1D",
]

# name -> DPF_NET mode, members (NAME[:key=value,...], keys sorted), passes
# per process (the first is the cold pass), processes at NOMINAL_SECONDS.
# At NOMINAL_SECONDS every workload runs at least 100 warm passes.
WORKLOADS = {
    # The paper's own end-to-end number: tiny regions, so dispatch,
    # accounting and the control path dominate.
    "suite": ("direct", SUITE, 5, 26),
    # The router and control path: almost all time falls outside region
    # bodies. A router change shows here; a kernel change should not.
    "irregular": ("direct", ["fem-3D", "pic-gather-scatter", "qptransport"],
                  31, 10),
    # Large region bodies and working sets beyond the cache: guards
    # parallel speed-up and shows kernel gains.
    "dense": ("direct", [
        "diff-3D:iters=8,nx=128,ny=128,nz=128",
        "rp:iters=10,nx=64,ny=64,nz=64",
        "ellip-2D:iters=20,nx=512,ny=512",
        "step4:iters=2,nx=256,ny=256",
        "qcd-kernel:iters=4,n=8,nt=8",
    ], 16, 8),
    # The only workload whose messages go through net::transport: regular
    # shifts over ExchangePlan under split-phase collectives.
    "exchange": ("overlap", ["diff-3D", "rp", "ellip-2D", "step4",
                             "qcd-kernel", "diff-2D", "wave-1D", "transpose"],
                 13, 9),
}

END_TO_END_UNITS = {
    "setup_s": "s", "pass_s": "s", "pass_s_p90": "s", "elapsed_s": "s",
    "cold_pass_s": "s", "rss_mb": "MB",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the pass runner; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target", "pass_runner",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "pass_runner")


def child_env(net, traced):
    """The canonical config: DPF_VPS=16, default workers, local backend."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DPF_")}
    env["DPF_VPS"] = str(VPS)
    env["DPF_NET"] = net
    if traced:
        env["DPF_TRACE"] = "full"
    return env


class Deadline(Exception):
    """The run's time is up."""


def run_child(runner, members, passes, seed, net, deadline, traced=False,
              probes=False):
    """One pass-runner process; returns its report, or None if it failed.
    Raises Deadline, having killed the process, once `deadline` passes."""
    cmd = [runner, "--seed", str(seed), "--passes", str(passes)]
    if traced:
        cmd.append("--calibrate")
    if probes:
        cmd.append("--probes")
    left = deadline - time.monotonic()
    if left <= 0:
        raise Deadline
    try:
        proc = subprocess.run(cmd + members, env=child_env(net, traced),
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise Deadline from None
    if proc.returncode != 0:
        log(f"pass_runner exited with {proc.returncode}")
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log("pass_runner printed no report")
        return None


def as_double(bits):
    return struct.unpack(">d", bytes.fromhex(bits))[0]


def member_error(run, reference):
    """Why one member run failed its output check, or None if it passed."""
    if "error" in run:
        return "raised: " + run["error"]
    checks = run["checks"]
    if "residual" not in checks:
        return "no residual"
    residual = as_double(checks["residual"])
    if not abs(residual) < 1e-3:  # also false for NaN
        return f"residual {residual!r}"
    expected = reference.get(run["spec"])
    if expected is None:
        return "no reference"
    if checks != expected:
        diff = sorted(k for k in set(checks) | set(expected)
                      if checks.get(k) != expected.get(k))
        return "checks differ from reference: " + ", ".join(diff)
    return None


def check_outputs(reports, expected_runs, reference):
    """Returns (attempted, failed) over every member run of the reports."""
    attempted = failed = 0
    for rep in reports:
        if rep is None:
            attempted += expected_runs
            failed += expected_runs
            continue
        for p in rep["passes"]:
            for run in p["members"]:
                attempted += 1
                why = member_error(run, reference)
                if "span_ns" in run and why is None:
                    parts = (run["net_ns"] + run["region_ns"] +
                             run["collective_ns"] + run["self_ns"])
                    if parts != run["span_ns"]:
                        why = "layer spans do not add up to the member span"
                if why is not None:
                    failed += 1
                    log(f"FAILED {run['spec']}: {why}")
    return attempted, failed


def warm(reports):
    """Every pass but each process's first (cold) one."""
    return [p for rep in reports for p in rep["passes"][1:]]


def med(values):
    return statistics.median(values) if values else 0.0


def members_sum(p):
    return sum(m["span_s"] for m in p["members"])


def end_to_end(reports):
    passes = warm(reports)
    walls = [p["wall_s"] for p in passes]
    return {
        "setup_s": med([r["setup_s"] for r in reports]),
        "pass_s": med(walls),
        # Per process, then the median: host CPU steal comes in bursts that
        # slow a minority of processes, and a pooled percentile would chase
        # them (NOTES.md, pass_s_p90).
        "pass_s_p90": med([statistics.quantiles(
            [p["wall_s"] for p in r["passes"][1:]], n=10,
            method="inclusive")[8] for r in reports]),
        "elapsed_s": med([sum(m["elapsed_s"] for m in p["members"])
                          for p in passes]),
        "cold_pass_s": med([r["passes"][0]["wall_s"] for r in reports]),
        "rss_mb": med([r["rss_mb"] for r in reports]),
    }


def drift(rep):
    """Median of the last quarter of warm passes over the first quarter."""
    walls = [p["wall_s"] for p in rep["passes"][1:]]
    q = max(1, len(walls) // 4)
    return med(walls[-q:]) / med(walls[:q])


def per_layer(reports, traced, probes, e2e, attempted, failed):
    passes = warm(reports)
    workers = reports[0]["workers"]

    def per_pass(f):
        return med([f(p) for p in passes])

    def comm(key):
        return per_pass(lambda p: p["comm"][key])

    busy = per_pass(lambda p: p["busy_core_s"])
    hits = sum(p["pool_hits"] for r in reports for p in r["passes"])
    misses = sum(p["pool_misses"] for r in reports for p in r["passes"])
    tpasses = warm(traced)
    m = {
        ("core.machine.regions", "count"): per_pass(lambda p: p["regions"]),
        ("core.machine.dispatch_us", "us"): probes["dispatch_us"]["median"],
        ("core.machine.busy_s", "s"): busy,
        ("core.machine.body_share", "ratio"):
            busy / (e2e["pass_s"] * workers),
        ("core.machine.peak_mflops", "MFLOPS"):
            med([r["peak_mflops"] for r in reports]),
        ("core.machine.peak_probe_s", "s"):
            med([r["peak_probe_s"] for r in reports]),
        ("core.memory.pool_hit_ratio", "ratio"): hits / max(1, hits + misses),
        ("core.memory.peak_bytes", "B"): max(
            mm["memory_bytes"] for p in passes for mm in p["members"]),
        ("core.comm_log.events", "count"):
            med([r["passes"][-1]["log_events"] for r in reports]),
        ("core.metrics.scope_us", "us"): probes["scope_us"]["median"],
        ("core.metrics.drift", "ratio"): med([drift(r) for r in reports]),
        ("comm.s", "s"): comm("s"),
        ("comm.events", "count"): comm("events"),
        ("comm.bytes", "B"): comm("bytes"),
        ("comm.offproc_bytes", "B"): comm("offproc_bytes"),
        ("comm.shift.s", "s"): comm("shift_s"),
        ("comm.tree.s", "s"): comm("tree_s"),
        ("comm.exchange.s", "s"): comm("exchange_s"),
        ("comm.gather_scatter.s", "s"): comm("gather_scatter_s"),
        ("comm.untimed", "count"): comm("untimed"),
        ("net.messages", "count"): per_pass(lambda p: p["net_messages"]),
        ("net.bytes", "B"): per_pass(lambda p: p["net_bytes"]),
        ("net.predicted_s", "s"):
            med([p["comm"]["predicted_s"] for p in tpasses]),
        ("net.model_ratio", "ratio"):
            med([p["comm"]["predicted_s"] / p["comm"]["s"]
                 for p in tpasses if p["comm"]["s"] > 0]),
        ("vec.axpy_gbs", "GB/s"): probes["axpy_gbs"]["median"],
        ("vec.axpy_cache_gflops", "GFLOP/s"):
            probes["axpy_cache_gflops"]["median"],
    }
    for name in SUITE:
        spans = [mm["span_s"] for p in passes for mm in p["members"]
                 if mm["spec"].split(":")[0] == name]
        m[(f"suite.{name}.s", "s")] = med(spans)
    m[("suite.harness_s", "s")] = e2e["pass_s"] - e2e["elapsed_s"]
    m[("suite.error_rate", "ratio")] = failed / attempted

    def span_part(key):
        return med([sum(mm[key] for mm in p["members"]) * 1e-9
                    for p in tpasses])

    m[("suite.self_s", "s")] = span_part("self_ns")
    m[("core.machine.region_span_s", "s")] = span_part("region_ns")
    m[("comm.collective_span_s", "s")] = span_part("collective_ns")
    m[("net.post_fetch_span_s", "s")] = span_part("net_ns")
    m[("trace.overhead", "ratio")] = (med([members_sum(p) for p in tpasses]) /
                                      med([members_sum(p) for p in passes]))
    m[("trace.dropped", "count")] = sum(p["trace_dropped"] for p in tpasses)
    return m


def run_workload(runner, name, seed, seconds, trace, reference):
    net, members, passes, processes = WORKLOADS[name]
    processes = max(2, round(processes * seconds / NOMINAL_SECONDS))
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    reports, traced = [], []
    try:
        # Discarded processes for the first second: after the host CPUs
        # idle (the build check, Python start-up), the first processes run
        # several times slower (NOTES.md, bimodal peak probe), and that
        # would land on whichever measured processes happen to run first.
        while time.monotonic() - start < WARMUP_S:
            run_child(runner, members, 1, 0, net, deadline)
        for i in range(TRACED_PROCESSES if trace else 0):
            traced.append(run_child(runner, members, passes, seed * 1000 + i,
                                    net, deadline, traced=True))
        for i in range(processes):
            reports.append(run_child(runner, members, passes,
                                     seed * 1000 + i, net, deadline,
                                     probes=trace and i == 0))
    except Deadline:
        log(f"deadline: {len(reports)} of {processes} processes ran")
    attempted, failed = check_outputs(reports + traced,
                                      passes * len(members), reference)
    print(f"workload {name}: seed {seed}, DPF_NET={net}, DPF_VPS={VPS}, "
          f"{len(reports)} of {processes} processes x {passes} passes"
          + (f" + {len(traced)} traced" if trace else ""))
    if None in reports + traced or not reports or (trace and not traced):
        return {"correct": False, "attempted": attempted, "failed": failed,
                "metrics": {}}
    print(f"workers {reports[0]['workers']}, nproc {reports[0]['nproc']}")
    e2e = end_to_end(reports)
    rows = {(k, END_TO_END_UNITS[k]): v for k, v in e2e.items()}
    if trace:
        pr = reports[0]["probes"]
        layers = per_layer(reports, traced, pr, e2e, attempted, failed)
        rows.update(layers)
        metrics = layers
        print(f"probes: dispatch_us {pr['dispatch_us']['samples']} samples, "
              f"scope_us {pr['scope_us']['samples']} samples, "
              f"axpy_cache_gflops {pr['axpy_cache_gflops']['samples']} "
              f"samples of 2 x 16 KiB arrays, axpy_gbs "
              f"{pr['axpy_gbs']['samples']} samples of 2 x "
              f"{pr['axpy_array_bytes']} B arrays (LLC {pr['llc_bytes']} B)")
    else:
        metrics = rows
    for (k, unit), v in rows.items():
        print(f"  {k:34s} {v:16.6g} {unit}")
    print(f"  {'member runs':34s} {attempted:16d} attempted, {failed} failed")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": unit}
                        for (k, unit), v in metrics.items()}}


def write_reference(runner):
    """Records every member's checks, in direct mode, as the reference."""
    reference = {}
    for name, (net, members, _, _) in WORKLOADS.items():
        if net != "direct":
            continue
        rep = run_child(runner, members, 1, DEFAULT_SEED, net,
                        time.monotonic() + RUN_DEADLINE_S)
        if rep is None:
            return 1
        for run in rep["passes"][0]["members"]:
            reference[run["spec"]] = run["checks"]
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {len(reference)} references to {REFERENCE}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=NOMINAL_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()
    # On SIGTERM, unwind through subprocess.run, which kills and waits for
    # the running pass runner.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    try:
        runner = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2
    if args.write_reference:
        return write_reference(runner)
    with open(REFERENCE) as f:
        reference = json.load(f)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        result = run_workload(runner, name, args.seed, args.seconds,
                              args.trace == 1, reference)
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
