#!/usr/bin/env python3
"""End-to-end simulator benchmark driver.

    python3 simbench/run.py --workload bulk-tx [--seed 1] [--seconds 10]
                            [--trace 0|1]

Run from the repository root.  Builds the cell driver (simbench.cc) from
the simulator sources into .bench_build/, twice: an untraced Release tree
and a -pg (gprof) tree.  Then:

  --trace 0  runs the untraced driver for --seconds and reports the
             end-to-end metrics (host wall and set-up time, peak RSS,
             simulated goodput and idle);
  --trace 1  splits --seconds between the untraced driver, which gives
             the windowed per-layer counts, and the gprof driver, whose
             flat profile is folded into per-module self-time shares.

Metric names, units and directions come from BENCHMARK.json.  Prints one
line per cell (with its report digest) and per metric, then one JSON
object as the last line.  Exits 1, after printing, when any cell fails:
a report that differs from plain System::run, a DMA violation, or an
exception.  See simbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import profile_fold  # noqa: E402

WORKLOADS = ("bulk-tx", "bulk-rx", "closed-loop")
BUILD = os.path.join(ROOT, ".bench_build")
TREES = {
    "release": [],
    # Static, so the allocator and libstdc++ are sampled (as host.other)
    # instead of silently missing from the shares.
    "gprof": ["-DCMAKE_CXX_FLAGS=-pg",
              "-DCMAKE_EXE_LINKER_FLAGS=-pg -static"],
}
# Bound each child process, so a hung run fails instead of stalling.
PROCESS_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build(tree):
    """Configure (once) and build one tree; @return the binary path."""
    out = os.path.join(BUILD, "simbench-" + tree)
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd + gen + TREES[tree], **quiet).returncode:
            shutil.rmtree(out, ignore_errors=True)
            raise BenchError("configuring the %s tree failed" % tree)
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(cmd, **quiet).returncode:
        raise BenchError("building the %s tree failed" % tree)
    return os.path.join(out, "simbench")


def drive(binary, workload, seed, seconds, cwd=None):
    """Run the cell driver; @return its parsed JSON document."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds)]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          timeout=PROCESS_TIMEOUT_S, text=True)
    try:
        doc = json.loads(proc.stdout)
    except ValueError:
        raise BenchError("%s exited %d without a result"
                         % (os.path.basename(binary), proc.returncode))
    if proc.returncode not in (0, 1):
        raise BenchError("cell driver exited %d" % proc.returncode)
    return doc


def fastest(sets, key):
    """A host time of the whole workload: each cell's fastest set, summed.

    Other tenants of the machine only ever add time, and they come and
    go within a run; a cell's fastest run is the steadiest estimate of
    what its work costs.
    """
    return sum(min(cell) for cell in zip(*(s[key] for s in sets)))


def end_to_end(doc):
    cells, sets = doc["cells"], doc["sets"]
    return {
        "wall_s": fastest(sets, "wall_s"),
        "setup_s": fastest(sets, "setup_s"),
        "peak_rss_mb": doc["peak_rss_mb"],
        "sim_goodput_mbps": sum(c["mbps"] for c in cells),
        "sim_idle_pct": statistics.mean(c["idle_pct"] for c in cells),
    }


def per_layer(doc, traced, listing):
    """Per-layer metrics from an untraced run, a traced run and its profile."""
    cells, sets = doc["cells"], doc["sets"]
    counters = sets[-1]["counters"]
    frames = counters["net.link_frames"]
    events = counters["sim.events"]
    mbit = sum(c["mbps"] * c["window_s"] for c in cells)
    rpc = [c["rpc_lat_p99_us"] for c in cells if c["rpc"]]
    m = {name: v for name, v in counters.items()
         if not name.startswith("host.")}
    m.update({
        "sim.events_per_mbit": events / mbit,
        "sim.host_ns_per_event": 1e9 * fastest(sets, "window_s") / events,
        "sim.pending_peak": sets[-1]["sim.pending_peak"],
        "host.allocs_per_frame": counters["host.allocs"] / frames,
        "host.alloc_bytes_per_frame": counters["host.alloc_bytes"] / frames,
        "cpu.hyp_pct": statistics.mean(c["hyp_pct"] for c in cells),
        "cpu.drv_os_pct": statistics.mean(c["drv_os_pct"] for c in cells),
        "cpu.guest_os_pct": statistics.mean(c["guest_os_pct"] for c in cells),
        "core.report_ms": fastest(sets, "report_ms"),
        "net.rpc_p99_us": statistics.mean(rpc) if rpc else 0.0,
        "trace_overhead_pct":
            100.0 * (fastest(traced["sets"], "wall_s")
                     / fastest(sets, "wall_s") - 1.0),
    })
    for module, pct in profile_fold.fold(listing).items():
        m[module + "_pct" if module == profile_fold.OTHER
          else module + ".self_pct"] = pct
    return m


def traced_run(binary, workload, seed, seconds):
    """Run the gprof driver; @return (its document, gprof flat listing)."""
    cwd = os.path.join(BUILD, "trace-" + workload)
    os.makedirs(cwd, exist_ok=True)
    gmon = os.path.join(cwd, "gmon.out")
    if os.path.exists(gmon):
        os.remove(gmon)
    doc = drive(binary, workload, seed, seconds, cwd=cwd)
    proc = subprocess.run(["gprof", "-b", "-p", binary, gmon],
                          stdout=subprocess.PIPE, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    if proc.returncode:
        raise BenchError("gprof exited %d" % proc.returncode)
    return doc, proc.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    release = build("release")
    # The traced tree is built on every run too, so a first traced run
    # never pays a full build inside its time limit.
    traced_bin = build("gprof")

    if args.trace:
        # A third untraced: its counts are exact and its times only serve
        # the overhead ratio; the profile needs the samples.
        doc = drive(release, args.workload, args.seed, args.seconds / 3)
        traced, listing = traced_run(traced_bin, args.workload, args.seed,
                                     args.seconds * 2 / 3)
        values = per_layer(doc, traced, listing)
        docs, wanted = [doc, traced], spec["per_layer"]
    else:
        doc = drive(release, args.workload, args.seed, args.seconds)
        values = end_to_end(doc)
        docs, wanted = [doc], spec["end_to_end"]

    for c in doc["cells"]:
        print("cell %-28s digest %s  %9.2f Mb/s  idle %6.2f%%"
              % (c["name"], c["digest"], c["mbps"], c["idle_pct"]))
    metrics = {}
    for w in wanted:
        if w["name"] not in values:
            raise BenchError("metric %s was not measured" % w["name"])
        metrics[w["name"]] = {"value": values[w["name"]], "unit": w["unit"]}
        print("%-28s %16.6f %s" % (w["name"], values[w["name"]], w["unit"]))

    failed = sum(d["failed"] for d in docs)
    if any(a["digest"] != b["digest"]
           for a, b in zip(doc["cells"], docs[-1]["cells"])):
        print("simbench: traced and untraced reports differ", file=sys.stderr)
        failed += 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(d["attempted"] for d in docs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.TimeoutExpired) as e:
        print("simbench: %s" % e, file=sys.stderr)
        sys.exit(1)
