#!/usr/bin/env python3
"""Repository benchmark: builds the simulator from source, runs one workload
and prints its metrics (see perfbench/README.md).

    python3 perfbench/run.py --workload fig3-n16k-k1 --seed 1 --seconds 12 --trace 0

With --trace 0 the last stdout line reports the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer metrics. Either way the outputs
are checked first: perfect tables, every KV request answered, no get that
misses a stored key, every broadcast complete and duplicate-free, and the
deterministic metrics identical across every repetition of the seed.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1

# name -> (nodes, shards, measured phase is KV traffic); main.cpp holds the
# full definitions.
WORKLOADS = {
    "fig3-n16k-k1": (1 << 14, 1, False),
    "fig4-n16k-k4": (1 << 14, 4, False),
    "kv-n4k-k1": (1 << 12, 1, True),
}
# A run must finish within this many seconds after the build.
RUN_BUDGET_S = 170

# Deterministic fields of a measured repetition: a pure function of the
# workload and seed, so they must match across repetitions and across shard
# counts, traced or not.
EXACT_KEYS = (
    "converged_cycle", "setup_cycles", "setup_requests_sent",
    "setup_answers_delivered", "phase_cycles", "phase_events",
    "phase_messages_sent", "phase_messages_dropped", "phase_bytes",
    "bootstrap_requests_sent", "bootstrap_answers_delivered",
    "bootstrap_messages", "bootstrap_entries", "kv_issued", "kv_answered",
    "kv_puts", "kv_gets", "kv_get_found", "kv_get_miss", "kv_timeouts",
    "kv_unroutable", "kv_rtt_count", "kv_rtt_p50", "kv_rtt_p99",
    "kv_hops_mean", "kv_casts", "kv_cast_expected", "kv_cast_reached",
    "kv_cast_duplicates", "kv_lost_puts", "kv_workload_messages",
)

# Trace segments reported as mean ns per call plus a call count.
SEGMENTS = (
    "core.createmessage.active", "core.createmessage.passive", "core.update",
    "sampling.newscast.active", "sampling.newscast.request",
    "sampling.newscast.answer", "workload.kv_request", "workload.kv_response",
    "workload.cast", "workload.timer", "workload.issue", "sim.dispatch",
)
LAYERS = ("sim", "sampling", "core", "workload")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds perfbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "engine.hpp")):
        raise RuntimeError("no simulator sources under %s/src" % ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def run_bench(exe, deadline, workload, seed, mode, shards, seconds=0.0):
    """Runs one perfbench process; returns (repetitions, environment)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--shards", str(shards), "--seconds", repr(seconds)]
    log("running " + " ".join(cmd[1:]))
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout,
                          check=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    reps = [line for line in lines if "rep" in line]
    env = [line for line in lines if line.get("done")]
    if not reps or len(env) != 1:
        raise RuntimeError("perfbench printed no result")
    return reps, env[0]


def check_rep(rep, serve):
    """Output checks of one measured repetition; returns (attempted, failed,
    failure descriptions)."""
    failures = []
    if rep["converged_cycle"] < 0:
        failures.append("tables never became perfect")
    issued = rep["kv_issued"]
    unanswered = issued - rep["kv_answered"]
    if unanswered:
        failures.append("%d of %d KV requests unanswered" % (unanswered, issued))
    if rep["kv_get_miss"] or rep["kv_get_found"] != rep["kv_gets"]:
        failures.append("%d gets missed a stored key" % rep["kv_get_miss"])
    if rep["kv_lost_puts"]:
        failures.append("%d gets read a key missing at its root" % rep["kv_lost_puts"])
    if rep["kv_cast_duplicates"]:
        failures.append("%d duplicate broadcast copies" % rep["kv_cast_duplicates"])
    missed = rep["kv_cast_expected"] - rep["kv_cast_reached"]
    if missed:
        failures.append("broadcasts missed %d nodes" % missed)
    if rep.get("trace_delivery_mismatches", 0):
        failures.append("trace deliveries disagree with msg.delivered counters")
    # Operations: the run to perfect tables (fig workloads), every KV request
    # and every broadcast.
    attempted = (0 if serve else 1) + issued + rep["kv_casts"]
    failed = (0 if serve else int(rep["converged_cycle"] < 0)) + unanswered + \
        rep["kv_get_miss"] + rep["kv_lost_puts"] + (rep["kv_casts"] if missed else 0)
    return attempted, failed, failures


def exact_mismatches(reps):
    """Deterministic fields that differ between repetitions."""
    bad = []
    for key in EXACT_KEYS:
        values = {json.dumps(r[key]) for r in reps if key in r}
        if len(values) > 1:
            bad.append("%s differs across repeats: %s" % (key, sorted(values)))
    return bad


def exchange_fail_ratio(rep):
    """Bootstrap requests whose answer never arrived, over the run to perfect
    tables: the measured phase of the fig workloads, set-up for kv."""
    sent = rep.get("setup_requests_sent", rep["bootstrap_requests_sent"])
    answered = rep.get("setup_answers_delivered", rep["bootstrap_answers_delivered"])
    return (sent - answered) / sent


def end_to_end(workload, reps, env):
    nodes = WORKLOADS[workload][0]
    measured = [r for r in reps if r.get("measured")]
    first = measured[0]
    med = statistics.median
    return {
        "setup_s": (med(r["setup_s"] for r in reps), "s"),
        "wall_s": (med(r["phase_wall_s"] for r in measured), "s"),
        "events_per_s": (med(r["phase_events"] / r["phase_wall_s"] for r in measured), "1/s"),
        "peak_rss_mb": (env["peak_rss_mb"], "MB"),
        "cycles_to_converge": (first["converged_cycle"], "cycles"),
        "bytes_per_node_cycle": (first["phase_bytes"] / (nodes * first["phase_cycles"]), "B"),
        "exchange_fail_ratio": (exchange_fail_ratio(first), "ratio"),
        "kv_goodput": (first["kv_answered"] / first["kv_issued"], "ratio"),
        "kv_rtt_p50_ticks": (first["kv_rtt_p50"], "ticks"),
        "kv_rtt_p99_ticks": (first["kv_rtt_p99"], "ticks"),
        "kv_hops_mean": (first["kv_hops_mean"], "hops"),
        "kv_requests_per_s": (med(r["kv_answered"] / r["kv_wall_s"] for r in measured), "1/s"),
        "cast_coverage": (first["kv_cast_reached"] / first["kv_cast_expected"], "ratio"),
    }


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode (None without it)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def per_layer(ref, ref1, traced):
    """Per-layer metrics: slot attribution from the one-shard traced run, crew
    phases and traffic from the untraced profiled run at the workload's own
    shard count, tracing overhead against the untraced one-shard run."""
    out = {}
    segs = traced["segments"]
    for name in SEGMENTS:
        seg = segs[name]
        out[name + "_ns"] = (seg["ns"] / seg["calls"] if seg["calls"] else 0.0, "ns")
        out[name + ".calls"] = (seg["calls"], "count")
    self_s = {layer: 0.0 for layer in LAYERS}
    for seg in segs.values():
        self_s[seg["layer"]] += seg["ns"] / 1e9
    self_s["core"] += traced["phase_oracle_s"]
    for layer in LAYERS:
        out[layer + ".self_s"] = (self_s[layer], "s")
    out["core.descriptors_per_message"] = (
        ref["bootstrap_entries"] / ref["bootstrap_messages"], "count")
    out["core.answer_ratio"] = (1.0 - exchange_fail_ratio(ref), "ratio")
    out["core.oracle_s"] = (ref["phase_oracle_s"], "s")
    out["sim.run_until_s"] = (ref["phase_run_until_s"], "s")
    out["sim.events"] = (ref["phase_events"], "count")
    out["sim.messages_sent"] = (ref["phase_messages_sent"], "count")
    out["sim.messages_dropped"] = (ref["phase_messages_dropped"], "count")
    out["sim.bytes_sent"] = (ref["phase_bytes"], "B")
    for phase in ("dispatch", "drain", "stall", "idle"):
        out["sim.crew.%s_s" % phase] = (ref["crew_%s_s" % phase], "s")
    out["sim.crew.barrier_stall_fraction"] = (ref["crew_barrier_stall_fraction"], "ratio")
    out["sim.mailbox_messages"] = (ref["crew_mailbox_messages"], "count")
    out["sim.windows"] = (ref["crew_windows"], "count")
    out["workload.messages_per_request"] = (
        ref["kv_workload_messages"] / ref["kv_issued"], "count")
    out["trace.overhead_s"] = (traced["phase_wall_s"] - ref1["phase_wall_s"], "s")
    out["trace.untraced_wall_s"] = (ref1["phase_wall_s"], "s")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        exe = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        log("perfbench: build failed: %s" % err)
        return 1
    deadline = time.monotonic() + RUN_BUDGET_S
    _, shards, serve = WORKLOADS[args.workload]
    try:
        if args.trace:
            ref_reps, env = run_bench(exe, deadline, args.workload, args.seed, "profile", shards)
            runs = [ref_reps[0]]
            if shards != 1:
                runs += run_bench(exe, deadline, args.workload, args.seed, "profile", 1)[0]
            runs += run_bench(exe, deadline, args.workload, args.seed, "trace", 1)[0]
            metrics = per_layer(runs[0], runs[-2], runs[-1])
        else:
            runs, env = run_bench(exe, deadline, args.workload, args.seed, "plain", shards,
                                  args.seconds)
            metrics = end_to_end(args.workload, runs, env)
    except (RuntimeError, ValueError, KeyError, ZeroDivisionError,
            subprocess.SubprocessError) as err:
        log("perfbench: run failed: %s" % err)
        return 1

    measured = [r for r in runs if r.get("measured")]
    attempted = failed = 0
    failures = exact_mismatches(runs)
    for rep in measured:
        a, f, why = check_rep(rep, serve)
        attempted += a
        failed += f
        failures += why
    declared = declared_metrics(args.trace)
    if declared is not None and declared != set(metrics):
        failures.append("metrics differ from BENCHMARK.json: %s" %
                        sorted(declared.symmetric_difference(metrics)))
    for why in failures:
        log("CHECK FAILED: " + why)

    first = measured[0]
    print("# workload %s seed %d trace %d: hardware_concurrency=%d shards=%d build=%s "
          "flags='%s' compiler='%s'" % (
              args.workload, args.seed, args.trace, env["hardware_concurrency"],
              env["shards"], env["build_type"], env["cxx_flags"].strip(), env["compiler"]))
    print("# %d repetitions, %d measured; KV latency over %d answered requests "
          "(p99 has %d samples beyond it)" % (
              len(runs), len(measured), first["kv_rtt_count"], first["kv_rtt_count"] // 100))
    for name, (value, unit) in metrics.items():
        print("# %-36s %16.6g %s" % (name, value, unit))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
