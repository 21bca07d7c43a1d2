#!/usr/bin/env python3
"""End-to-end CR-Spectre pipeline benchmark.

Run from the root of a checkout of the repository:

    python3 pipebench/run.py --workload online_evasion --seed 1 \
        --seconds 30 --trace 0

It builds the repository's CMake project in Release together with the
benchmark's pass driver (pipebench/CMakeLists.txt), writes the workload's
config from the seed, runs several passes of the workload, each in a fresh
process, checks their outputs and prints every metric. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from traced passes, with the tracing overhead measured
against untraced passes run alongside them.

Each end-to-end time is derived from units (one attempt, one profiling run,
one fit) timed inside every pass: a unit's minimum over the passes, summed
over all units. A burst of contention slows some passes for a few seconds;
a unit keeps its quiet pass's time.
"""

import argparse
import json
import os
import random
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("online_evasion", "offline_sweep", "corpus_train")

# Seconds one pass takes on a 4-core x86 machine; a run makes
# max(MIN_PASSES, seconds // PASS_SECONDS) passes, so the pass count depends
# on --seconds alone and never on how fast the machine happens to be.
PASS_SECONDS = {"online_evasion": 7.0, "offline_sweep": 4.5,
                "corpus_train": 3.0}
MIN_PASSES = 3

END_TO_END = (
    ("attempts_per_s", "attempts/s"),
    ("corpus_windows_per_s", "windows/s"),
    ("train_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

LAYERS = ("core", "workloads", "rop", "casm", "sim", "hid", "ml", "perturb",
          "bench")
CLASSIFIERS = ("MLP", "NN", "LR", "SVM")
# Per-layer metrics: (metric, unit, source). Sources: ("total", span) is the
# span's total milliseconds per pass, ("count", name) a counter of the pass.
PER_LAYER = (
    [("core.session_build_ms", "ms", ("total", "core.session_build")),
     ("core.run_attempt_ms", "ms", ("total", "core.run_attempt"))]
    + [("core.memo.%s_%s" % (c, k), "count", ("count", "core.memo.%s_%s" % (c, k)))
       for c in ("workload", "attack", "plan") for k in ("hits", "misses")]
    + [("workloads.build_ms", "ms", ("total", "workloads.build")),
       ("rop.plan_ms", "ms", ("total", "rop.plan")),
       ("casm.assemble_ms", "ms", ("total", "casm.assemble")),
       ("casm.assemble_count", "count", ("count", "casm.assemble_count")),
       ("sim.machine_build_ms", "ms", ("total", "sim.machine_build")),
       ("sim.fork_us", "us", ("total_us", "sim.fork")),
       ("sim.instr_per_s", "1/s", ("rate",)),
       ("sim.cycles", "count", ("count", "sim.cycles")),
       ("sim.instructions", "count", ("count", "sim.instructions")),
       ("sim.l1d_misses", "count", ("count", "sim.l1d_misses")),
       ("sim.l2_misses", "count", ("count", "sim.l2_misses")),
       ("sim.branch_mispredicts", "count", ("count", "sim.branch_mispredicts")),
       ("sim.spec_instructions", "count", ("count", "sim.spec_instructions")),
       ("sim.clflushes", "count", ("count", "sim.clflushes")),
       ("sim.benign.cache.l1d.hits", "count",
        ("count", "sim.benign.cache.l1d.hits")),
       ("sim.benign.cache.l1d.misses", "count",
        ("count", "sim.benign.cache.l1d.misses")),
       ("sim.benign.cache.l2.misses", "count",
        ("count", "sim.benign.cache.l2.misses")),
       ("sim.benign.predictor.pht.updates", "count",
        ("count", "sim.benign.predictor.pht.updates")),
       ("sim.benign.predictor.btb.updates", "count",
        ("count", "sim.benign.predictor.btb.updates")),
       ("hid.profile_run_ms", "ms", ("total", "hid.profile_run")),
       ("hid.profiler.runs", "count", ("count", "hid.profiler.runs")),
       ("hid.windows", "count", ("count", "hid.windows")),
       ("hid.features_ms", "ms", ("total", "hid.features")),
       ("hid.detect_ms", "ms", ("total", "hid.detect")),
       ("hid.refit_ms", "ms", ("total", "hid.refit")),
       ("hid.incremental_updates", "count", ("count", "hid.incremental_updates"))]
    + [("ml.fit_ms.%s" % k, "ms", ("total", "ml.fit.%s" % k)) for k in CLASSIFIERS]
    + [("ml.partial_fit_ms", "ms", ("total", "ml.partial_fit")),
       ("perturb.mutations", "count", ("count", "perturb.mutations")),
       ("mitigate.fence.planted", "count", ("count", "mitigate.fence.planted")),
       ("mitigate.fence.stalls", "count", ("count", "mitigate.fence.stalls")),
       ("mitigate.fence.squashes", "count", ("count", "mitigate.fence.squashes"))]
    + [("%s.self_ms" % l, "ms", ("self", l)) for l in LAYERS]
    + [("%s.calls" % l, "count", ("calls", l)) for l in LAYERS]
    + [("trace.overhead_pct", "%", ("overhead",)),
       ("trace.shadow_ms", "ms", ("total", "bench.shadow"))]
)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed build...)."""


# ------------------------------------------------------------------ build

def build(root, jobs):
    """Configures and builds the pass driver; returns the binary's path."""
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        raise BenchError("run from the root of a checkout of the repository "
                         "(no CMakeLists.txt and src/ here)")
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "pipebench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "--target", "pipebench_pass",
                      "-j", str(jobs)])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(out, "pipebench_pass"), out


# ----------------------------------------------------------------- config

def make_config(workload, seed, overrides=None):
    """The workload's inputs, drawn from the seed alone."""
    rng = random.Random("%s:%d" % (workload, seed))
    cfg = {
        "workload": workload,
        # Paper §III-A: 2000 windows per class at host scale 400, from the
        # figures' corpus seed. The timed work stays fixed: another corpus
        # changes the host scales of its profiling runs, the NN's fit time
        # (by ~10%) and, through the detector, the path the attacker
        # mutates along. The run's seed moves the attempts' jitter and the
        # held-out split instead.
        "corpus_seed": "99",
        "windows_per_class": "2000",
        "host_scale": "400",
        "classifiers": " ".join(CLASSIFIERS),
    }
    if workload == "online_evasion":
        cfg.update({
            "online_attempts": "10",
            # Fig. 6's campaign seeds: they fix host scales and mutation
            # draws, so the attempts' cost does not move with the seed.
            "online_seed_a": "99",
            "online_seed_b": "1099",
            "attempt_seed": str(rng.randrange(1, 1 << 32)),
        })
    elif workload == "offline_sweep":
        cfg.update({
            "offline_variants":
                "spectre-pht spectre-rsb spectre-stride spectre-btb",
            "offline_presets": "none lfence-bounds",
            "offline_attempts": "30",
            "offline_seed": "77",  # Fig. 5's campaign seed
            "attempt_seed": str(rng.randrange(1, 1 << 32)),
        })
    elif workload == "corpus_train":
        cfg.update({
            "split_seed": str(rng.randrange(1, 1 << 32)),
        })
    else:
        raise BenchError("unknown workload '%s' (one of %s)"
                         % (workload, ", ".join(WORKLOADS)))
    cfg.update(overrides or {})
    return cfg


def write_config(cfg, path):
    with open(path, "w") as f:
        for key, value in cfg.items():
            f.write("%s %s\n" % (key, value))


# ----------------------------------------------------------------- passes

def run_pass(binary, config_path, prefix, traced, check_program=False):
    """Runs one pass in a fresh process; returns its record."""
    cmd = [binary, "--config", config_path, "--out", prefix]
    if traced:
        cmd.append("--trace")
    if check_program:
        cmd.append("--check-program")
    spawn = time.time()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=170)
    if proc.returncode != 0:
        raise BenchError("pass failed (%d): %s" % (
            proc.returncode, proc.stderr.decode(errors="replace").strip()))
    with open(prefix + ".json") as f:
        rec = json.load(f)
    with open(prefix + ".csv", "rb") as f:
        rec["csv"] = f.read()
    rec["setup_s"] = rec["setup_end_unix"] - spawn
    return rec


def unit_minimums(passes):
    """Per unit: (phase, minimum seconds over the passes), in unit order."""
    names = [u[0] for u in passes[0]["units"]]
    for p in passes[1:]:
        if [u[0] for u in p["units"]] != names:
            raise BenchError("passes ran different units")
    out = []
    for i, name in enumerate(names):
        out.append((name, passes[0]["units"][i][1],
                    min(p["units"][i][2] for p in passes)))
    return out


def phase_sum(mins, phases):
    return sum(s for _, phase, s in mins if phase in phases)


def end_to_end(workload, passes):
    mins = unit_minimums(passes)
    attempts = [m for m in mins if m[1] == "attempt"]
    if attempts:
        attempts_per_s = len(attempts) / phase_sum(mins, ("attempt",))
    else:
        # corpus_train: an operation is one profiling run or one fit.
        attempts_per_s = len(mins) / phase_sum(mins, ("corpus", "fit"))
    windows = passes[0]["values"]["corpus_windows"]
    return {
        "attempts_per_s": attempts_per_s,
        "corpus_windows_per_s": windows / phase_sum(mins, ("corpus",)),
        "train_s": phase_sum(mins, ("fit",)),
        # Each pass is a fresh process, so each set-up is a cold one.
        "setup_s": min(p["setup_s"] for p in passes),
        "peak_rss_mb": max(p["peak_rss_kb"] for p in passes) / 1024.0,
    }


def layer_value(source, traced, untraced):
    """One per-layer metric: the minimum over traced passes for times."""
    kind = source[0]
    if kind == "overhead":
        t = sum(s for _, _, s in unit_minimums(traced))
        u = sum(s for _, _, s in unit_minimums(untraced))
        return 100.0 * (t / u - 1.0)
    vals = []
    for p in traced:
        layers, counts = p["layers"], p["counts"]
        if kind == "total":
            vals.append(layers.get(source[1], {}).get("total_ms", 0.0))
        elif kind == "total_us":
            vals.append(1000.0 * layers.get(source[1], {}).get("total_ms", 0.0))
        elif kind == "count":
            vals.append(counts.get(source[1], 0.0))
        elif kind in ("self", "calls"):
            # A shadow call's own glue (the replica's set-up) belongs to no
            # layer; the layer spans inside it count for their layers.
            field = "self_ms" if kind == "self" else "calls"
            vals.append(sum(v[field] for k, v in layers.items()
                            if k.split(".")[0] == source[1]
                            and k != "bench.shadow"))
        elif kind == "rate":
            secs = sum(layers.get(k, {}).get("total_ms", 0.0)
                       for k in ("core.run_attempt", "hid.profile_run")) / 1e3
            vals.append(counts.get("sim.instructions", 0.0) / secs if secs else 0.0)
    return min(vals)


def verdict(passes, traced_passes):
    """Workload-level checks: every pass's own checks, and identical
    outputs across passes and between traced and untraced passes."""
    checks = {}
    for p in passes + traced_passes:
        for name, ok in p["checks"].items():
            checks[name] = checks.get(name, True) and ok
    checks["passes_byte_identical_csv"] = all(
        p["csv"] == passes[0]["csv"] for p in passes)
    if traced_passes:
        checks["traced_outputs_equal_untraced"] = all(
            p["csv"] == passes[0]["csv"] for p in traced_passes)
    return checks


def passes_for(workload, seconds):
    return max(MIN_PASSES, int(seconds // PASS_SECONDS[workload]))


def run(workload, seed, seconds, trace, root, jobs=None, overrides=None,
        passes=None, log=sys.stdout):
    jobs = jobs or max(1, min(4, os.cpu_count() or 1))
    binary, out = build(root, jobs)
    cfg = make_config(workload, seed, overrides)
    work = os.path.join(out, "runs", "%s-%d-%d" % (workload, seed, os.getpid()))
    os.makedirs(work, exist_ok=True)
    config_path = os.path.join(work, "config.txt")
    write_config(cfg, config_path)

    n = passes or passes_for(workload, seconds)
    if trace:
        # Half as many passes of each kind keeps a traced run near the
        # untraced run's length; per-layer metrics carry no bound.
        n = max(2, n // 2)
    untraced, traced = [], []
    for i in range(n):
        # The first pass also checks, untimed, that the benchmark's copy of
        # the program's campaign loop is still the program's.
        untraced.append(run_pass(binary, config_path,
                                 os.path.join(work, "pass%d" % i), False,
                                 check_program=i == 0))
        if trace:
            traced.append(run_pass(binary, config_path,
                                   os.path.join(work, "traced%d" % i), True))

    checks = verdict(untraced, traced)
    everything = untraced + traced
    attempted = sum(p["attempted"] for p in everything)
    failed = sum(len(p["failures"]) for p in everything)
    correct = all(checks.values())
    if trace:
        metrics = {name: {"value": layer_value(src, traced, untraced),
                          "unit": unit} for name, unit, src in PER_LAYER}
    else:
        e2e = end_to_end(workload, untraced)
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}

    print("workload %s seed %d: %d passes%s, %d units per pass"
          % (workload, seed, n, " (+%d traced)" % len(traced) if trace else "",
             len(untraced[0]["units"])), file=log)
    for name, ok in sorted(checks.items()):
        print("  [%s] %s" % ("ok" if ok else "FAIL", name), file=log)
    for name, v in sorted(untraced[0]["values"].items()):
        print("  %s = %.4f" % (name, v), file=log)
    for p in everything:
        for f in p["failures"][:5]:
            print("  failed: %s" % f, file=log)
    for name, m in metrics.items():
        print("  %-34s %14.4f %s" % (name, m["value"], m["unit"]), file=log)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, checks


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, _ = run(args.workload, args.seed, args.seconds,
                        args.trace == 1, os.getcwd())
    except (BenchError, subprocess.TimeoutExpired) as e:
        print("pipebench: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
