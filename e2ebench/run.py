#!/usr/bin/env python3
"""End-to-end benchmark of the varitune paper flow.

Builds the `e2ebench` binary from this checkout, runs one workload in its
own process and prints, as the last line of stdout, one JSON object with
`correct`, `attempted`, `failed` and `metrics` (name -> {value, unit}).

    python3 e2ebench/run.py --workload signoff|serve_mix \\
        [--seed N] [--seconds S] [--trace 0|1]
    python3 e2ebench/run.py --smoke

`--trace 0` reports the end-to-end metrics of an untraced run. `--trace 1`
runs the workload twice, untraced and traced, each in its own process, and
reports the per-layer metrics of the traced run plus `trace.overhead_pct`
(how much slower the traced run's ops were). `--smoke` runs every workload
briefly, traced and untraced, and checks metric names, units, the digest
gates and that no op failed. See NOTES.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("signoff", "serve_mix")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_of_means_ms": "ms",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "synth.synthesize_ms": "ms",
    "synth.iterations": "count",
    "synth.buffers_inserted": "count",
    "synth.resizes_critical": "count",
    "sta.gates_recomputed": "count",
    "sta.worst_paths_ms": "ms",
    "sta.graph_build_ms": "ms",
    "sta.full_propagate_ms": "ms",
    "sta.ssta_ms": "ms",
    "sta.path_mc_ms": "ms",
    "core.tune_ms": "ms",
    "core.restricted_pins": "count",
    "libchar.characterize_ms": "ms",
    "libchar.mc_trials": "count",
    "liberty.parse_ms": "ms",
    "core.screen_ms": "ms",
    "netlist.generate_ms": "ms",
    "serve.hit_ms": "ms",
    "serve.miss_ms": "ms",
    "serve.decode_ms": "ms",
    "serve.hash_ms": "ms",
    "serve.frame_mb": "MB",
    "serve.registry.flow_ms": "ms",
    "serve.registry.baseline_ms": "ms",
    "serve.characterizations": "count",
    "serve.hit_ratio": "ratio",
    "serve.jobs_shed": "count",
    "trace.overhead_pct": "%",
}

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[e2ebench] {msg}", file=sys.stderr, flush=True)


def run_child(cmd, timeout, cwd=ROOT):
    """Runs `cmd`, streaming its stderr; returns (code, stdout). The child is
    killed and reaped if it outlives `timeout`."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"timed out after {timeout} s: {' '.join(cmd)}")
        return 1, ""
    return proc.returncode, out


def build():
    """Builds the benchmark binary in release mode; returns its path."""
    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        log(f"no varitune sources next to {HERE}; nothing to build")
        return None
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("build timed out")
        return None
    if code != 0:
        log(f"build failed with exit code {code}")
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(ROOT, target, "release", "e2ebench")


def workload_run(binary, workload, seed, seconds, traced, setup_reps, timeout, max_ops):
    """Runs one workload process; returns its parsed result line, or None."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--setup-reps", str(setup_reps)]
    if traced:
        cmd.append("--traced")
    if max_ops is not None:
        cmd += ["--max-ops", str(max_ops)]
    code, out = run_child(cmd, timeout)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        log(f"{workload} exited with code {code}")
        return None
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload} printed no result line")
        return None
    m = result["metrics"]
    log(f"{workload} seed {seed}{' traced' if traced else ''}: "
        f"{result['attempted']} ops, {result['failed']} failed, "
        f"{m['ops_per_s']:.3f} ops/s, p50 of op means {m['op_p50_of_means_ms']:.1f} ms, "
        f"p50 {m['op_p50_ms']:.1f} ms, p90 {m['op_p90_ms']:.1f} ms, "
        f"set-up {m['setup_s']:.3f} s")
    return result


def with_units(values, units):
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def measure(binary, workload, seed, seconds, trace, max_ops=None, setup_reps=3):
    """The result line of one benchmark invocation, or None."""
    # Both processes of a traced invocation share the time limit.
    timeout = RUN_TIMEOUT_S // (2 if trace else 1)
    plain = workload_run(binary, workload, seed, seconds, False,
                         1 if trace else setup_reps, timeout, max_ops)
    if plain is None:
        return None
    if not trace:
        return {
            "correct": plain["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "metrics": with_units(plain["metrics"], END_TO_END),
        }
    traced = workload_run(binary, workload, seed, seconds, True, 1, timeout, max_ops)
    if traced is None:
        return None
    values = dict(traced["metrics"])
    values["trace.overhead_pct"] = 100.0 * (
        plain["metrics"]["ops_per_s"] / traced["metrics"]["ops_per_s"] - 1.0)
    return {
        "correct": plain["correct"] and traced["correct"],
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": with_units(values, PER_LAYER),
    }


def declared_metrics():
    """Metric name -> unit as BENCHMARK.json declares them (both lists)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def smoke(binary):
    """Runs every workload briefly, untraced (default seed) and traced
    (another seed); checks names, units, digests and that no op failed."""
    problems = []
    e2e, layers, workloads = declared_metrics()
    if e2e != END_TO_END or layers != PER_LAYER or tuple(workloads) != WORKLOADS:
        problems.append("BENCHMARK.json disagrees with run.py's metric or workload lists")
    for workload in WORKLOADS:
        for seed, trace in ((1, 0), (2, 1)):
            result = measure(binary, workload, seed, 1, trace, max_ops=3, setup_reps=1)
            label = f"{workload} seed {seed} trace {trace}"
            if result is None:
                problems.append(f"{label}: no result")
                continue
            want = PER_LAYER if trace else END_TO_END
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics {sorted(got)} != {sorted(want)}")
            if not result["correct"]:
                problems.append(f"{label}: a digest gate failed")
            if result["attempted"] < 1 or result["failed"] != 0:
                problems.append(f"{label}: error_rate "
                                f"{result['failed']}/{result['attempted']} != 0")
            for name, m in result["metrics"].items():
                v = m["value"]
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    problems.append(f"{label}: {name} = {v!r} is not a finite number")
                elif not trace and v <= 0:
                    problems.append(f"{label}: end-to-end metric {name} = {v} is not positive")
    for p in problems:
        log(f"SMOKE FAIL {p}")
    log("smoke passed" if not problems else f"smoke failed: {len(problems)} problem(s)")
    return not problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke")
    binary = build()
    if binary is None or not os.path.isfile(binary):
        return 2
    if args.smoke:
        return 0 if smoke(binary) else 1
    result = measure(binary, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    error_rate = result["failed"] / result["attempted"]
    log(f"error_rate {error_rate} ({result['failed']} of {result['attempted']} ops)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
