"""Benchmark of ``padyn analyze``: one command, three workloads.

    python3 perfbench/run.py --workload {deep-oracle,coeff-scan,corpus-sweep}
                             --seed N --seconds S --trace {0,1}

Run it from the repository root.  Each pass of a workload runs in a fresh
worker process (perfbench/worker.py) that imports padyn from ``src/`` and
runs the workload's jobs back to back as one closed-loop client.  With
``--trace 0`` passes repeat until another would overrun ``--seconds``, and
the end-to-end metrics are medians over passes and jobs of times scaled to
a reference host speed (see HostSampler in worker.py).  With
``--trace 1`` one untraced pass and one traced pass run, and the
per-layer metrics come from the traced one.

Every job's output is checked (perfbench/worker.py); a wrong exit code or
output counts as failed.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it print every metric by name and unit, the environment and the
pass-to-pass spread.  The full record goes to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import REF_PROBE_S, WORKDIR
from workloads import WORKLOADS, jobs_for

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

WORKER_TIMEOUT_S = 170
RUN_LIMIT_S = 170

END_TO_END = (
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics of the traced run.  "<layer>.<function>_calls", "_s"
# (inclusive) and "_self_s" come from the spans of that function, "_cells"
# from the table entries it enumerated; the rest are derived in per_layer.
PER_LAYER = (
    ("mapdsl.eval_map_calls", "count"),
    ("mapdsl.eval_map_self_s", "s"),
    ("mapdsl.lookahead_bound_calls", "count"),
    ("padic.is_prime_calls", "count"),
    ("padic.binomial_eval_calls", "count"),
    ("mapdsl.eval_useful_ratio", "ratio"),
    ("automata.run_calls", "count"),
    ("automata.run_s", "s"),
    ("automata.guaranteed_output_length_calls", "count"),
    ("automata.guaranteed_output_length_s", "s"),
    ("automata.check_nondegenerate_calls", "count"),
    ("automata.check_nondegenerate_s", "s"),
    ("mahler.mahler_coeffs_s", "s"),
    ("mahler.mahler_coeffs_self_s", "s"),
    ("mahler.checks_s", "s"),
    ("dynamics.level_map_s", "s"),
    ("dynamics.level_map_self_s", "s"),
    ("dynamics.level_map_cells", "count"),
    ("dynamics.padded_endomap_s", "s"),
    ("dynamics.padded_endomap_self_s", "s"),
    ("dynamics.padded_endomap_cells", "count"),
    ("dynamics.plot_points_self_s", "s"),
    ("dynamics.accumulate_plot_self_s", "s"),
    ("dynamics.plot_points_cells", "count"),
    ("dynamics.box_count_s", "s"),
    ("dynamics.to_csv_s", "s"),
    ("dynamics.preimage_census_s", "s"),
    ("dynamics.cycle_report_s", "s"),
    ("dynamics.to_pgm_s", "s"),
    ("mapdsl.parse_map_s", "s"),
    ("cli.render_report_s", "s"),
    ("cli.self_s", "s"),
    ("cli.self_frac", "ratio"),
    ("cli.layer_self_s", "s"),
    ("mapdsl.layer_self_s", "s"),
    ("padic.layer_self_s", "s"),
    ("automata.layer_self_s", "s"),
    ("mahler.layer_self_s", "s"),
    ("dynamics.layer_self_s", "s"),
    ("cli.layer_calls", "count"),
    ("mapdsl.layer_calls", "count"),
    ("padic.layer_calls", "count"),
    ("automata.layer_calls", "count"),
    ("mahler.layer_calls", "count"),
    ("dynamics.layer_calls", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def run_worker(workload: str, seed: int, traced: bool) -> dict:
    """Start a fresh worker, time its set-up from launch to READY, and
    return its measurements."""
    env = dict(os.environ)
    env.pop("PADYN_BUDGET", None)  # the jobs run at the default budget
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    launched = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - launched
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}) before reporting")
    result = json.loads(rest.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    result["total_s"] = time.perf_counter() - launched
    return result


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest nearest-rank percentile with at least ten samples above
    it: (value, percentile, sample count).  Below eleven samples no such
    percentile exists and the minimum is reported."""
    ordered = sorted(samples)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered)


def spread(values: list[float]) -> dict:
    """Quartiles and IQR/median of per-pass values, to tell host drift
    ("unresolved") from a real change."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"n": len(values), "min": min(values), "q1": q1, "median": med, "q3": q3,
            "max": max(values), "iqr_over_median": (q3 - q1) / med}


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    """Medians over passes (and over every job latency for the job metrics)
    of host-scaled times; the raw medians go into the detail."""
    for p in passes:
        p["scaled_setup_s"] = p["setup_s"] * REF_PROBE_S / p["probe_s"]
    latencies = [job["latency_s"] for p in passes for job in p["jobs"]]
    tail_s, tail_pct, samples = tail(latencies)
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail_s,
        "setup_s": statistics.median(p["scaled_setup_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    raw_latencies = [job["raw_latency_s"] for p in passes for job in p["jobs"]]
    detail = {
        "job_tail_percentile": tail_pct,
        "job_samples": samples,
        "passes": len(passes),
        "raw": {
            "wall_s": statistics.median(p["raw_wall_s"] for p in passes),
            "job_p50_s": statistics.median(raw_latencies),
            "job_tail_s": tail(raw_latencies)[0],
            "setup_s": statistics.median(p["setup_s"] for p in passes),
        },
        "spread": {
            name: spread([p[name] for p in passes])
            for name in ("wall_s", "raw_wall_s", "scaled_setup_s", "setup_s", "peak_rss_mb", "probe_s")
        },
    }
    return values, detail


def per_layer(untraced: dict, traced: dict, useful_evals: int) -> dict:
    trace = traced["trace"]
    flat: dict[str, float] = {}
    layers: dict[str, dict[str, float]] = {}
    for func, stats in trace["functions"].items():
        flat[f"{func}_calls"] = stats["calls"]
        flat[f"{func}_s"] = stats["s"]
        flat[f"{func}_self_s"] = stats["self_s"]
        layer = layers.setdefault(func.split(".")[0], {"self_s": 0.0, "calls": 0})
        layer["self_s"] += stats["self_s"]
        layer["calls"] += stats["calls"]
    for func, cells in trace["cells"].items():
        flat[f"{func}_cells"] = cells
    for layer, stats in layers.items():
        flat[f"{layer}.layer_self_s"] = stats["self_s"]
        flat[f"{layer}.layer_calls"] = stats["calls"]
    flat["mahler.checks_s"] = sum(
        stats["s"] for func, stats in trace["functions"].items() if func.startswith("mahler.check_")
    )
    eval_calls = flat.get("mapdsl.eval_map_calls", 0)
    flat["mapdsl.eval_useful_ratio"] = useful_evals / eval_calls if eval_calls else 0.0
    flat["cli.self_s"] = flat["cli.run_command_self_s"]
    flat["cli.self_frac"] = flat["cli.self_s"] / traced["wall_s"]
    flat["trace.wall_s"] = traced["wall_s"]
    flat["trace.untraced_wall_s"] = untraced["raw_wall_s"]
    flat["trace.overhead_s"] = traced["wall_s"] - untraced["raw_wall_s"]
    flat["trace.spans"] = trace["spans"]
    return {name: flat.get(name, 0) for name, _ in PER_LAYER}


def environment(workload: str, seed: int, jobs: list[str]) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
        "workload": workload,
        "seed": seed,
        "jobs": jobs,
    }


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.perf_counter()
    if trace:
        untraced = run_worker(workload, seed, traced=False)
        traced = run_worker(workload, seed, traced=True)
        passes = [untraced, traced]
    else:
        passes = []
        while True:
            passes.append(run_worker(workload, seed, traced=False))
            elapsed = time.perf_counter() - started
            longest = max(p["total_s"] for p in passes)
            if elapsed + longest > min(seconds, RUN_LIMIT_S):
                break
    jobs = [job for p in passes for job in p["jobs"]]
    failed = [job for job in jobs if job["problems"]]
    result = {
        "attempted": len(jobs),
        "failed": len(failed),
        "failures": [{"key": job["key"], "problems": job["problems"]} for job in failed],
        "elapsed_s": time.perf_counter() - started,
    }
    if trace:
        pass_jobs = jobs_for(workload, seed, WORKDIR)
        useful = sum(job.useful_evals for job in pass_jobs)
        result["metrics"] = per_layer(untraced, traced, useful)
        result["units"] = dict(PER_LAYER)
        result["per_job"] = [
            {"key": job.key, "eval_map_calls": calls.get("mapdsl.eval_map", 0),
             "useful_evals": job.useful_evals, "calls": calls}
            for job, calls in zip(pass_jobs, traced["trace"]["job_calls"])
        ]
    else:
        result["metrics"], result["detail"] = end_to_end(passes)
        result["units"] = dict(END_TO_END)
        result["passes"] = [
            {**{k: p[k] for k in ("wall_s", "raw_wall_s", "setup_s", "scaled_setup_s", "total_s",
                                  "peak_rss_mb", "probe_s")},
             "jobs": [[job["key"], job["raw_latency_s"], job["probe_s"]] for job in p["jobs"]]}
            for p in passes
        ]
    return result


def report(result: dict, env: dict, trace: bool) -> None:
    mode = "traced" if trace else "untraced"
    print(f"padyn analyze benchmark: workload={env['workload']} seed={env['seed']} {mode}; "
          "one closed-loop client, a fresh worker process per pass")
    print("env: " + json.dumps({k: v for k, v in env.items() if k != "jobs"}))
    print(f"jobs per pass: {len(env['jobs'])}")
    for name, value in result["metrics"].items():
        print(f"  {name:42s} {value:>16.6f} {result['units'][name]}")
    per_job = result.get("per_job", [])
    if len(per_job) > 8:
        print(f"  per-job counters of {len(per_job)} jobs are in the result file")
        per_job = []
    for job in per_job:
        ratio = job["useful_evals"] / job["eval_map_calls"] if job["eval_map_calls"] else 0.0
        print(f"  job {job['key']}: mapdsl.eval_map_calls {job['eval_map_calls']}, "
              f"eval_useful_ratio {job['useful_evals']}/{job['eval_map_calls']} = {ratio:.4f}")
    if not trace:
        d = result["detail"]
        print(f"  job_tail_s is the p{d['job_tail_percentile']:.1f} of {d['job_samples']} job latencies "
              f"over {d['passes']} passes")
        print(f"  times are scaled to the reference host speed (probe {REF_PROBE_S * 1e6:.0f} us); raw: "
              + ", ".join(f"{name} {value:.6f} s" for name, value in d["raw"].items()))
        for name, s in d["spread"].items():
            print(f"  spread over passes of {name}: "
                  + " ".join(f"{k} {s[k]:.6g}" for k in ("min", "q1", "median", "q3", "max", "iqr_over_median")))
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':42s} {frac:>16.6f} ratio ({result['failed']} of {result['attempted']} jobs)")
    for failure in result["failures"][:10]:
        print(f"  FAILED {failure['key']}: {'; '.join(failure['problems'])}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "padyn" / "cli.py").is_file():
        print(f"error: no padyn sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        result = measure(args.workload, args.seed, args.seconds, trace)
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = environment(args.workload, args.seed, [job.key for job in jobs_for(args.workload, args.seed, WORKDIR)])
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    record = {"env": env, **result}
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    report(result, env, trace)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": result["units"][name]}
                    for name in result["metrics"]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
