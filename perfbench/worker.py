"""One benchmark pass in a fresh process.

Set-up imports padyn from the checkout's ``src/``, writes the input files
and builds the job list, then prints ``READY``.  The pass runs every job
back to back through ``padyn.cli.run_command``, the ``padyn analyze``
entry point, as one closed-loop client.  After the pass the outputs are
checked and one JSON line with the measurements is printed.

    python3 perfbench/worker.py --workload NAME --seed N [--traced]
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from array import array
from bisect import bisect_left
from pathlib import Path

from workloads import Job, jobs_for, write_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = "perfbench/out"  # relative to ROOT, so recorded digests do not depend on it
WORKDIR = f"{OUT}/work"
DIGESTS = BENCH / "digests.json"


def import_padyn():
    sys.path.insert(0, str(ROOT / "src"))
    import padyn
    import padyn.cli

    if Path(padyn.__file__).resolve().parent != ROOT / "src" / "padyn":
        raise ImportError(f"padyn imported from {padyn.__file__}, not from this checkout")
    return padyn


def setup(workload: str, seed: int) -> list[Job]:
    work = ROOT / WORKDIR
    if work.is_dir():
        for stale in work.glob("job*"):
            stale.unlink()
    write_inputs(str(work))
    return jobs_for(workload, seed, WORKDIR)


def out_stem(idx: int) -> str:
    return f"{WORKDIR}/job{idx:03d}"


def run_pass(padyn, jobs: list[Job], tracer=None) -> list[tuple[float, float, int | str, dict | None]]:
    """Run every job back to back; returns (start, end, exit code, report)
    per job."""
    results = []
    sink = io.StringIO()
    for idx, job in enumerate(jobs):
        if tracer is not None:
            tracer.job_id = idx
        argv = job.argv(out_stem(idx))
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code, report = padyn.cli.run_command(argv)
        except Exception as exc:  # a crash in the program is a failed job
            code, report = repr(exc), None
        results.append((start, time.perf_counter(), code, report))
        sink.seek(0)
        sink.truncate()
    return results


# --- host speed ----------------------------------------------------------

# The probe's duration at the reference host speed.  Untraced times are
# scaled by REF_PROBE_S / (probe duration measured around the job), so a
# slow or fast phase of the shared host moves the probe and the job alike
# and cancels out; the raw times are recorded next to the scaled ones.
REF_PROBE_S = 200e-6


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def host_probe() -> int:
    """A fixed loop of integer arithmetic, then one of calls, small-object
    allocations and dict stores; neither touches padyn.  Host slow phases
    hit the two kinds of work differently, and padyn does both: on five
    runs each of deep-oracle and corpus-sweep, either loop alone tracked
    one workload well and the other poorly, the pair tracked both."""
    acc = 0
    for i in range(750):
        acc = (acc * 31 + i) % 1_000_003
    table = {}
    for i in range(200):
        cell = _Cell(i, i * i)
        table[(i & 63, cell.a & 7)] = cell.b
    return acc + len(table)


class HostSampler:
    """Times ``host_probe`` every INTERVAL_S of wall time from a SIGALRM
    handler, so the host's speed is sampled during every job."""

    INTERVAL_S = 0.02

    def __init__(self) -> None:
        self.at = array("d")
        self.dur = array("d")

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        host_probe()
        self.at.append(t0)
        self.dur.append(time.perf_counter() - t0)

    def __enter__(self) -> HostSampler:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def during(self, start: float, end: float) -> tuple[float, float]:
        """(probe seconds spent inside [start, end], median probe duration
        over the samples inside and two on either side)."""
        lo, hi = bisect_left(self.at, start), bisect_left(self.at, end)
        return sum(self.dur[lo:hi]), statistics.median(self.dur[max(0, lo - 2) : hi + 2])


# --- correctness ---------------------------------------------------------


def canonical_report(report: dict) -> str:
    """The JSON report with ``timing`` removed and the output paths, which
    the benchmark chooses, replaced by their suffix."""
    body = {k: v for k, v in report.items() if k != "timing"}
    config = dict(body["config"])
    for key in ("json", "csv", "pgm"):
        if config.get(key) is not None:
            config[key] = f"<out>.{key}"
    body["config"] = config
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def job_digests(job: Job, idx: int, report: dict) -> dict[str, str]:
    """Digests of the report (read back from ``--json`` when written), the
    CSV and the PGM."""
    if not job.writes_files:
        return {"report": sha(canonical_report(report))}
    stem = ROOT / out_stem(idx)
    written = json.loads(stem.with_suffix(".json").read_text())
    return {
        "report": sha(canonical_report(written)),
        "csv": sha(stem.with_suffix(".csv").read_text()),
        "pgm": sha(stem.with_suffix(".pgm").read_text()),
    }


def invariant_problems(job: Job, idx: int, report: dict) -> list[str]:
    """Checks the benchmark computes itself, for every job."""
    p, n, kmax = job.p, job.n, job.kmax
    problems = []
    if len(report["coefficients"]) != job.mmax + 1:
        problems.append("coefficient count differs from mmax+1")
    census = report["census"]
    if [row["k"] for row in census] != list(range(2, kmax + 1)):
        problems.append("census levels missing")
    for row in census:
        if row["counts"] is not None and sum(row["counts"]) != p ** row["domain_digits"]:
            problems.append(f"census k={row['k']}: counts do not sum to the domain size")
    cycles = report["cycles"]
    if [row["m"] for row in cycles] != [n * k for k in range(1, kmax + 1)]:
        problems.append("cycle levels missing")
    for row in cycles:
        hist = row["distance_histogram"]
        if sum(hist.values()) != p ** row["m"]:
            problems.append(f"cycles m={row['m']}: histogram does not cover p^m nodes")
        if sum(row["cycle_lengths"]) != hist.get("0", 0) or len(row["cycle_lengths"]) != row["cycle_count"]:
            problems.append(f"cycles m={row['m']}: cycle nodes disagree with the histogram")
        if job.map == "x+1" and row["cycle_count"] != 1:
            problems.append(f"x+1 has {row['cycle_count']} cycles at m={row['m']}")
    plot = report["plotset"]
    for level in plot["per_level"]:
        if not 1 <= level["points"] <= p ** (n + level["k"]):
            problems.append(f"plot level k={level['k']}: impossible point count")
    box = plot["box"][0]
    if not 1 <= box["covered"] <= box["cells"] == job.grid * job.grid:
        problems.append("box count out of range")
    if job.writes_files:
        stem = ROOT / out_stem(idx)
        csv_lines = stem.with_suffix(".csv").read_text().splitlines()
        if csv_lines[0] != "xnum,xden,ynum,yden" or len(csv_lines) != plot["points"] + 1:
            problems.append("CSV header or row count wrong")
        pgm_lines = stem.with_suffix(".pgm").read_text().splitlines()
        if pgm_lines[:2] != ["P2", f"{job.grid} {job.grid}"] or len(pgm_lines) != job.grid + 3:
            problems.append("PGM header or row count wrong")
    return problems


def job_problems(job: Job, idx: int, code: int | str, report: dict | None, digests: dict) -> list[str]:
    if code != 0 or report is None:
        return [f"exit code {code}"]
    try:
        problems = invariant_problems(job, idx, report)
        if job.fixed:
            expected = digests.get(job.key)
            if expected is None:
                problems.append("no recorded digest")
            else:
                got = job_digests(job, idx, report)
                problems += [f"{kind} digest differs" for kind in expected if got.get(kind) != expected[kind]]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        problems = [f"output unreadable: {exc!r}"]
    return problems


# --- entry point ---------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    padyn = import_padyn()
    jobs = setup(args.workload, args.seed)
    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(padyn)
    print("READY", flush=True)

    sampler = HostSampler() if tracer is None else None
    with sampler or contextlib.nullcontext():
        results = run_pass(padyn, jobs, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = {"peak_rss_mb": peak_rss_mb, "jobs": []}
    if sampler is not None:
        out["probe_s"] = statistics.median(sampler.dur)
    if tracer is not None:
        tracer.uninstall()
        tracer.write(ROOT / OUT / f"spans-{args.workload}", [job.key for job in jobs])
        functions, job_calls = tracer.summary()
        out["trace"] = {
            "functions": functions,
            "job_calls": job_calls,
            "cells": dict(tracer.cells),
            "spans": len(tracer),
        }
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    for idx, (job, (start, end, code, report)) in enumerate(zip(jobs, results)):
        inside, probe = sampler.during(start, end) if sampler else (0.0, REF_PROBE_S)
        raw = end - start - inside
        out["jobs"].append(
            {"key": job.key, "latency_s": raw * REF_PROBE_S / probe, "raw_latency_s": raw,
             "probe_s": probe, "exit": code,
             "problems": job_problems(job, idx, code, report, digests)}
        )
    out["wall_s"] = sum(job["latency_s"] for job in out["jobs"])
    out["raw_wall_s"] = sum(job["raw_latency_s"] for job in out["jobs"])
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
