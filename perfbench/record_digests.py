"""Record the output digests of every fixed job into digests.json.

Run it from the repository root at a commit whose outputs are the
reference; the benchmark then fails any job whose JSON report (timing
aside), CSV or PGM differs from what this recorded:

    python3 perfbench/record_digests.py
"""
from __future__ import annotations

import json

from workloads import WORKLOADS
from worker import DIGESTS, import_padyn, invariant_problems, job_digests, run_pass, setup


def main() -> None:
    padyn = import_padyn()
    digests = {}
    for workload in WORKLOADS:
        jobs = setup(workload, 0)
        results = run_pass(padyn, jobs)
        for idx, (job, (_, _, code, report)) in enumerate(zip(jobs, results)):
            if not job.fixed:
                continue
            if code != 0:
                raise SystemExit(f"{job.key}: exit code {code}")
            problems = invariant_problems(job, idx, report)
            if problems:
                raise SystemExit(f"{job.key}: {problems}")
            digests[job.key] = job_digests(job, idx, report)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} jobs in {DIGESTS.name}")


if __name__ == "__main__":
    main()
