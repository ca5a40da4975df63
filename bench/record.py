"""Record the reference outputs that every benchmark run is checked against.

    python3 bench/record.py

Run at the commit whose outputs are the reference.  For each workload it
stores the exact output of every seed-independent job (CLI stdout byte for
byte) and, for seeds 0..RECORDED_SEEDS-1, a digest of every seed-dependent
job's output.  It refuses to record when a job fails its own checks.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

RECORDED_SEEDS = 20


def outputs(workload: str, seed: int, only_seeded: bool) -> list:
    ga = run.import_fresh()
    jobs = workloads.build(workload, ga, workloads.make_inputs(workload, seed))
    done = {}
    out = []
    for job in jobs:
        if only_seeded and not job.seeded:
            continue
        result = job.run()
        problems = job.check(result, done)
        if problems:
            raise SystemExit(f"{workload} seed {seed} {job.key}: {problems[0]}")
        done[job.key] = result
        out.append((job, result))
    return out


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    run.GOLDEN_DIR.mkdir(exist_ok=True)
    probe = {}
    for workload in workloads.WORKLOADS:
        golden = {"fixed": {}, "seeds": {}}
        for seed in range(RECORDED_SEEDS):
            digests = golden["seeds"].setdefault(str(seed), {})
            for job, result in outputs(workload, seed, only_seeded=seed > 0):
                if job.seeded:
                    digests[job.key] = workloads.digest(result)
                elif job.key.startswith("probe."):
                    probe[job.key] = workloads.canon(result)
                else:
                    golden["fixed"][job.key] = workloads.canon(result)
            print(f"recorded {workload} seed {seed}", flush=True)
        if not any(golden["seeds"].values()):
            golden["seeds"] = {}
        (run.GOLDEN_DIR / f"{workload}.json").write_text(
            json.dumps(golden, indent=1, sort_keys=True) + "\n")
    (run.GOLDEN_DIR / "probe.json").write_text(
        json.dumps({"fixed": probe}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
