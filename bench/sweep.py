"""Run the benchmark over several seeds and summarize each metric across runs.

    python3 bench/sweep.py --workloads audit-strong lp-flow paper-cli \
        --seeds 0-9 --seconds 40 --trace 0 [--out bench/baseline.json]

Runs one process at a time.  For every workload and metric it prints the
median, quartiles and sample count over runs, and the quartile spread as a
share of the median (the steadiness figure compared with each bound in
BENCHMARK.json).  ``--out`` also writes those figures, each job's median time
over runs and the machine facts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import quartiles

BENCH_DIR = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    summary = quartiles(values)
    width = summary["q3"] - summary["q1"]
    summary["spread"] = width / summary["median"] if summary["median"] else 0.0
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        job_s: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in seed_list(args.seeds):
            info, result = run_once(workload, seed, args.seconds, args.trace)
            report["machine"] = info["machine"]
            for key, seconds in info["job_median_s"].items():
                job_s.setdefault(key, []).append(seconds)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            for name in ("raw_wall_s", "raw_cpu_s", "raw_setup_s"):
                if name in info["summary"]:  # unscaled times, for comparison
                    values.setdefault(name, []).append(info["summary"][name]["median"])
                    units[name] = "s"
            print(f"{workload} seed {seed}: passes={info['passes']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                             if args.trace == 0), flush=True)
        summary = {name: {**summarize(vals), "unit": units[name], "runs": vals}
                   for name, vals in values.items()}
        report["workloads"][workload] = {
            "seeds": args.seeds, "attempted": attempted, "failed": failed, "metrics": summary,
            "job_median_s": {key: statistics.median(v) for key, v in job_s.items()}}
        for name, s in summary.items():
            if args.trace == 0 or not name.startswith(("exactlp.solve_mean", "exactlp.pivots_per")):
                print(f"  {workload} {name}: median {s['median']:.6g} {s['unit']} "
                      f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] n={s['n']} "
                      f"spread {s['spread']:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
