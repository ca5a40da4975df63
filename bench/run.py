"""Benchmark of the greedyaug toolkit: one workload per process, closed loop.

    python3 bench/run.py --workload audit-strong --seed 0 --seconds 40 --trace 0

A run repeats passes until ``--seconds`` is used up (at least two passes).  A
pass imports greedyaug afresh and builds the workload's oracles (set-up, done
SETUP_REPEATS times), then runs its jobs one at a time and checks every output.

Times are reported at a reference host speed (see SpeedProbe): a short
stdlib-only calibration loop is timed before, after and every SAMPLE_PERIOD_S
during each set-up and job, and the measured time is scaled by
CALIBRATION_REF_S over the mean calibration time.  The unscaled times are
reported too, as ``raw_*``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics as
medians over passes; with ``--trace 1`` passes alternate untraced and traced,
and it reports the per-layer metrics of the traced ones (see METRICS.md).
The line before it holds machine facts, the median and quartiles of every
metric over passes, and each job's median unscaled time.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_DIR = BENCH_DIR / "golden"
MIN_PASSES = 2
SETUP_REPEATS = 5  # set-ups per pass; the pass reports their median
CALIBRATION_REF_S = 0.0015  # calibration_s() at the reference speed
SAMPLE_PERIOD_S = 0.05
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def import_fresh() -> SimpleNamespace:
    """Import greedyaug as a user's process would, dropping earlier imports."""
    for name in [m for m in sys.modules if m == "greedyaug" or m.startswith("greedyaug.")]:
        del sys.modules[name]
    pkg = importlib.import_module("greedyaug")
    importlib.import_module("greedyaug.cli")
    return SimpleNamespace(pkg=pkg, core=pkg.core, audit=pkg.audit, exactlp=pkg.exactlp,
                           flows=pkg.flows, families=pkg.families,
                           independence=pkg.independence, cli=pkg.cli, verify=pkg.verify)


def load_golden(workload: str) -> dict:
    golden = json.loads((GOLDEN_DIR / f"{workload}.json").read_text())
    probe = json.loads((GOLDEN_DIR / "probe.json").read_text())
    golden["fixed"].update(probe["fixed"])
    return golden


def golden_problems(job, result, golden: dict, seed: int) -> list:
    """Compare with the reference outputs that record.py stored."""
    if job.seeded:
        expected = golden["seeds"].get(str(seed), {}).get(job.key)
        if expected is None or workloads.digest(result) == expected:
            return []
        return [f"output digest differs from the one recorded for seed {seed}"]
    expected = golden["fixed"].get(job.key)
    if expected is None:
        return ["no recorded output"]
    return [] if workloads.canon(result) == expected else ["output differs from the recorded one"]


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def calibration_s() -> float:
    """Time of a fixed stdlib-only loop: Fraction arithmetic, dict and list traffic."""
    t0 = time.perf_counter()
    table = {}
    acc = Fraction(0)
    for i in range(1, 80):
        q = Fraction(i % 13 + 1, i % 7 + 2)
        acc += q * Fraction(3, i % 5 + 1)
        table[i] = acc if acc > q else q
        if i % 20 == 0:
            acc = Fraction(1, 3)
    sorted(table[i] - table[i // 2 + 1] for i in range(1, 80))
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the host's speed while work runs, to report times at a reference speed.

    The host's speed swings by up to 2x within seconds, and CPU time swings
    with wall time.  A wall-clock timer signal times ``calibration_s`` every
    SAMPLE_PERIOD_S in the main thread, between the bytecodes of whatever
    runs.  A measured time is scaled by CALIBRATION_REF_S over the mean
    calibration time sampled around and during it, and the samples' own time
    is left out of it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in timer-driven samples

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(calibration_s())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, fn):
        """Run ``fn``: (result, error, raw wall, raw cpu, reference wall, reference cpu)."""
        self.samples.append(calibration_s())
        first, spent = len(self.samples) - 1, self.spent
        c0, t0 = cpu_seconds(), time.perf_counter()
        result = error = None
        try:
            result = fn()
        except Exception as exc:  # a failing job is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0 - (self.spent - spent)
        cpu = cpu_seconds() - c0 - (self.spent - spent)
        self.samples.append(calibration_s())
        scale = CALIBRATION_REF_S / statistics.fmean(self.samples[first:])
        return result, error, wall, cpu, wall * scale, cpu * scale


def run_pass(workload: str, inp: dict, golden: dict | None, seed: int, traced: bool) -> dict:
    """One pass: fresh import and oracles, then every job, then the checks."""
    with SpeedProbe() as probe:
        setups, raw_setups = [], []
        for repeat in range(SETUP_REPEATS):
            gc.collect()

            def setup():
                ga = import_fresh()
                tracer = tracing.install(ga) if traced and repeat == SETUP_REPEATS - 1 else None
                return tracer, workloads.build(workload, ga, inp)

            built, error, raw, _, ref, _ = probe.measure(setup)
            if error:
                raise RuntimeError(f"set-up failed: {error}")
            tracer, jobs = built
            raw_setups.append(raw)
            setups.append(ref)

        outcomes = []
        job_s = {}
        wall = cpu = raw_wall = raw_cpu = 0.0
        for job in jobs:
            if tracer is not None:
                tracer.job = job.key
                span = tracer.open("job")
            result, error, raw, used, ref, ref_cpu = probe.measure(job.run)
            if tracer is not None:
                tracer.close(span)
            outcomes.append((job, result, error))
            job_s[job.key] = raw
            raw_wall += raw
            raw_cpu += used
            wall += ref
            cpu += ref_cpu
    layers = tracing.layer_metrics(tracer) if tracer is not None else None

    problems = []
    done = {}
    for job, result, error in outcomes:
        found = [error] if error else []
        if not error:
            try:
                found += job.check(result, done)
                if golden is not None:
                    found += golden_problems(job, result, golden, seed)
            except Exception as exc:
                found.append(f"check raised {type(exc).__name__}: {exc}")
            done[job.key] = result
        problems += [f"{job.key}: {p}" for p in found[:1]] if found else []
    return {"setup_s": statistics.median(setups), "wall_s": wall, "cpu_s": cpu,
            "raw_setup_s": statistics.median(raw_setups), "raw_wall_s": raw_wall,
            "raw_cpu_s": raw_cpu, "attempted": len(jobs), "failed": len(problems),
            "problems": problems, "layers": layers, "job_s": job_s,
            "outcomes": outcomes, "tracer": tracer}


def quartiles(values) -> dict:
    """Median, first and third quartile (as statistics.quantiles gives them) and count."""
    values = list(values)
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def machine_facts() -> dict:
    model = platform.processor() or ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "greedyaug" / "__init__.py").is_file():
        print(f"greedyaug sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    golden = load_golden(args.workload)
    inp = workloads.make_inputs(args.workload, args.seed)

    for job in workloads.probe_jobs(import_fresh()):  # untimed warm-up
        try:
            job.run()
        except Exception:  # the timed passes count and report it
            pass

    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = time.perf_counter()
        result = run_pass(args.workload, inp, golden, args.seed, traced)
        result["traced"] = traced
        result.pop("outcomes")
        tracer = result.pop("tracer")
        if tracer is not None:
            last_tracer = tracer
        passes.append(result)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + (time.perf_counter() - t0) > args.seconds:
            break

    plain = [p for p in passes if not p["traced"]]
    timings = ("wall_s", "cpu_s", "setup_s", "raw_wall_s", "raw_cpu_s", "raw_setup_s")
    per_pass = {name: [p[name] for p in plain] for name in timings}
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        traced = [p["layers"] for p in passes if p["traced"]]
        per_pass = {name: [t[name] for t in traced] for name, _ in tracing.PER_LAYER[:-1]}
        traced_wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
        per_pass["trace.overhead_frac"] = [
            traced_wall / statistics.median(p["wall_s"] for p in plain) - 1]
        units = dict(tracing.PER_LAYER)
        out_dir = workloads.OUT_DIR
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracing.spans_json(last_tracer)))
    else:
        per_pass["peak_rss_mb"] = [peak_rss]
        units = dict(END_TO_END)

    problems = [p for result in passes for p in result["problems"]]
    for problem in problems[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    summary = {name: quartiles(values) for name, values in per_pass.items()}
    job_s = {key: statistics.median(p["job_s"][key] for p in plain) for key in plain[0]["job_s"]}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "seconds": args.seconds, "passes": len(passes),
                      "machine": machine_facts(), "summary": summary, "job_median_s": job_s}))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {name: {"value": summary[name]["median"], "unit": units[name]}
               for name in units}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
