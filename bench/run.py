"""gafholes benchmark: ``gafholes estimate`` workloads, end to end and per layer.

    python3 bench/run.py --workload direct_flat --seed 1 --seconds 35 --trace 0

Each repetition is a fresh single-process interpreter (bench/child.py) that
imports gafholes.cli and runs one estimate through ``cli.main`` with
``--workers 1``.  Repetitions continue for about --seconds, and each metric
is the median over them.  The records of every repetition are checked, and
a repeated input must give a byte-identical record.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced repetitions and reports the per-layer metrics of the traced ones
(medians for times, exact counts that must repeat) plus
trace.overhead_frac.  The last line of stdout is the result object; the line
before it holds provenance and the records hash.  Exits 1 when any
correctness check fails and 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

import tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(HERE, ".work")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

MIN_REPS = 2         # traced repetitions: their counts must repeat exactly
DEADLINE_S = 170.0   # no repetition may still run at this point of a run

# Per-layer units of exact counts, which must repeat across runs at one seed.
COUNT_UNITS = ("count", "points/trial", "MB")


def metric_units() -> tuple:
    """{name: unit} of the end-to-end and the per-layer metrics in BENCHMARK.json."""
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


class RepFailed(Exception):
    pass


def run_child(name: str, seed: int, trials: int, out: str, trace_on: bool,
              timeout: float) -> dict:
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, name, str(seed), str(trials), out,
             "1" if trace_on else "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RepFailed(f"repetition exceeded {timeout:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RepFailed(f"child exited {proc.returncode}: "
                        + proc.stderr.strip()[-2000:])
    res = json.loads(proc.stdout.splitlines()[-1])
    res["time_to_result_s"] = res["written_at"] - started
    if trace_on:
        with open(out + ".trace.json", encoding="utf-8") as fh:
            tr = json.load(fh)
        res["layers"] = tracing.layer_metrics(tr["spans"], tr["counts"], trials)
    return res


def rep_seed(seed: int, i: int) -> int:
    """Estimate seed of repetition i in a run with workload seed `seed`."""
    return 1000 * seed + i


def repeat(name: str, seed: int, trials: int, seconds: float, trace_on: bool,
           workdir: str):
    """Run repetitions for about `seconds`; returns (plain, traced, failure).

    Untraced runs give repetition i the estimate seed rep_seed(seed, i), so
    the medians span several inputs and do not hinge on the few rows of one
    input that climb the ladder furthest, and finish by repeating input 0,
    whose record must hash identically.  Traced runs alternate untraced and
    traced repetitions of input 0, so their counts must repeat exactly.
    """
    start = time.monotonic()
    plain, traced = [], []
    longest = 0.0

    def room(reps_to_come: int) -> bool:
        elapsed = time.monotonic() - start
        return elapsed + reps_to_come * longest <= min(seconds, DEADLINE_S - 20)

    def run(i: int, trace_rep: bool):
        nonlocal longest
        t0 = time.monotonic()
        out = os.path.join(workdir, f"rep{len(plain) + len(traced)}.jsonl")
        res = run_child(name, rep_seed(seed, i), trials, out, trace_rep,
                        max(5.0, DEADLINE_S - (t0 - start)))
        res["input"] = i
        longest = max(longest, time.monotonic() - t0)
        (traced if trace_rep else plain).append(res)

    try:
        if trace_on:
            while len(traced) < MIN_REPS or room(2):
                run(0, False)
                run(0, True)
        else:
            run(0, False)
            while room(2):
                run(len(plain), False)
            run(0, False)
    except RepFailed as exc:
        return plain, traced, str(exc)
    return plain, traced, None


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def bench_workload(w, seed: int, seconds: float, trace_on: bool,
                   trials: int) -> int:
    """Measure one workload, print provenance and result lines; 1 if incorrect."""
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        plain, traced, failure = repeat(w.name, seed, trials, seconds,
                                        trace_on, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reps = plain + traced
    problems = [failure] if failure else []
    hashes = {}
    for i, r in enumerate(reps):
        problems += [f"repetition {i}: {p}" for p in r["problems"]]
        hashes.setdefault(str(rep_seed(seed, r["input"])), set()).add(
            r["records_sha256"])
    for s, hs in hashes.items():
        if len(hs) > 1:
            problems.append(f"records of estimate seed {s} differ between "
                            f"repetitions: {sorted(hs)}")
    # A decision is one attempt; every decision of a repetition whose checks
    # fail counts as failed.  Inconclusive decisions are a legitimate outcome
    # of a certified estimator and show in certified_frac instead.
    n = w.attempts(trials)
    attempted = n * (len(reps) + bool(failure))
    failed = n * (sum(bool(r["problems"]) for r in reps) + bool(failure))

    e2e_units, layer_units = metric_units()
    metrics, units = {}, {}
    if plain and not trace_on:
        metrics = {
            "trials_per_s": median([trials / r["estimate_s"] for r in plain]),
            "time_to_result_s": median([r["time_to_result_s"] for r in plain]),
            "setup_s": median([r["setup_s"] for r in plain]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
            "certified_frac": median(
                [1.0 - r["record"].get("inconclusive", n) / n for r in plain]),
        }
        units = e2e_units
    elif plain and traced:
        layers = [r["layers"] for r in traced]
        metrics["trace.overhead_frac"] = (
            median([r["estimate_s"] for r in traced])
            / median([r["estimate_s"] for r in plain]) - 1.0)
        for name, unit in layer_units.items():
            if name in metrics:
                continue
            seen = [lay[name] for lay in layers]
            if unit in COUNT_UNITS and len(set(seen)) > 1:
                problems.append(f"count {name} differs between repetitions: "
                                f"{sorted(set(seen))}")
            metrics[name] = seen[0] if unit in COUNT_UNITS else median(seen)
        units = layer_units

    versions = reps[0]["versions"] if reps else {}
    print(json.dumps({
        "provenance": {
            "git_sha": git_sha(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), **versions,
            "workload": w.name, "seed": seed, "trials": trials,
            "repetitions": [
                {"estimate_seed": rep_seed(seed, r["input"]),
                 "traced": r in traced,
                 **{k: r[k] for k in ("setup_s", "estimate_s",
                                      "time_to_result_s", "peak_rss_mb")}}
                for r in reps],
        },
        "records_sha256": {s: sorted(hs)[0] for s, hs in hashes.items()},
        "problems": problems,
    }, sort_keys=True))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if not problems else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gafholes", "cli.py")):
        print(f"error: gafholes source not found under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(bench_workload(WORKLOADS[name], args.seed, args.seconds,
                              bool(args.trace), WORKLOADS[name].trials)
               for name in names)


if __name__ == "__main__":
    sys.exit(main())
