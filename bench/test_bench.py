"""Self-tests of the benchmark: negative controls for the record checks, the
span arithmetic, and a tiny-trials smoke run of every workload.

    python3 -m pytest bench/test_bench.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing
from workloads import WORKLOADS, check_record, flat_hole_probability

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

SMOKE_TRIALS = {"direct_flat": 2048, "direct_steep": 8, "tilted_steep": 64}


def direct_record(name, trials, hits, zeros, N_t):
    w = WORKLOADS[name]
    return {"mode": "direct", "model": {"kind": "Hyperbolic", "L": w.L},
            "r": w.r, "seed": 3, "trials": trials, "hits": hits,
            "zeros_certified": zeros, "inconclusive": 0, "N_t": N_t,
            "p_low": 0.0, "p_high": 1.0}


def test_flat_checks_accept_the_oracle_and_reject_inflated_hits():
    w, n = WORKLOADS["direct_flat"], 400_000
    p = flat_hole_probability(w.r)
    assert p == pytest.approx(math.prod(1 - w.r ** (2 * k) for k in range(1, 40)))
    hits = round(n * p)
    assert check_record(w, direct_record(w.name, n, hits, n - hits, 15), 3, n, 15) == []
    extra = int(7 * math.sqrt(n * p * (1 - p)))
    bad = direct_record(w.name, n, hits + extra, n - hits - extra, 15)
    problems = check_record(w, bad, 3, n, 15)
    assert len(problems) == 1 and "6 sd" in problems[0]


def test_steep_checks_reject_an_extra_certified_hole():
    w, n = WORKLOADS["direct_steep"], 384
    assert check_record(w, direct_record(w.name, n, 0, n, 192), 3, n, 192) == []
    problems = check_record(w, direct_record(w.name, n, 1, n - 1, 192), 3, n, 192)
    assert any("hits 1 != 0" in p for p in problems)
    assert any("zeros 383" in p for p in problems)


def test_common_checks_reject_bad_counts_bounds_and_truncation():
    w, n = WORKLOADS["direct_steep"], 384
    rec = direct_record(w.name, n, 0, n - 1, 192)
    rec.update(p_low=0.5, p_high=0.25)
    problems = check_record(w, rec, 3, n, 191)
    assert len(problems) == 4  # N_t, p order, count sum, zeros + inconclusive


def test_self_time_subtracts_direct_children():
    spans = [["cli.main", 0, 100, -1], ["holes.estimate", 10, 90, 0],
             ["gaf.evaluate_on_grid", 20, 50, 1], ["rng.stream_key", 60, 70, 1]]
    t = tracing.span_times(spans)
    assert t["cli.main"][1] == pytest.approx(20e-9)
    assert t["holes.estimate"][1] == pytest.approx(40e-9)
    assert t["gaf.evaluate_on_grid"] == pytest.approx([30e-9, 30e-9, 1])


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_reports_every_metric_with_its_unit(name, trace, capsys):
    rc = run.bench_workload(WORKLOADS[name], 3, 1.0, trace, SMOKE_TRIALS[name])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0, "\n".join(out)
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    provenance = json.loads(out[-2])["provenance"]
    assert provenance["seed"] == 3 and provenance["trials"] == SMOKE_TRIALS[name]


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload",
         "direct_flat", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 2 and proc.stdout == ""
