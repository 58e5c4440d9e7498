"""Benchmark workloads and the correctness checks applied to their records.

This module imports nothing from gafholes, so the checks can be fed
hand-made records (see test_bench.py) and run.py stays cheap to start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    L: float
    r: float
    mode: str
    trials: int
    K_cap: int = 1 << 20

    def estimate_argv(self, seed: int, trials: int, out: str) -> list:
        """Arguments for gafholes.cli.main: one estimate, single process."""
        return ["estimate", "--model", "Hyperbolic", "--L", repr(self.L),
                "--r", repr(self.r), "--mode", self.mode,
                "--trials", str(trials), "--seed", str(seed),
                "--K-cap", str(self.K_cap), "--workers", "1", "--out", out]

    def attempts(self, trials: int) -> int:
        """Certified decisions attempted: tilted runs two streams per trial."""
        return 2 * trials if self.mode == "tilted_lower" else trials


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("direct_flat", 1.0, 0.3, "direct", 400_000),
    Workload("direct_steep", 2.0, 0.9, "direct", 128),
    Workload("tilted_steep", 2.0, 0.9, "tilted_lower", 4096, K_cap=1 << 16),
)}


def flat_hole_probability(r: float) -> float:
    """prod_{k>=1} (1 - r^{2k}), the exact L=1 hole probability."""
    p, r2k = 1.0, 1.0
    while True:
        r2k *= r * r
        if r2k < 1e-18:
            return p
        p *= 1.0 - r2k


def check_record(w: Workload, rec: dict, seed: int, trials: int,
                 expected_N_t: int) -> list:
    """Problems found in one estimate record; an empty list means correct."""
    bad = []

    def need(ok, what):
        if not ok:
            bad.append(what)

    need(rec.get("mode") == w.mode, f"mode {rec.get('mode')!r} != {w.mode!r}")
    need(rec.get("model") == {"kind": "Hyperbolic", "L": w.L},
         f"model {rec.get('model')!r}")
    need(rec.get("r") == w.r, f"r {rec.get('r')!r} != {w.r!r}")
    need(rec.get("seed") == seed, f"seed {rec.get('seed')!r} != {seed}")
    need(rec.get("trials") == trials, f"trials {rec.get('trials')!r} != {trials}")
    need(rec.get("N_t") == expected_N_t,
         f"N_t {rec.get('N_t')!r} != truncation degree {expected_N_t}")
    hits, inc = rec.get("hits"), rec.get("inconclusive")
    counts = [hits, inc] + ([rec.get("zeros_certified")] if w.mode == "direct"
                            else [rec.get("mid_hits"), rec.get("tail_hits")])
    if not all(isinstance(c, int) and c >= 0 for c in counts):
        return bad + [f"counts are not non-negative integers: {counts}"]
    p_low, p_high = rec.get("p_low"), rec.get("p_high")
    need(isinstance(p_low, float) and isinstance(p_high, float)
         and 0.0 <= p_low <= p_high <= 1.0,
         f"not 0 <= p_low={p_low!r} <= p_high={p_high!r} <= 1")
    if w.mode == "direct":
        zeros = rec["zeros_certified"]
        need(hits + zeros + inc == trials,
             f"hits {hits} + zeros {zeros} + inconclusive {inc} != {trials}")
    else:
        mid, tail = rec["mid_hits"], rec["tail_hits"]
        need(mid <= trials and tail <= trials and mid + tail + inc <= 2 * trials,
             f"mid {mid} + tail {tail} + inconclusive {inc} exceed 2*{trials}")
        need(hits == min(mid, tail), f"hits {hits} != min(mid, tail)")

    if w.name == "direct_flat":
        p = flat_hole_probability(w.r)
        sd = math.sqrt(trials * p * (1.0 - p))
        need(abs(hits - trials * p) <= 6.0 * sd + inc,
             f"hits {hits} not within 6 sd ({sd:.1f}) + {inc} of "
             f"n*prod(1-r^2k) = {trials * p:.1f}")
    elif w.name == "direct_steep":
        need(hits == 0, f"hits {hits} != 0 (P[hole] is far below 1/trials)")
        need(rec["zeros_certified"] + inc == trials,
             f"zeros {rec['zeros_certified']} + inconclusive {inc} != {trials}")
    elif w.name == "tilted_steep":
        need(rec["mid_hits"] > 0 and rec["tail_hits"] > 0,
             f"mid_hits {rec['mid_hits']} or tail_hits {rec['tail_hits']} is 0")
        lp = rec.get("log10_p_low")
        need(isinstance(lp, float) and math.isfinite(lp),
             f"log10_p_low {lp!r} is not finite")
    return bad
