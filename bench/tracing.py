"""In-memory span tracer for the estimate path, and the per-layer metrics.

The tracer wraps public functions at each module boundary by replacing the
name where the caller looks it up (for example ``holes.evaluate_on_grid``,
the name the decision kernel calls), so the package source is not edited.
A span is (name, start_ns, end_ns, parent index); counts are recorded at the
same boundaries.  Both stay in memory until the traced process writes them.

Layer self time is a span's duration minus the durations of its direct child
spans.  The estimate runs in one thread, so child spans never overlap.
"""

from __future__ import annotations

import time
from collections import Counter

SMALL_K = 256                       # split of evaluate_on_grid time by grid size
LADDER_KS = [1 << k for k in range(3, 21)]   # K_init = 8 up to K_cap = 2^20
COMPLEX_BYTES = 16
MB = float(1 << 20)


class Tracer:
    def __init__(self):
        self.spans = []             # [name, start_ns, end_ns, parent]
        self.counts = Counter()
        self._stack = []
        self._patched = []

    def wrap(self, owner, attr: str, name: str, on_call=None):
        """Replace owner.attr by a recording wrapper named `name`."""
        fn = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_call is not None:
                on_call(self.counts, args, out, span[2] - span[1])
            return out

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, fn))

    def restore(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()


def _count_grid(counts, args, out, dur_ns):
    coeff_rows, points = args[0], args[1]
    rows, n1 = coeff_rows.shape
    K = len(points)
    counts["gaf.evaluate_on_grid.points"] += rows * K
    counts["gaf.evaluate_on_grid.madds"] += rows * K * (n1 - 1)
    key = f"rows_K{K}" if K in LADDER_KS else "rows_K_other"
    counts["gaf.evaluate_on_grid." + key] += rows
    counts["gaf.evaluate_on_grid.ns_small_K" if K <= SMALL_K
           else "gaf.evaluate_on_grid.ns_large_K"] += dur_ns
    grid = rows * K * COMPLEX_BYTES
    if grid > counts["gaf.evaluate_on_grid.max_grid_bytes"]:
        counts["gaf.evaluate_on_grid.max_grid_bytes"] = grid


def _count_rows(counts, args, out, dur_ns):
    counts["gaf.sample_coeff_batch.rows"] += out.shape[0]


def _count_draws(counts, args, out, dur_ns):
    counts["rng.complex_gaussians.draws"] += out.size


def install(tracer: Tracer, cli, holes, gaf, rng) -> None:
    """Wrap every boundary on the estimate path (cli -> holes -> gaf/rng/coeffs)."""
    tracer.wrap(cli, "main", "cli.main")
    for est in ("estimate_hole_direct", "estimate_hole_lower_tilted"):
        tracer.wrap(holes, est, "holes.estimate")
    tracer.wrap(holes, "tilt_profile", "holes.tilt_profile")
    tracer.wrap(holes, "wilson_interval", "holes.wilson_interval")
    tracer.wrap(holes, "evaluate_on_grid", "gaf.evaluate_on_grid", _count_grid)
    tracer.wrap(holes, "sample_coeff_batch", "gaf.sample_coeff_batch", _count_rows)
    for fn in ("derivative_sup_bound_rows", "truncation_degree", "tail_sup_bound"):
        tracer.wrap(holes, fn, "gaf." + fn)
    tracer.wrap(rng, "stream_key", "rng.stream_key")
    tracer.wrap(rng, "complex_gaussians", "rng.complex_gaussians", _count_draws)
    for fn in ("coefficients", "log_sq_block", "log_sq_at", "sigma_sq"):
        tracer.wrap(gaf, fn, "coeffs." + fn)
    tracer.wrap(holes, "log_sq_range", "coeffs.log_sq_range")


def span_times(spans) -> dict:
    """{span name: [total seconds, self seconds, calls]}."""
    child_ns = [0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    out = {}
    for (name, t0, t1, _), kids in zip(spans, child_ns):
        acc = out.setdefault(name, [0.0, 0.0, 0])
        acc[0] += (t1 - t0) * 1e-9
        acc[1] += (t1 - t0 - kids) * 1e-9
        acc[2] += 1
    return out


def layer_metrics(spans, counts: dict, trials: int) -> dict:
    """Per-layer values of one traced estimate (trace.overhead_frac excluded)."""
    t = span_times(spans)

    def total(name):
        return t.get(name, [0.0, 0.0, 0])[0]

    def self_s(name):
        return t.get(name, [0.0, 0.0, 0])[1]

    def calls(name):
        return t.get(name, [0.0, 0.0, 0])[2]

    grid_s = total("gaf.evaluate_on_grid")
    gauss_s = total("rng.complex_gaussians")
    m = {
        "cli.self_s": self_s("cli.main"),
        "holes.self_s": self_s("holes.estimate") + self_s("holes.tilt_profile"),
        "holes.tilt_profile.s": total("holes.tilt_profile"),
        "holes.wilson_interval.calls": calls("holes.wilson_interval"),
        "holes.wilson_interval.s": total("holes.wilson_interval"),
        "gaf.evaluate_on_grid.calls": calls("gaf.evaluate_on_grid"),
        "gaf.evaluate_on_grid.s": grid_s,
        "gaf.evaluate_on_grid.s_small_K":
            counts.get("gaf.evaluate_on_grid.ns_small_K", 0) * 1e-9,
        "gaf.evaluate_on_grid.s_large_K":
            counts.get("gaf.evaluate_on_grid.ns_large_K", 0) * 1e-9,
        "gaf.evaluate_on_grid.max_grid_mb":
            counts.get("gaf.evaluate_on_grid.max_grid_bytes", 0) / MB,
        "gaf.sample_coeff_batch.s": self_s("gaf.sample_coeff_batch"),
        "gaf.derivative_sup_bound_rows.calls": calls("gaf.derivative_sup_bound_rows"),
        "gaf.derivative_sup_bound_rows.s": total("gaf.derivative_sup_bound_rows"),
        "gaf.truncation_degree.s": total("gaf.truncation_degree"),
        "gaf.tail_sup_bound.s": total("gaf.tail_sup_bound"),
        "rng.complex_gaussians.s": gauss_s,
        "rng.stream_key.s": total("rng.stream_key"),
        "coeffs.s": sum(v[0] for k, v in t.items() if k.startswith("coeffs.")),
    }
    for name in ["gaf.evaluate_on_grid.points", "gaf.evaluate_on_grid.madds",
                 "gaf.sample_coeff_batch.rows", "rng.complex_gaussians.draws",
                 "gaf.evaluate_on_grid.rows_K_other",
                 *(f"gaf.evaluate_on_grid.rows_K{K}" for K in LADDER_KS)]:
        m[name] = counts.get(name, 0)
    m["gaf.evaluate_on_grid.points_per_trial"] = \
        m["gaf.evaluate_on_grid.points"] / trials
    m["gaf.evaluate_on_grid.madds_per_s"] = \
        m["gaf.evaluate_on_grid.madds"] / grid_s if grid_s > 0 else 0.0
    m["rng.complex_gaussians.draws_per_s"] = \
        m["rng.complex_gaussians.draws"] / gauss_s if gauss_s > 0 else 0.0
    return m
