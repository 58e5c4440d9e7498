"""One benchmark repetition in a fresh interpreter.

    python3 bench/child.py WORKLOAD SEED TRIALS OUT TRACE

Imports gafholes.cli (timed: this is the set-up a CLI user pays), runs one
``estimate`` through ``cli.main`` with a single worker, checks the record it
wrote and prints one JSON line with the timings, peak RSS, record hash and
check results.  With TRACE=1 the estimate path is traced first and the spans
and counts are written to OUT.trace.json when the estimate has finished.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def main(argv) -> int:
    name, seed, trials, out, trace_on = argv
    seed, trials, trace_on = int(seed), int(trials), trace_on == "1"
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, check_record
    w = WORKLOADS[name]

    t0 = time.perf_counter()
    import gafholes.cli as cli
    setup_s = time.perf_counter() - t0

    from gafholes import gaf, holes, rng
    from gafholes.coeffs import hyperbolic
    tracer = None
    if trace_on:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer, cli, holes, gaf, rng)
    t1 = time.perf_counter()
    rc = cli.main(w.estimate_argv(seed, trials, out))
    t2 = time.perf_counter()
    written_at = time.monotonic()
    if tracer is not None:
        tracer.restore()
        with open(out + ".trace.json", "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if rc != 0:
        problems = [f"cli.main returned {rc}"]
        rec, digest = {}, None
    else:
        with open(out, "rb") as fh:
            body = fh.read()
        digest = hashlib.sha256(body).hexdigest()
        lines = body.decode().splitlines()
        rec = json.loads(lines[0]) if len(lines) == 1 else {}
        model = hyperbolic(w.L)
        N_t = gaf.truncation_degree(model, w.r, gaf.DEFAULT_TAU_REL)
        if w.mode == "tilted_lower":
            N_t = max(N_t, holes.tilt_profile(model, w.r)[1] + 1)
        problems = ([] if len(lines) == 1 else [f"{len(lines)} records, want 1"])
        problems += check_record(w, rec, seed, trials, N_t)

    import numpy
    import scipy
    print(json.dumps({
        "setup_s": setup_s, "estimate_s": t2 - t1, "written_at": written_at,
        "peak_rss_mb": peak_rss_mb, "records_sha256": digest,
        "record": rec, "problems": problems,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
