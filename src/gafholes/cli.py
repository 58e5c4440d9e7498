"""Command-line front end: configuration, orchestration, deterministic output.

Subcommands
-----------
coeffs        print or write the coefficient sequence of a model
spectrum      circulant eigenvalues of the covariance on a scaled root grid
estimate      hole-probability estimators (direct, threshold_lower, tilted_lower)
envelope      asymptotic guide curves as CSV
oracle-verify run the special-function verifier battery, JSONL reports
report        join estimate results with envelope curves into one CSV
verify        self-check suite (quick: identities; full: adds Monte Carlo)
defaults      print every configurable default as JSON

Configuration is a flat JSON file (--config) holding any subset of the
known keys; explicit command-line flags win over the file, the file wins
over built-in defaults.  Unknown keys are rejected by name.  The
environment variable GAFHOLES_SEED overrides the built-in default seed
only; a seed from the file or the command line always wins.

Determinism contract: the data outputs (JSONL rows, CSV bodies) are
byte-identical across reruns with the same resolved configuration, at any
worker count.  Wall-clock information never enters the data files; each
data file gets a sidecar <out>.meta.json holding the timestamp and
per-record wall times; direct estimates add, per record, how many rows
each path of the decision kernel settled ("kernel": zero_first,
uniform_ladder, adaptive, inconclusive).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from . import __version__
from . import envelopes, gaf, holes, oracles, spectra
from .coeffs import (
    CoefficientModel,
    coefficients,
    log_sq_range,
    sigma_sq,
)
from .errors import ConfigError, GafHolesError, PreAsymptotic

ENV_SEED = "GAFHOLES_SEED"

# key -> (parser, default, help); the single flat namespace shared by the
# config file and the command line.
_KEYS: Dict[str, tuple] = {
    "command": (str, None, "subcommand name (informational in config files)"),
    "model": (str, "Hyperbolic", "model kind: Hyperbolic|PowerLaw|ConstantUnit|Explicit"),
    "L": (float, 1.0, "intensity parameter for Hyperbolic/PowerLaw"),
    "explicit_seq": ("floatlist", None, "coefficients a_n for the Explicit kind"),
    "r": ("floatlist", [0.5], "radius or comma-separated radius grid"),
    "N": (int, 16, "number of grid points for spectrum"),
    "n_max": (int, 16, "largest coefficient index for coeffs"),
    "mode": (str, "direct", "estimator: direct|threshold_lower|tilted_lower"),
    "trials": (int, 1024, "Monte Carlo trials"),
    "seed": (int, 0, "base seed for all streams"),
    "confidence": (float, 0.99, "two-sided interval confidence"),
    "workers": (int, 1, "parallel workers for trial batches"),
    "M": (float, None, "threshold override for threshold_lower"),
    "eps": (float, 0.05, "threshold slack for L < 1"),
    "B": (float, 3.0, "threshold multiplier for L = 1"),
    "alpha_exp": (float, 0.75, "threshold log-exponent for L > 1"),
    "alpha1": (float, None, "tilt amplitude override (None = automatic)"),
    "fail_exp": (float, gaf.DEFAULT_FAIL_EXP, "tail failure budget exponent"),
    "tau_rel": (float, gaf.DEFAULT_TAU_REL, "relative truncation tolerance"),
    "budget": (float, holes.DEFAULT_COMPUTE_BUDGET, "trials*N_t compute cap"),
    "K_init": (int, holes.K_INIT_DEFAULT, "initial certification grid size"),
    "K_cap": (int, holes.K_CAP_DEFAULT, "certification grid size cap"),
    "c_cfg": (float, None, "lower band/defect constant override"),
    "C_cfg": (float, None, "upper band/defect constant override"),
    "band": (str, "hyperbolic", "envelope family: hyperbolic|decaying|flat"),
    "out": (str, None, "output path (stdout when omitted)"),
    "results": (str, None, "results directory or file for report"),
    "level": (str, "quick", "verify level: quick|full"),
    "quick": (bool, False, "oracle-verify: smaller Monte Carlo sizes"),
}

_FLAG_KEYS = [k for k in _KEYS if k != "command"]


def _parse_value(key: str, raw) -> object:
    kind = _KEYS[key][0]
    try:
        if raw is None:
            return None
        if kind == "floatlist":
            if isinstance(raw, (list, tuple)):
                return [float(x) for x in raw]
            return [float(x) for x in str(raw).split(",") if x != ""]
        if kind is bool:
            if isinstance(raw, bool):
                return raw
            if str(raw).lower() in ("1", "true", "yes"):
                return True
            if str(raw).lower() in ("0", "false", "no"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r}")


def load_config_file(path: str) -> dict:
    """Flat JSON config; every key checked against the registry."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config file {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path!r} must hold a flat JSON object")
    out = {}
    for key, raw in data.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        out[key] = _parse_value(key, raw)
    return out


def resolve_config(command: str, cli_values: dict,
                   file_values: dict) -> dict:
    """Merge CLI > file > env (seed only) > defaults into one dict."""
    if file_values.get("command") not in (None, command):
        raise ConfigError(
            f"config key 'command' says {file_values['command']!r} "
            f"but the {command!r} subcommand was invoked")
    resolved = {"command": command}
    for key in _FLAG_KEYS:
        if cli_values.get(key) is not None:
            resolved[key] = cli_values[key]
        elif key in file_values:
            resolved[key] = file_values[key]
        elif key == "seed" and os.environ.get(ENV_SEED) is not None:
            resolved[key] = _parse_value("seed", os.environ[ENV_SEED])
        else:
            resolved[key] = _KEYS[key][1]
    return resolved


# Keys that steer where and how fast work happens without changing what is
# computed.  They stay out of the hash so that reruns to a different path,
# or at a different worker count, produce byte-identical payloads.
_OPERATIONAL_KEYS = ("out", "results", "workers")


def config_hash(resolved: dict) -> str:
    semantic = {k: v for k, v in resolved.items()
                if k not in _OPERATIONAL_KEYS}
    blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def build_model(cfg: dict) -> CoefficientModel:
    kind = cfg["model"]
    if kind == "Explicit":
        if not cfg.get("explicit_seq"):
            raise ConfigError("config key 'explicit_seq' is required for Explicit")
        return CoefficientModel(kind="Explicit",
                                explicit_seq=tuple(cfg["explicit_seq"]))
    if kind == "ConstantUnit":
        return CoefficientModel(kind="ConstantUnit")
    if kind in ("Hyperbolic", "PowerLaw"):
        return CoefficientModel(kind=kind, L=cfg["L"])
    raise ConfigError(f"config key 'model': unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------

def _dump_row(row: dict) -> str:
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def write_jsonl(rows: List[dict], out: Optional[str],
                wall_times: Optional[List[float]] = None,
                kernel: Optional[List[dict]] = None) -> None:
    body = "".join(_dump_row(r) + "\n" for r in rows)
    if out is None:
        sys.stdout.write(body)
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(body)
    _write_sidecar(out, wall_times, kernel)


def write_csv(header: List[str], rows: List[List[object]],
              out: Optional[str]) -> None:
    def fmt(x):
        if x is None:
            return ""
        if isinstance(x, float):
            return repr(x)
        return str(x)
    body = ",".join(header) + "\n" + "".join(
        ",".join(fmt(x) for x in row) + "\n" for row in rows)
    if out is None:
        sys.stdout.write(body)
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(body)
    _write_sidecar(out, None)


def _write_sidecar(out: str, wall_times: Optional[List[float]],
                   kernel: Optional[List[dict]] = None) -> None:
    meta = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
    if wall_times is not None:
        meta["wall_time_s"] = wall_times
    if kernel is not None:
        meta["kernel"] = kernel
    with open(out + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _provenance(cfg: dict, streams: Optional[List[int]] = None) -> dict:
    p = {"config_hash": config_hash(cfg), "version": __version__,
         "seed": cfg["seed"]}
    if streams is not None:
        p["streams"] = streams
    return p


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_coeffs(cfg: dict) -> int:
    model = build_model(cfg)
    n_max = cfg["n_max"]
    a = coefficients(model, n_max)
    log_sq = log_sq_range(model, n_max)
    rows = []
    prov = _provenance(cfg)
    for n in range(n_max + 1):
        rows.append({"n": n, "a_n": float(a[n]),
                     "log_a_sq": float(log_sq[n]), **prov})
    for r in cfg["r"]:
        rows.append({"r": r, "sigma_sq": sigma_sq(model, r),
                     "model": model.describe(), **prov})
    write_jsonl(rows, cfg["out"])
    return 0


def cmd_spectrum(cfg: dict) -> int:
    model = build_model(cfg)
    rows = []
    prov = _provenance(cfg)
    for r in cfg["r"]:
        sp = spectra.circulant_eigenvalues(model, r, cfg["N"])
        for m in range(cfg["N"]):
            rows.append({"r": r, "m": m, "lambda": float(sp.lambdas[m]),
                         "log_lambda": float(sp.log_lambdas[m]), **prov})
        rows.append({"r": r, "N": cfg["N"], "log_det": sp.log_det,
                     "Lambda_max": sp.Lambda_max,
                     "trace": float(np.sum(sp.lambdas)),
                     "model": model.describe(), **prov})
    write_jsonl(rows, cfg["out"])
    return 0


def _run_one_estimate(cfg: dict, model: CoefficientModel,
                      r: float) -> holes.HoleEstimate:
    common = dict(trials=cfg["trials"], seed=cfg["seed"],
                  confidence=cfg["confidence"], tau_rel=cfg["tau_rel"],
                  fail_exp=cfg["fail_exp"], K_init=cfg["K_init"],
                  K_cap=cfg["K_cap"], budget=cfg["budget"],
                  workers=cfg["workers"])
    if cfg["mode"] == "direct":
        return holes.estimate_hole_direct(model, r, **common)
    if cfg["mode"] == "threshold_lower":
        return holes.estimate_hole_lower_threshold(
            model, r, M=cfg["M"], eps=cfg["eps"], B=cfg["B"],
            alpha_exp=cfg["alpha_exp"], **common)
    if cfg["mode"] == "tilted_lower":
        return holes.estimate_hole_lower_tilted(
            model, r, alpha_exp=cfg["alpha_exp"], alpha1=cfg["alpha1"],
            **common)
    raise ConfigError(f"config key 'mode': unknown estimator {cfg['mode']!r}")


def cmd_estimate(cfg: dict) -> int:
    model = build_model(cfg)
    rows, walls, kernels = [], [], []
    for r in cfg["r"]:
        t0 = time.perf_counter()
        est = _run_one_estimate(cfg, model, r)
        walls.append(time.perf_counter() - t0)
        kernels.append(est.kernel)
        row = est.to_record()
        row.update(_provenance(cfg, streams=[0, cfg["trials"]]))
        rows.append(row)
    write_jsonl(rows, cfg["out"], wall_times=walls,
                kernel=kernels if any(kernels) else None)
    return 0


def cmd_envelope(cfg: dict) -> int:
    rows = []
    import warnings
    for r in cfg["r"]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PreAsymptotic)
            if cfg["band"] == "hyperbolic":
                e = envelopes.hyperbolic_envelope(cfg["L"], r)
            elif cfg["band"] == "decaying":
                e = envelopes.decaying_band(build_model(cfg), r)
            elif cfg["band"] == "flat":
                e = envelopes.flat_band(
                    r,
                    c_cfg=cfg["c_cfg"] if cfg["c_cfg"] is not None
                    else envelopes.FLAT_BAND_C_LOW,
                    C_cfg=cfg["C_cfg"] if cfg["C_cfg"] is not None
                    else envelopes.FLAT_BAND_C_HIGH)
            else:
                raise ConfigError(f"config key 'band': unknown {cfg['band']!r}")
        rows.append([e.L, e.r, e.regime, e.lower, e.upper])
    write_csv(["L", "r", "regime", "lower", "upper"], rows, cfg["out"])
    return 0


def cmd_oracle_verify(cfg: dict) -> int:
    reports = oracles.standard_reports(seed=cfg["seed"], quick=cfg["quick"])
    rows = [rep.to_record() for rep in reports]
    write_jsonl(rows, cfg["out"])
    failed = [rep.check_id for rep in reports if not rep.passed]
    if failed:
        print("FAILED checks: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


def cmd_report(cfg: dict) -> int:
    if cfg["results"] is None:
        raise ConfigError("config key 'results' is required for report")
    paths = []
    if os.path.isdir(cfg["results"]):
        for name in sorted(os.listdir(cfg["results"])):
            if name.endswith(".jsonl"):
                paths.append(os.path.join(cfg["results"], name))
    elif os.path.exists(cfg["results"]):
        paths.append(cfg["results"])
    else:
        raise ConfigError(f"config key 'results': no such path {cfg['results']!r}")
    rows = []
    import warnings
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                if "mode" not in rec or "r" not in rec:
                    continue
                model = rec.get("model", {})
                L = model.get("L") if model.get("kind") == "Hyperbolic" else None
                lo = hi = regime = None
                if L is not None:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", PreAsymptotic)
                        env = envelopes.hyperbolic_envelope(L, rec["r"])
                    lo, hi, regime = env.lower, env.upper, env.regime
                rows.append([L, rec["r"], rec["mode"], rec.get("trials"),
                             rec.get("p_low"), rec.get("p_high"),
                             lo, hi, regime])
    rows.sort(key=lambda row: (row[0] is None, row[0], row[1], row[2]))
    write_csv(["L", "r", "mode", "trials", "p_low", "p_high",
               "envelope_lower", "envelope_upper", "regime"], rows, cfg["out"])
    return 0


def cmd_defaults(_cfg: dict) -> int:
    table = {k: _KEYS[k][1] for k in _FLAG_KEYS}
    table.update({
        "flat_band_c_low": envelopes.FLAT_BAND_C_LOW,
        "flat_band_C_high": envelopes.FLAT_BAND_C_HIGH,
        "contraction_c_low": oracles.DEFAULT_CONTRACTION_C_LOW,
        "contraction_C_high": oracles.DEFAULT_CONTRACTION_C_HIGH,
        "sup_moment_C": oracles.DEFAULT_SUP_C,
        "defect_C": oracles.DEFAULT_DEFECT_C,
        "dense_size_cap": spectra.DENSE_SIZE_CAP,
        "version": __version__,
    })
    print(json.dumps(table, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# verify suite
# ---------------------------------------------------------------------------

class _Suite:
    def __init__(self):
        self.rows = []
        self.failed = 0

    def check(self, name: str, measured, expected: str, ok: bool):
        self.rows.append((name, measured, expected, ok))
        if not ok:
            self.failed += 1

    def print_table(self):
        width = max(len(r[0]) for r in self.rows) + 2
        for name, measured, expected, ok in self.rows:
            status = "PASS" if ok else "FAIL"
            print(f"{status}  {name:<{width}} measured={measured!r:<24} "
                  f"expected {expected}")
        print(f"{len(self.rows) - self.failed}/{len(self.rows)} checks passed")


def _verify_quick(suite: _Suite) -> None:
    import scipy.special as sps
    from scipy.integrate import quad

    # variance closed form
    worst = 0.0
    for L in (0.5, 1.0, 2.0, 5.0):
        m = CoefficientModel(kind="Hyperbolic", L=L)
        for r in (0.3, 0.6, 0.9, 0.99):
            exact = (1 - r * r) ** -L
            worst = max(worst, abs(sigma_sq(m, r) - exact) / exact)
    suite.check("variance_closed_form", worst, "<= 1e-10", worst <= 1e-10)

    # circulant spectrum residual and trace
    m = CoefficientModel(kind="Hyperbolic", L=1.5)
    sp = spectra.circulant_eigenvalues(m, 0.7, 16)
    sig = spectra.covariance_matrix(m, 0.7, 16)
    fre = 0.0
    for idx in range(16):
        u = np.exp(2j * np.pi * idx * np.arange(16) / 16) / math.sqrt(16)
        fre = max(fre, float(np.linalg.norm(sig @ u - sp.lambdas[idx] * u)))
    suite.check("spectrum_residual", fre, "<= 1e-9*Lambda",
                fre <= 1e-9 * sp.Lambda_max)
    tr = abs(float(np.sum(sp.lambdas)) - 16 * sigma_sq(m, 0.7))
    suite.check("spectrum_trace", tr, "<= 1e-10*trace",
                tr <= 1e-10 * 16 * sigma_sq(m, 0.7))

    # flat-model eigenvalue closed form
    m1 = CoefficientModel(kind="Hyperbolic", L=1.0)
    sp = spectra.circulant_eigenvalues(m1, 0.6, 8)
    lam = 8 * 0.6 ** (2 * np.arange(8)) / (1 - 0.6 ** 16)
    err = float(np.max(np.abs(sp.lambdas - lam) / lam))
    suite.check("flat_eigen_closed_form", err, "<= 1e-12", err <= 1e-12)

    # splitting identity
    m05 = CoefficientModel(kind="Hyperbolic", L=0.5)
    split = spectra.split_coefficients(m05, 0.9, 8)
    a = coefficients(m05, 7)[1:]
    ident = float(np.max(np.abs(split.b ** 2 + split.d ** 2 - a ** 2)
                         / a ** 2))
    suite.check("split_identity", ident, "<= 1e-12", ident <= 1e-12)
    gap, head = spectra.split_variance_gap(m05, 0.9, 8)
    direct = sigma_sq(m05, 0.9) - split.sigma_g1_sq
    suite.check("split_gap_identity", abs(gap - direct),
                "<= 1e-10*gap", abs(gap - direct) <= 1e-10 * gap)

    # E1 against the library implementation
    xs = np.concatenate([np.linspace(0.01, 1, 25), np.linspace(1.1, 30, 25)])
    worst = max(abs(oracles.exp_integral_e1(float(x)) - float(sps.exp1(x)))
                / float(sps.exp1(x)) for x in xs)
    suite.check("exp_integral_vs_library", worst, "<= 1e-12", worst <= 1e-12)

    # negative-moment quadrature scaling identity
    worst = 0.0
    for th in (0.2, 0.5, 1.0, 1.5):
        for t in (0.5, 1.0, 3.0):
            got = oracles.neg_moment_quadrature(th, t, 0.0)
            exact = t ** th * oracles.neg_moment_exact(th)
            worst = max(worst, abs(got - exact))
    suite.check("neg_moment_scaling", worst, "<= 1e-8", worst <= 1e-8)

    # log-moment identity and strict lower bound
    worst = 0.0
    ok_margin = True
    for t in (0.1, 1.0, 3.0):
        exact = oracles.log_abs_moment_exact(t)
        indep, _ = quad(lambda s, t=t: 2 * s * math.exp(-s * s)
                        * math.log(s / t), t, t + 30.0)
        worst = max(worst, abs(exact - indep))
        ok_margin &= exact > math.exp(-t * t) / (2 * (t * t + 1))
    suite.check("log_moment_identity", worst, "<= 1e-8", worst <= 1e-8)
    suite.check("log_moment_margin", ok_margin, "strict inequality", ok_margin)

    # averaging defect
    d = oracles.unity_average_defect([1.0, 0.5], 4)
    suite.check("defect_example", d, "<= 0.625", d <= 0.625)
    ok = all(oracles.unity_average_defect([1.0, -1.0], k) <= 10 / k ** 2
             for k in (4, 8, 16))
    suite.check("defect_hard_case", ok, "D <= 10/k^2", ok)

    # envelope spot values
    e = envelopes.hyperbolic_envelope(1.0, 0.9)
    suite.check("envelope_crit_value", e.lower, "pi^2/1.2",
                abs(e.lower - math.pi ** 2 / 1.2) < 1e-12)
    b = envelopes.flat_band(0.9)
    suite.check("flat_band_value", (b.lower, b.upper), "(1, 100)",
                abs(b.lower - 1) < 1e-12 and abs(b.upper - 100) < 1e-10)

    # determinantal oracle vs direct partial product
    prod = 1.0
    for k in range(1, 200):
        prod *= 1 - 0.5 ** (2 * k)
    got = holes.determinantal_hole_probability(0.5)
    suite.check("determinantal_product", got, "brute-force product",
                abs(got - prod) / prod <= 1e-12)

    # certified decisions on known inputs
    s_const = gaf.GafSample(model=CoefficientModel(kind="ConstantUnit"),
                            trunc_degree=0,
                            coeffs=np.asarray([1.0 + 0.0j]), seed=0,
                            stream_id=0)
    dec = holes.hole_decision(s_const, 0.5, 0.1)
    suite.check("decision_constant", dec.outcome, "HoleCertified",
                dec.outcome == holes.OUTCOME_HOLE)
    s_root = gaf.GafSample(model=CoefficientModel(kind="ConstantUnit"),
                           trunc_degree=1,
                           coeffs=np.asarray([-0.1 + 0.0j, 1.0 + 0.0j]),
                           seed=0, stream_id=0)
    dec = holes.hole_decision(s_root, 0.5, 0.05)
    suite.check("decision_single_root", (dec.outcome, dec.zero_count),
                "ZeroCertified(1)",
                dec.outcome == holes.OUTCOME_ZERO and dec.zero_count == 1)


def _sampler_variance_check(rows: np.ndarray):
    """(mean |c_n|^2 over n >= 1, whether it is in (0.9, 1.1)) for L = 1 rows."""
    var = float(np.mean(np.abs(rows[:, 1:]) ** 2))
    return var, 0.9 < var < 1.1


def _verify_full(suite: _Suite) -> None:
    m1 = CoefficientModel(kind="Hyperbolic", L=1.0)

    # direct estimator against the exact oracle
    est = holes.estimate_hole_direct(m1, 0.5, 10000, seed=11)
    oracle = holes.determinantal_hole_probability(0.5)
    ok = est.p_low <= oracle <= est.p_high
    suite.check("direct_vs_oracle", (est.p_low, est.p_high),
                f"contains {oracle:.5f}", ok)
    suite.check("direct_inconclusive", est.inconclusive, "<= 10",
                est.inconclusive <= 10)

    # threshold lower bound sits below the truth
    est = holes.estimate_hole_lower_threshold(m1, 0.5, 4096, seed=12, M=2.0)
    suite.check("threshold_below_oracle", est.p_low, f"<= {oracle:.5f}",
                est.p_low <= oracle)

    # tilted lower bound consistent with direct upper bound
    m2 = CoefficientModel(kind="Hyperbolic", L=2.0)
    tilt = holes.estimate_hole_lower_tilted(m2, 0.9, 512, seed=13)
    direct = holes.estimate_hole_direct(m2, 0.9, 2048, seed=14)
    suite.check("tilted_below_direct_upper",
                (tilt.metadata.get("log10_p_low"), direct.p_high),
                "p_low <= p_high", tilt.p_low <= direct.p_high)
    suite.check("tilted_blocks_nonzero",
                (tilt.metadata["mid_hits"], tilt.metadata["tail_hits"]),
                "> 0 hits in both blocks",
                tilt.metadata["mid_hits"] > 0 and tilt.metadata["tail_hits"] > 0)

    # coupling laws
    hits = 0
    trials = 20000
    for i in range(trials):
        _, ok_i = oracles.gaussian_coupling_sample(0.6, 77, i)
        hits += ok_i
    p = hits / trials
    se = math.sqrt(p * (1 - p) / trials)
    suite.check("coupling_event_probability", p,
                "within 4 SE of 0.36", abs(p - 0.36) <= 4 * se)

    q2 = 0.9 ** 10
    hits = 0
    trials = 5000
    b = np.ones(5)
    c = np.full(5, 0.9)
    for i in range(trials):
        _, ok_i = oracles.gaf_coupling_sample(b, c, 4, 78, i)
        hits += ok_i
    p = hits / trials
    se = math.sqrt(q2 * (1 - q2) / trials)
    suite.check("gaf_coupling_probability", p,
                f"within 4 SE of {q2:.4f}", abs(p - q2) <= 4 * se)

    # splitting empirical covariance (small grid)
    m05 = CoefficientModel(kind="Hyperbolic", L=0.5)
    split = spectra.split_coefficients(m05, 0.9, 8)
    g, g1, _ = spectra.split_sample_batch(split, 40, 5, np.arange(4000))
    pts = 0.9 * np.exp(2j * np.pi * np.arange(8) / 8)
    vals = gaf.evaluate_on_grid(g1, pts)
    emp = (vals.conj().T @ vals) / len(vals)
    target = split.sigma_g1_sq
    diag_rel = float(np.max(np.abs(np.real(np.diag(emp)) - target) / target))
    suite.check("split_diag_variance", diag_rel, "<= 0.1 (4000 samples)",
                diag_rel <= 0.1)
    off = emp / target
    np.fill_diagonal(off, 0)
    off_max = float(np.max(np.abs(off)))
    suite.check("split_offdiag_correlation", off_max,
                "<= 4/sqrt(4000)+slack", off_max <= 4 / math.sqrt(4000) + 0.02)

    # sampler variance, with an all-zero batch as its negative control
    rows = gaf.sample_coeff_batch(m1, 3, np.arange(64), 10)
    var, ok = _sampler_variance_check(rows)
    var_z, ok_z = _sampler_variance_check(np.zeros_like(rows))
    suite.check("negative_control_detected", var_z,
                "variance check fails on all-zero coefficients", not ok_z)
    suite.check("sampler_variance", var, "in (0.9, 1.1)", ok)


def cmd_verify(cfg: dict) -> int:
    if cfg["level"] not in ("quick", "full"):
        raise ConfigError(f"config key 'level': unknown level {cfg['level']!r}")
    suite = _Suite()
    _verify_quick(suite)
    if cfg["level"] == "full":
        _verify_full(suite)
    suite.print_table()
    return 1 if suite.failed else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_COMMANDS: Dict[str, Callable[[dict], int]] = {
    "coeffs": cmd_coeffs,
    "spectrum": cmd_spectrum,
    "estimate": cmd_estimate,
    "envelope": cmd_envelope,
    "oracle-verify": cmd_oracle_verify,
    "report": cmd_report,
    "verify": cmd_verify,
    "defaults": cmd_defaults,
}


def _add_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default=None, metavar="FILE",
                     help="flat JSON config file")
    for key in _FLAG_KEYS:
        kind, default, help_text = _KEYS[key]
        flag = "--" + key.replace("_", "-")
        if kind is bool:
            sub.add_argument(flag, dest=key, action="store_const", const=True,
                             default=None, help=help_text)
        else:
            sub.add_argument(flag, dest=key, default=None,
                             help=f"{help_text} (default {default!r})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gafholes",
        description="hole-probability toolkit for Gaussian Taylor series "
                    "on the unit disk")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub = subs.add_parser(name)
        _add_flags(sub)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cli_values = {k: _parse_value(k, getattr(args, k))
                      for k in _FLAG_KEYS if getattr(args, k, None) is not None}
        file_values = load_config_file(args.config) if args.config else {}
        cfg = resolve_config(args.command, cli_values, file_values)
        return _COMMANDS[args.command](cfg)
    except GafHolesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
