"""Command-line front end: configuration, orchestration, deterministic output.

Subcommands
-----------
coeffs        print or write the coefficient sequence of a model
spectrum      circulant eigenvalues of the covariance on a scaled root grid
estimate      hole-probability estimators (direct, threshold_lower, tilted_lower)
envelope      asymptotic guide curves as CSV
oracle-verify run the verifier battery (oracles.standard_reports), JSONL reports
report        join estimate results with envelope curves into one CSV
verify        smoke run: the same battery plus one direct-estimator check
              against the exact flat-model oracle; one PASS/FAIL line per
              check, exit 1 if any fails (the test suite is the full check)
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
per-record wall times, and per record what the kernel did ("kernel"):
for direct estimates the rows the constant-term certificate settled
before the ladder ("constant_term"), the rows the quadratic step settled
after it, holes and non-holes ("quadratic"), the rows a certified zero
inside the inner circle settled ("inner"), at each grid size
("inner_settle_K"), and that circle's radius ("inner_r", null when E N(r)
< 2 and there is no inner pass), the rows the ladder at r decided
("uniform_ladder") and left open ("inconclusive"; the five counts add up
to the trials), the
ladder rows that only the second-order bound decided ("tube"), the rows
still open at the grid cap ("open_at_cap", a subset of inconclusive) and
the ladder rows that left the ladder at r at each grid size
("settle_K"); for the lower-bound
modes, per sup-ladder stream ("sup" for threshold_lower, "middle" and
"tail" for tilted_lower), the "hit", "miss" and "inconclusive" rows, the
hits the moduli screen settled ("screened", a subset of hit) and, over
the rows that ran the ladder only, the hits only the second-order bound
made ("tube_hits"), the grid points evaluated ("grid_points") and the
rows settled at each grid size ("settle_K").
"""

from __future__ import annotations

import argparse
import hashlib
import json
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
    "K_cap": (int, holes.K_CAP_DEFAULT, "grid cap: the ladder stops at its first "
              "level >= K_cap; rows open there are Inconclusive"),
    "c_cfg": (float, None, "lower flat-band constant override"),
    "C_cfg": (float, None, "upper flat-band constant override"),
    "band": (str, "hyperbolic", "envelope family: hyperbolic|decaying|flat"),
    "out": (str, None, "output path (stdout when omitted)"),
    "results": (str, None, "results directory or file for report"),
    "level": (str, "quick", "verify/oracle-verify battery size: quick|full"),
}

_FLAG_KEYS = [k for k in _KEYS if k != "command"]


def _parse_value(key: str, raw) -> object:
    kind = _KEYS[key][0]
    try:
        if raw is None:
            return None
        # int() and float() would read JSON true/false as 1/0 and truncate 2.7
        items = raw if isinstance(raw, (list, tuple)) else [raw]
        if (kind is not str and any(isinstance(x, bool) for x in items)
                or kind is int and isinstance(raw, float) and not raw.is_integer()):
            raise ValueError
        if kind == "floatlist":
            if not isinstance(raw, (list, tuple)):
                items = [x for x in str(raw).split(",") if x != ""]
            if not items:  # an empty list would run no estimate at all
                raise ValueError
            return [float(x) for x in items]
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
# Keys removed from the registry keep their last default in the hash, so
# retiring a key does not change the hash of any configuration.
_RETIRED_KEYS = {"quick": False, "K_init": 8}


def config_hash(resolved: dict) -> str:
    semantic = {**_RETIRED_KEYS, **{k: v for k, v in resolved.items()
                                    if k not in _OPERATIONAL_KEYS}}
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


def _write(body: str, out: Optional[str], **meta) -> None:
    """body to stdout, or to out with the sidecar out.meta.json: the
    timestamp plus each meta entry that is not None."""
    if out is None:
        sys.stdout.write(body)
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(body)
    sidecar = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
    sidecar.update((k, v) for k, v in meta.items() if v is not None)
    with open(out + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_jsonl(rows: List[dict], out: Optional[str],
                wall_times: Optional[List[float]] = None,
                kernel: Optional[List[dict]] = None) -> None:
    _write("".join(_dump_row(r) + "\n" for r in rows), out,
           wall_time_s=wall_times, kernel=kernel)


def write_csv(header: List[str], rows: List[List[object]],
              out: Optional[str]) -> None:
    def fmt(x):
        if x is None:
            return ""
        if isinstance(x, float):
            return repr(x)
        return str(x)
    _write(",".join(header) + "\n" + "".join(
        ",".join(fmt(x) for x in row) + "\n" for row in rows), out)


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
                  fail_exp=cfg["fail_exp"], K_cap=cfg["K_cap"],
                  budget=cfg["budget"],
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
    write_jsonl(rows, cfg["out"], wall_times=walls, kernel=kernels)
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
                # the model's own L where it has one (it is cfg["L"])
                e = envelopes.decaying_band(build_model(cfg), r, L=cfg["L"])
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


def _battery(cfg: dict) -> list:
    """The verifier battery at the configured level (quick|full)."""
    if cfg["level"] not in ("quick", "full"):
        raise ConfigError(f"config key 'level': unknown level {cfg['level']!r}")
    return oracles.standard_reports(seed=cfg["seed"],
                                    quick=cfg["level"] == "quick")


def cmd_oracle_verify(cfg: dict) -> int:
    reports = _battery(cfg)
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
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:  # json.JSONDecodeError is a ValueError
                    rec = json.loads(line)
                    if not (isinstance(rec, dict) and {"mode", "r"} <= rec.keys()):
                        continue
                    model = rec.get("model", {})
                    if not isinstance(model, dict):
                        raise ValueError(f"model must be an object, got {model!r}")
                    # the rows sort by mode, so every mode must be a string
                    if not isinstance(rec["mode"], str):
                        raise ValueError(f"mode must be a string, got "
                                         f"{rec['mode']!r}")
                    L = model.get("L") if model.get("kind") == "Hyperbolic" else None
                    # json gives int or float for a number (bool is neither)
                    if type(rec["r"]) not in (int, float) or type(L) not in (
                            int, float, type(None)):
                        raise ValueError(f"r and L must be numbers, got "
                                         f"{rec['r']!r} and {L!r}")
                except ValueError as exc:
                    raise ConfigError(f"results file {path!r} line {lineno}: {exc}")
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


def _direct_vs_oracle_report() -> oracles.CheckReport:
    """End-to-end smoke check: the direct estimator brackets the exact
    flat-model hole probability with no inconclusive trial (fixed seed,
    so the check cannot fail by chance)."""
    est = holes.estimate_hole_direct(CoefficientModel(kind="Hyperbolic", L=1.0),
                                     0.5, 10000, seed=11)
    oracle = holes.determinantal_hole_probability(0.5)
    return oracles.CheckReport(
        check_id="direct_vs_oracle",
        grid=[{"check": "p_low <= oracle"}, {"check": "oracle <= p_high"},
              {"check": "inconclusive <= 0"}],
        measured=[est.p_low, oracle, float(est.inconclusive)],
        asserted=[oracle, est.p_high, 0.0],
        constants={"L": 1.0, "r": 0.5, "trials": 10000, "seed": 11})


def cmd_verify(cfg: dict) -> int:
    reports = _battery(cfg)
    reports.append(_direct_vs_oracle_report())
    for rep in reports:
        print(f"{'PASS' if rep.passed else 'FAIL'}  {rep.check_id}")
    passed = sum(rep.passed for rep in reports)
    print(f"{passed}/{len(reports)} checks passed")
    return 0 if passed == len(reports) else 1


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


def _flags_parser() -> argparse.ArgumentParser:
    """The flags every subcommand takes, for argparse's parents=[...]."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--config", default=None, metavar="FILE",
                       help="flat JSON config file")
    for key in _FLAG_KEYS:
        kind, default, help_text = _KEYS[key]
        flag = "--" + key.replace("_", "-")
        flags.add_argument(flag, dest=key, default=None,
                           help=f"{help_text} (default {default!r})")
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gafholes",
        description="hole-probability toolkit for Gaussian Taylor series "
                    "on the unit disk")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    flags = _flags_parser()
    for name in _COMMANDS:
        subs.add_parser(name, parents=[flags])
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
