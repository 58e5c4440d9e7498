"""Command line interface: records, config precedence, determinism."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from gafholes import cli, envelopes, oracles, spectra
from gafholes.coeffs import explicit, hyperbolic

# One full output line, frozen byte for byte.  The payload is a pure
# function of the semantic config, so any drift here means either the
# estimator or the serialization changed behavior.
FROZEN_ESTIMATE_LINE = (
    '{"M":null,"N_t":26,"certificate_failure_budget":3.7897066415028656e-11,'
    '"confidence":0.99,"config_hash":"32ef8fa85bca99a4","fail_exp":30.0,'
    '"hits":178,"inconclusive":0,"mode":"direct",'
    '"model":{"L":1.0,"kind":"Hyperbolic"},"p_high":0.7637019506393942,'
    '"p_low":0.6170547625551736,"r":0.5,"seed":1,"streams":[0,256],'
    '"tail_bound":8.427397834823821e-08,"tau_rel":1e-08,"trials":256,'
    '"version":"0.1.0","zeros_certified":78}'
)

ESTIMATE_ARGS = ["estimate", "--model", "Hyperbolic", "--L", "1", "--r", "0.5",
                 "--mode", "direct", "--trials", "256", "--seed", "1"]


def test_estimate_record_frozen(tmp_path):
    out = tmp_path / "est.jsonl"
    assert cli.main(ESTIMATE_ARGS + ["--out", str(out)]) == 0
    assert out.read_text() == FROZEN_ESTIMATE_LINE + "\n"


# The same for the two lower-bound modes, with the sidecar's kernel counters
# (as sorted-key compact JSON).
FROZEN_LOWER_BOUNDS = {
    "threshold_lower": (
        ["estimate", "--model", "Hyperbolic", "--L", "1", "--r", "0.7",
         "--mode", "threshold_lower", "--M", "1.5", "--trials", "512",
         "--seed", "4"],
        '{"M":1.5,"N_t":51,"certificate_failure_budget":7.579413283005731e-11,'
        '"confidence":0.99,"config_hash":"8c54247f4adca952","fail_exp":30.0,'
        '"hits":268,"inconclusive":0,"mode":"threshold_lower",'
        '"model":{"L":1.0,"kind":"Hyperbolic"},"p_high":1.0,'
        '"p_low":0.04918412228396406,"q_low":0.46664595957340577,"r":0.7,'
        '"seed":4,"streams":[0,512],"tail_bound":1.6945811458366785e-07,'
        '"tau_rel":1e-08,"trials":512,"version":"0.1.0"}',
        '[{"sup":{"grid_points":15200,"hit":268,"inconclusive":0,"miss":244,'
        '"screened":44,'
        '"settle_K":{"128":25,"16":23,"256":4,"32":140,"64":70,"8":206},'
        '"tube_hits":222}}]'),
    "tilted_lower": (
        ["estimate", "--model", "Hyperbolic", "--L", "2", "--r", "0.9",
         "--mode", "tilted_lower", "--trials", "512", "--seed", "13"],
        '{"M":5.911010986140177,"N":92,"N1":11,"N_t":192,'
        '"alpha1":0.3670965699997514,'
        '"certificate_failure_budget":7.579413283005731e-11,'
        '"confidence":0.99,"config_hash":"bf5baa43bb5d2be4","fail_exp":30.0,'
        '"hits":264,"inconclusive":0,"log10_p_low":-121.50130464290325,'
        '"log_Q2":-244.02180837982087,"mid_hits":264,"mode":"tilted_lower",'
        '"model":{"L":2.0,"kind":"Hyperbolic"},"p_high":1.0,'
        '"p_low":3.1527922702822317e-122,"q_mid_low":0.45386236793806245,'
        '"q_tail_low":0.9848437195396773,"r":0.9,"r2":0.91,"seed":13,'
        '"streams":[0,512],"tail_bound":1.324158177444694e-06,'
        '"tail_hits":512,"tau_rel":1e-08,"trials":512,"version":"0.1.0"}',
        '[{"middle":{"grid_points":104056,"hit":264,"inconclusive":0,'
        '"miss":248,"screened":0,"settle_K":{"1024":13,"128":62,"16":52,'
        '"2048":2,"256":167,"32":64,"512":57,"64":56,"8":39},"tube_hits":264},'
        '"tail":{"grid_points":0,"hit":512,"inconclusive":0,"miss":0,'
        '"screened":512,"settle_K":{},"tube_hits":0}}]'),
}


@pytest.mark.parametrize("mode", list(FROZEN_LOWER_BOUNDS))
def test_lower_bound_record_and_kernel_frozen(mode, tmp_path):
    args, line, kernel = FROZEN_LOWER_BOUNDS[mode]
    out = tmp_path / "est.jsonl"
    assert cli.main(args + ["--out", str(out)]) == 0
    assert out.read_text() == line + "\n"
    meta = json.loads((tmp_path / "est.jsonl.meta.json").read_text())
    assert json.dumps(meta["kernel"], sort_keys=True,
                      separators=(",", ":")) == kernel


def test_estimate_sidecar_holds_runtime_facts(tmp_path):
    out = tmp_path / "est.jsonl"
    cli.main(ESTIMATE_ARGS + ["--out", str(out)])
    meta = json.loads((tmp_path / "est.jsonl.meta.json").read_text())
    assert set(meta) == {"timestamp", "wall_time_s", "kernel"}
    assert all(t >= 0.0 for t in meta["wall_time_s"])


def test_estimate_sidecar_counts_kernel_paths(tmp_path):
    out = tmp_path / "est.jsonl"
    cli.main(ESTIMATE_ARGS + ["--r", "0.5,0.7", "--out", str(out)])
    meta = json.loads((tmp_path / "est.jsonl.meta.json").read_text())
    assert len(meta["kernel"]) == 2
    paths = ("constant_term", "quadratic", "inner", "uniform_ladder",
             "inconclusive")
    for k in meta["kernel"]:
        assert set(k) == set(paths) | {"open_at_cap", "tube", "settle_K",
                                       "inner_settle_K", "inner_r"}
        assert sum(k[p] for p in paths) == 256
        # rows decided only by the second-order bound, and the ladder levels
        # (JSON keys) at which every ladder row not open at the cap settled
        assert 0 <= k["tube"] <= k["uniform_ladder"]
        assert all(int(K) >= 8 for K in k["settle_K"])
        assert sum(k["settle_K"].values()) \
            == 256 - k["constant_term"] - k["quadratic"] - k["open_at_cap"]
        assert k["open_at_cap"] <= k["inconclusive"]
    assert meta["kernel"][0]["constant_term"] > 0   # about half the rows at r = 0.5
    assert meta["kernel"][0]["quadratic"] > 0
    # the lower-bound modes do not run the direct kernel: they count the
    # rows of their sup ladder instead
    thr = tmp_path / "thr.jsonl"
    cli.main(["estimate", "--model", "Hyperbolic", "--L", "1", "--r", "0.5",
              "--mode", "threshold_lower", "--M", "2", "--trials", "64",
              "--seed", "1", "--out", str(thr)])
    meta = json.loads((tmp_path / "thr.jsonl.meta.json").read_text())
    assert set(meta) == {"timestamp", "wall_time_s", "kernel"}
    (k,) = meta["kernel"]
    assert set(k) == {"sup"}
    assert k["sup"]["hit"] + k["sup"]["miss"] + k["sup"]["inconclusive"] == 64


def test_estimate_deterministic_across_worker_counts(tmp_path):
    args = ["estimate", "--model", "Hyperbolic", "--L", "1", "--r", "0.3,0.5",
            "--mode", "direct", "--trials", "4096", "--seed", "5"]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    cli.main(args + ["--workers", "1", "--out", str(a)])
    cli.main(args + ["--workers", "4", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 2


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps(
        {"command": "coeffs", "model": "Hyperbolic", "L": 2.0,
         "n_max": 2, "seed": 5}))
    assert cli.main(["coeffs", "--config", str(cfgfile), "--seed", "3"]) == 0
    rows = [json.loads(s) for s in capsys.readouterr().out.splitlines()]
    assert len(rows) == 4              # n_max from the file, plus a summary row
    assert all(r["seed"] == 3 for r in rows)   # flag beats file
    assert rows[1]["a_n"] == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert rows[-1]["sigma_sq"] == pytest.approx((1 - 0.25) ** -2.0, rel=1e-12)


def test_env_seed_is_a_default_only(tmp_path, capsys, monkeypatch):
    def first_row(argv):
        cli.main(argv)
        return json.loads(capsys.readouterr().out.splitlines()[0])

    monkeypatch.setenv("GAFHOLES_SEED", "9")
    assert first_row(["coeffs", "--model", "ConstantUnit", "--n-max", "0"])["seed"] == 9
    # a config file beats the environment
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"seed": 5}))
    assert first_row(["coeffs", "--model", "ConstantUnit", "--n-max", "0",
                      "--config", str(cfgfile)])["seed"] == 5
    # and a flag beats both
    assert first_row(["coeffs", "--model", "ConstantUnit", "--n-max", "0",
                      "--config", str(cfgfile), "--seed", "3"])["seed"] == 3


def test_unknown_config_key_rejected_by_name(tmp_path, capsys):
    cfgfile = tmp_path / "bad.json"
    cfgfile.write_text(json.dumps({"trails": 100}))
    assert cli.main(["estimate", "--config", str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "trails" in err


def test_retired_K_init_key_and_flag_exit_2(tmp_path, capsys):
    # every ladder starts at 8 points: K_init is neither a key nor a flag
    cfgfile = tmp_path / "old.json"
    cfgfile.write_text(json.dumps({"K_init": 8}))
    assert cli.main(["estimate", "--config", str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'K_init'" in err
    with pytest.raises(SystemExit) as exc:
        cli.main(["estimate", "--K-init", "8"])
    assert exc.value.code == 2
    assert "--K-init" in capsys.readouterr().err


def test_config_command_mismatch_rejected(tmp_path, capsys):
    cfgfile = tmp_path / "other.json"
    cfgfile.write_text(json.dumps({"command": "spectrum"}))
    assert cli.main(["coeffs", "--config", str(cfgfile)]) == 2
    assert "spectrum" in capsys.readouterr().err


def test_unparseable_flag_value(capsys):
    assert cli.main(["estimate", "--trials", "many"]) == 2
    assert "trials" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("trials", 2.7), ("trials", "2.7"), ("seed", True), ("K_cap", False),
    ("trials", float("inf")), ("confidence", True), ("r", [0.5, True]),
    ("r", "true"), ("r", []), ("r", ""), ("r", ","),
])
def test_config_numbers_that_are_not_numbers_exit_2(key, value, tmp_path,
                                                    capsys):
    # in a config file: JSON booleans and non-integral floats for int keys
    # are rejected, not truncated by int() or read as 0 and 1
    cfgfile = tmp_path / "bad.json"
    cfgfile.write_text(json.dumps({key: value}))
    assert cli.main(["estimate", "--config", str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err
    # and on the command line, where every value is a string
    if not isinstance(value, list):
        flag = "--" + key.replace("_", "-")
        assert cli.main(["estimate", flag, json.dumps(value)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(key) in err


@pytest.mark.parametrize("value", ["", ","])
def test_empty_radius_flag_exits_2(value, capsys):
    # an empty radius list would otherwise run no estimate and exit 0
    assert cli.main(["estimate", "--r", value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'r'" in err


def test_config_integral_floats_parse_with_an_unchanged_hash(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"K_cap": 1e6, "trials": 64.0}))
    from_file = cli.resolve_config("estimate", {},
                                   cli.load_config_file(str(cfgfile)))
    flags = {"K_cap": cli._parse_value("K_cap", "1000000"),
             "trials": cli._parse_value("trials", "64")}
    from_flags = cli.resolve_config("estimate", flags, {})
    assert from_file["K_cap"] == 1000000 and type(from_file["K_cap"]) is int
    assert from_file == from_flags
    assert cli.config_hash(from_file) == cli.config_hash(from_flags)


def test_estimator_domain_error_reported_cleanly(capsys):
    assert cli.main(["estimate", "--trials", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "trials" in err


# (flags, text the error must name), each on L=2, r=0.9, where all three
# modes apply.  Every mode checks K_cap, and a NaN must fail each range
# check rather than slip past it.  The test keeps its first name, from when
# it checked the first grid size, so that its ids stay stable.
_MODES = ("direct", "threshold_lower", "tilted_lower")
_BAD_ESTIMATE_FLAGS = (
    [(["--mode", m, "--K-cap", v], "K_cap") for m in _MODES
     for v in ("0", "-8")]
    + [(["--mode", m, "--workers", v], "workers") for m in _MODES
       for v in ("0", "-3")]
    + [(["--mode", m, "--budget", "nan"], "budget") for m in _MODES]
    + [(["--mode", "threshold_lower"] + f, "threshold M") for f in (
        ["--M", "0"], ["--M", "-1"], ["--M", "nan"], ["--M", "inf"],
        ["--L", "1", "--B", "-3"], ["--L", "0.5", "--eps", "nan"],
        ["--alpha-exp", "nan"])]
    + [(["--mode", "threshold_lower", "--L", "0.5", "--r", "0.5",
         "--eps", "-1"], "eps")]
    + [(["--mode", "tilted_lower", "--alpha1", v], "alpha1 must lie in (0, ")
       for v in ("nan", "-1", "1e9")]
)


def _flags_id(flags):
    return ",".join(f"{k.lstrip('-')}={v}"
                    for k, v in zip(flags[::2], flags[1::2]))


@pytest.mark.parametrize("flags, key", _BAD_ESTIMATE_FLAGS,
                         ids=[_flags_id(f) for f, _ in _BAD_ESTIMATE_FLAGS])
def test_non_positive_K_init_reported_cleanly(flags, key, capsys):
    args = ESTIMATE_ARGS + ["--L", "2", "--r", "0.9"]
    assert cli.main(args + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert key in err


def test_coeffs_command_values(capsys):
    assert cli.main(["coeffs", "--model", "Hyperbolic", "--L", "2",
                     "--n-max", "4"]) == 0
    rows = [json.loads(s) for s in capsys.readouterr().out.splitlines()]
    # five coefficient rows followed by one per-radius summary row
    assert len(rows) == 6
    coeff_rows = rows[:-1]
    assert [r["n"] for r in coeff_rows] == [0, 1, 2, 3, 4]
    ref = [1.0, math.sqrt(2.0), math.sqrt(3.0), 2.0, math.sqrt(5.0)]
    for row, a in zip(coeff_rows, ref):
        assert row["a_n"] == pytest.approx(a, rel=1e-12)
    assert "sigma_sq" in rows[-1]
    assert len({r["config_hash"] for r in rows}) == 1


def test_spectrum_command_matches_library(capsys):
    assert cli.main(["spectrum", "--model", "Hyperbolic", "--L", "1",
                     "--r", "0.6", "--N", "4"]) == 0
    rows = [json.loads(s) for s in capsys.readouterr().out.splitlines()]
    sp = spectra.circulant_eigenvalues(hyperbolic(1.0), 0.6, 4)
    # four eigenvalue rows followed by one summary row
    assert len(rows) == 5
    for row in rows[:-1]:
        assert row["lambda"] == pytest.approx(sp.lambdas[row["m"]], rel=1e-12)
    assert rows[-1]["log_det"] == pytest.approx(sp.log_det, rel=1e-12)
    assert rows[-1]["Lambda_max"] == pytest.approx(sp.Lambda_max, rel=1e-12)


def test_envelope_command_csv(capsys):
    assert cli.main(["envelope", "--L", "2", "--r", "0.99",
                     "--band", "hyperbolic"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "L,r,regime,lower,upper"
    fields = lines[1].split(",")
    assert fields[2] == "super1"
    assert float(fields[3]) == pytest.approx(530.1898110478392, rel=1e-12)


@pytest.mark.parametrize("flags, env", [
    (["--band", "flat", "--r", "0.9"], lambda: envelopes.flat_band(0.9)),
    (["--band", "decaying", "--L", "0.5", "--r", "0.9"],
     lambda: envelopes.decaying_band(hyperbolic(0.5), 0.9)),
    # an Explicit sequence has no exponent of its own: --L supplies it
    (["--band", "decaying", "--model", "Explicit", "--explicit-seq",
      "1,0.5,0.25", "--L", "0.5", "--r", "0.9"],
     lambda: envelopes.decaying_band(explicit([1, 0.5, 0.25]), 0.9, L=0.5)),
], ids=["flat", "decaying", "decaying-explicit"])
def test_envelope_bands_write_csv_and_sidecar(tmp_path, flags, env):
    out = tmp_path / "env.csv"
    assert cli.main(["envelope", *flags, "--out", str(out)]) == 0
    e = env()
    assert out.read_text() == ("L,r,regime,lower,upper\n"
                               f"{e.L!r},{e.r!r},{e.regime},{e.lower!r},{e.upper!r}\n")
    meta = json.loads((tmp_path / "env.csv.meta.json").read_text())
    assert set(meta) == {"timestamp"}


def test_defaults_command_lists_registry(capsys):
    assert cli.main(["defaults"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["tau_rel"] == 1e-8
    assert d["confidence"] == 0.99
    assert "K_init" not in d and d["K_cap"] == 1 << 20


def test_report_joins_envelopes(tmp_path, capsys):
    resdir = tmp_path / "results"
    resdir.mkdir()
    cli.main(ESTIMATE_ARGS + ["--out", str(resdir / "run.jsonl")])
    assert cli.main(["report", "--results", str(resdir)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("L,r,mode,trials,p_low,p_high,envelope_lower")
    fields = lines[1].split(",")
    with warnings.catch_warnings():
        # r = 0.5 sits outside the asymptotic regime; the warning is expected
        warnings.simplefilter("ignore")
        env = envelopes.hyperbolic_envelope(1.0, 0.5)
    assert float(fields[6]) == pytest.approx(env.lower, rel=1e-12)
    assert fields[8] == "crit"


def test_report_reads_a_single_results_file(tmp_path, capsys):
    resdir = tmp_path / "results"
    resdir.mkdir()
    res = resdir / "run.jsonl"
    cli.main(ESTIMATE_ARGS + ["--r", "0.5,0.3", "--out", str(res)])
    capsys.readouterr()
    assert cli.main(["report", "--results", str(res)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # one row per record, sorted by r; the sidecar next to it is not read
    rec = [json.loads(s) for s in res.read_text().splitlines()]
    assert [line.split(",")[1] for line in lines[1:]] == ["0.3", "0.5"]
    assert [float(line.split(",")[4]) for line in lines[1:]] \
        == [rec[1]["p_low"], rec[0]["p_low"]]
    # the same table as a directory holding only that file
    assert cli.main(["report", "--results", str(resdir)]) == 0
    assert capsys.readouterr().out.splitlines() == lines


@pytest.mark.parametrize("bad, says", [
    ('{"mode": "direct", "r": 0.5', "Expecting"),   # the JSON parser's words
    ('{"mode": "direct", "r": "0.5"}', "must be numbers"),
    ('{"mode": "direct", "r": 0.5, "model": {"kind": "Hyperbolic", "L": "2"}}',
     "must be numbers"),
    ('{"mode": "direct", "r": 0.5, "model": "Hyperbolic"}', "must be an object"),
    # sorts against the first record's "direct" at the same L and r
    ('{"mode": 1, "r": 0.5, "model": {"kind": "Hyperbolic", "L": 1}}',
     "must be a string"),
], ids=["truncated_line", "r_string", "L_string", "model_string", "mode_number"])
def test_report_rejects_a_malformed_record_by_file_and_line(bad, says,
                                                             tmp_path, capsys):
    res = tmp_path / "run.jsonl"
    cli.main(ESTIMATE_ARGS + ["--out", str(res)])
    with open(res, "a", encoding="utf-8") as fh:
        fh.write(bad + "\n")
    capsys.readouterr()
    assert cli.main(["report", "--results", str(res)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{str(res)!r} line 2" in err and says in err


@pytest.mark.parametrize("args", [
    ESTIMATE_ARGS + ["--tau-rel", "0"],
    ESTIMATE_ARGS + ["--fail-exp", "0"],
    ["spectrum", "--N", "0"],
], ids=["tau_rel", "fail_exp", "N"])
def test_arguments_that_are_not_radii_exit_2(args, capsys):
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert args[-2].lstrip("-").replace("-", "_") in err


def test_config_hash_ignores_operational_keys():
    base = {"command": "estimate", "seed": 1, "trials": 256}
    h1 = cli.config_hash({**base, "workers": 1, "out": "a.jsonl", "results": None})
    h2 = cli.config_hash({**base, "workers": 8, "out": "b.jsonl", "results": "x"})
    h3 = cli.config_hash({**base, "seed": 2, "workers": 1, "out": "a.jsonl",
                          "results": None})
    assert h1 == h2
    assert h1 != h3
    assert len(h1) == 16 and all(c in "0123456789abcdef" for c in h1)


def test_verify_quick_passes(capsys):
    assert cli.main(["verify", "--level", "quick"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.strip().endswith("checks passed")


def test_verify_full_passes(capsys):
    assert cli.main(["verify", "--level", "full"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "PASS  direct_vs_oracle" in out
    assert out.strip().endswith("checks passed")


def test_verify_unknown_level_rejected(capsys):
    assert cli.main(["verify", "--level", "bogus"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_reports_a_failing_check(capsys, monkeypatch):
    failing = oracles.CheckReport(check_id="always_fails", grid=[{}],
                                  measured=[1.0], asserted=[0.0])
    monkeypatch.setattr(oracles, "standard_reports",
                        lambda seed, quick: [failing])
    assert cli.main(["verify", "--level", "quick"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  always_fails" in out
    assert out.strip().endswith("1/2 checks passed")


# The verifier's output, frozen byte for byte: the sha256 of the
# `oracle-verify --level quick` JSONL and the text `verify --level quick`
# prints.  A change here is a change in a checked moment fact, its grid or
# its constants, or in the serialization.
FROZEN_ORACLE_VERIFY_QUICK_SHA256 = (
    "ca922ded6f81ca4af282a0f20d29df491b08f067b5925370b19f3713e23e31e3")
FROZEN_VERIFY_QUICK_STDOUT = (
    "PASS  unity_average_defect\n"
    "PASS  neg_moment_sup\n"
    "PASS  neg_moment_contraction\n"
    "PASS  joint_neg_moment\n"
    "PASS  direct_vs_oracle\n"
    "5/5 checks passed\n"
)


def test_oracle_verify_quick_output_frozen(capsys):
    assert cli.main(["oracle-verify", "--level", "quick"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() \
        == FROZEN_ORACLE_VERIFY_QUICK_SHA256


def test_verify_quick_output_frozen(capsys):
    assert cli.main(["verify", "--level", "quick"]) == 0
    assert capsys.readouterr().out == FROZEN_VERIFY_QUICK_STDOUT


def test_oracle_verify_writes_one_row_per_report(tmp_path):
    out = tmp_path / "oracles.jsonl"
    assert cli.main(["oracle-verify", "--level", "quick", "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == len(oracles.standard_reports(seed=0, quick=True))
    assert all(row["check_id"] and row["passed"] for row in rows)


def test_cli_import_leaves_scipy_stats_unloaded(tmp_path):
    # scipy.special and scipy.integrate take about 0.3 s each to import;
    # importing the package and the CLI and estimating in every mode load no
    # scipy module (oracles imports both on its first quadrature)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = """
import json, sys
import gafholes
from gafholes import cli
base = ["estimate", "--model", "Hyperbolic", "--trials", "64", "--seed", "1",
        "--out", sys.argv[1]]
for mode in (["--L", "1", "--r", "0.5", "--mode", "direct"],
             ["--L", "1", "--r", "0.5", "--mode", "threshold_lower"],
             ["--L", "2", "--r", "0.9", "--mode", "tilted_lower",
              "--K-cap", "256"]):
    assert cli.main(base + mode) == 0
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "e.jsonl")],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == []


def test_every_subcommand_takes_every_flag(capsys):
    parser = cli.build_parser()
    flags = {k: "--" + k.replace("_", "-") for k in cli._FLAG_KEYS}
    for name in cli._COMMANDS:
        argv = [name, "--config", "c.json"]
        for key, flag in flags.items():
            argv += [flag, f"v-{name}-{key}"]
        args = parser.parse_args(argv)
        assert args.command == name and args.config == "c.json"
        assert all(getattr(args, k) == f"v-{name}-{k}" for k in flags)
        # an unset flag leaves its dest None, so the config file can fill it
        assert all(getattr(parser.parse_args([name]), k) is None for k in flags)
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["estimate", "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    for flag in [*flags.values(), "--config"]:
        assert re.search(rf"(?<![\w-]){flag}(?![\w-])", usage), flag


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_estimate_rejects_a_seed_outside_64_bits(seed, capsys):
    # --seed -1 once ran seed 2^64 - 1 and recorded -1
    assert cli.main(["estimate", "--trials", "64", f"--seed={seed}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "seed" in err
