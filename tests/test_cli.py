"""Command line interface: records, config precedence, determinism."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from gafholes import cli, envelopes, oracles, spectra
from gafholes.coeffs import hyperbolic

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
    paths = ("zero_first", "uniform_ladder", "inconclusive")
    for k in meta["kernel"]:
        assert set(k) == set(paths) | {"open_at_cap", "tube", "settle_K"}
        assert sum(k[p] for p in paths) == 256
        # rows decided only by the second-order bound, and the ladder levels
        # (JSON keys) at which every row not open at the cap settled
        assert 0 <= k["tube"] <= k["uniform_ladder"]
        assert all(int(K) >= 8 for K in k["settle_K"])
        assert sum(k["settle_K"].values()) == 256 - k["open_at_cap"]
        assert k["open_at_cap"] <= k["inconclusive"]
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


def test_config_command_mismatch_rejected(tmp_path, capsys):
    cfgfile = tmp_path / "other.json"
    cfgfile.write_text(json.dumps({"command": "spectrum"}))
    assert cli.main(["coeffs", "--config", str(cfgfile)]) == 2
    assert "spectrum" in capsys.readouterr().err


def test_unparseable_flag_value(capsys):
    assert cli.main(["estimate", "--trials", "many"]) == 2
    assert "trials" in capsys.readouterr().err


def test_estimator_domain_error_reported_cleanly(capsys):
    assert cli.main(["estimate", "--trials", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "trials" in err


# (flags, text the error must name), each on L=2, r=0.9, where all three
# modes apply.  K_cap shares the K_init check in every mode, and a NaN must
# fail each range check rather than slip past it.
_MODES = ("direct", "threshold_lower", "tilted_lower")
_BAD_ESTIMATE_FLAGS = (
    [(["--mode", m, flag, v], key) for m in _MODES
     for flag, key in (("--K-init", "K_init"), ("--K-cap", "K_cap"))
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


def test_defaults_command_lists_registry(capsys):
    assert cli.main(["defaults"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["tau_rel"] == 1e-8
    assert d["confidence"] == 0.99
    assert d["K_init"] == 8


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
                                  measured=[1.0], asserted=[0.0], passed=False)
    monkeypatch.setattr(oracles, "standard_reports",
                        lambda seed, quick: [failing])
    assert cli.main(["verify", "--level", "quick"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  always_fails" in out
    assert out.strip().endswith("1/2 checks passed")


def test_oracle_verify_writes_one_row_per_report(tmp_path):
    out = tmp_path / "oracles.jsonl"
    assert cli.main(["oracle-verify", "--level", "quick", "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == len(oracles.standard_reports(seed=0, quick=True))
    assert all(row["check_id"] and row["passed"] for row in rows)


def test_cli_import_leaves_scipy_stats_unloaded(tmp_path):
    # scipy.stats and scipy.integrate take about 0.45 s and 0.3 s to import;
    # importing the CLI and estimating in every mode needs scipy.special only
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = """
import json, sys
from gafholes import cli
base = ["estimate", "--model", "Hyperbolic", "--trials", "64", "--seed", "1",
        "--out", sys.argv[1]]
for mode in (["--L", "1", "--r", "0.5", "--mode", "direct"],
             ["--L", "1", "--r", "0.5", "--mode", "threshold_lower"],
             ["--L", "2", "--r", "0.9", "--mode", "tilted_lower",
              "--K-cap", "256"]):
    assert cli.main(base + mode) == 0
print(json.dumps(sorted({name.split(".")[1] for name, mod in sys.modules.items()
                         if name.startswith("scipy.") and hasattr(mod, "__path__")
                         and not name.split(".")[1].startswith("_")})))
"""
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "e.jsonl")],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == ["special"]


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
