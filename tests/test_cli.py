"""Command-line behavior: exit codes, artifact headers, reproducibility,
and the file-based forward/invert round trip."""

import json

import numpy as np
import pytest

from sphmean import cli
from sphmean.transform import BumpProfile


def _write_profile(tmp_path, **extra):
    cfg = {"profile": {"family": "bump", "center": 0.55, "width": 0.25, "n": 3}}
    cfg.update(extra)
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _data_rows(path):
    rows = []
    for line in open(path):
        line = line.strip()
        if not line or line.startswith("#") or line[0].isalpha():
            continue
        rows.append([float(x) for x in line.split(",")])
    return np.asarray(rows)


# ---------------------------------------------------------------------------
# exit codes and config validation


def test_unknown_subcommand_exits_2(capsys):
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "forward" in out and "ucp-demo" in out


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"profile": {"family": "bump",}')
    assert cli.main(["forward", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"profle": {"family": "bump"}}')
    assert cli.main(["forward", "--config", str(bad)]) == 2
    assert "profle" in capsys.readouterr().err


def test_unknown_nested_key_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"profile": {"family": "bump", "center": 0.5, "width": 0.2,
                     "n": 3, "sigma": 1.0}}))
    assert cli.main(["forward", "--config", str(bad)]) == 2
    assert "profile.sigma" in capsys.readouterr().err


def test_missing_required_input_exits_2(capsys):
    assert cli.main(["invert", "--n", "3"]) == 2
    capsys.readouterr()


def test_threads_option_is_gone(tmp_path, capsys):
    cfg = _write_profile(tmp_path, threads=2)
    assert cli.main(["forward", "--config", cfg]) == 2
    assert "unknown config key 'threads'" in capsys.readouterr().err
    assert cli.main(["forward", "--config", _write_profile(tmp_path),
                     "--threads", "2"]) == 2
    capsys.readouterr()


def test_domain_error_is_not_a_config_error(tmp_path, capsys):
    # a bump touching r = 1 gives h-support down to t = 0, where the
    # second-kind kernel of the cross-product check is singular
    cfg = tmp_path / "touch.json"
    cfg.write_text(json.dumps(
        {"profile": {"family": "bump", "center": 0.6, "width": 0.4, "n": 5}}))
    assert cli.main(["cross-check", "--config", str(cfg), "--grid", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("domain error: h-support must stay away from t = 0")
    assert "config error" not in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflow_is_a_numerical_error(tmp_path, capsys):
    # lambda^(2k+1) overflows a float: the run must refuse, not PASS
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"lambda_max": 1e300, "count": 3, "k": 2}))
    assert cli.main(["mk-check", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "numerical error:" in captured.err
    assert "PASS" not in captured.out


# ---------------------------------------------------------------------------
# artifact format


def test_forward_header_and_determinism(tmp_path, capsys):
    cfg = _write_profile(tmp_path)
    out1, out2, out3 = (str(tmp_path / f"f{i}.csv") for i in (1, 2, 3))
    assert cli.main(["forward", "--config", cfg, "--grid", "40",
                     "--out", out1]) == 0
    assert cli.main(["forward", "--config", cfg, "--grid", "40",
                     "--out", out2]) == 0
    assert cli.main(["forward", "--config", cfg, "--grid", "40",
                     "--out", out3]) == 0
    capsys.readouterr()

    b1, b2, b3 = (open(p, "rb").read() for p in (out1, out2, out3))
    assert b1 == b2 == b3  # identical config => identical bytes

    lines = b1.decode().splitlines()
    assert lines[0].startswith("# smt ")
    assert lines[1].startswith("# config sha256:")
    assert lines[2] == f"# seed {cli.DEFAULT_SEED}"
    assert lines[3] == "t,g,h"
    # 17-significant-digit floats round-trip exactly
    t_first = lines[4].split(",")[0]
    assert float(t_first) == 0.05


def test_forward_derivative_columns(tmp_path, capsys):
    cfg = _write_profile(tmp_path)
    out = str(tmp_path / "fwd.csv")
    assert cli.main(["forward", "--config", cfg, "--grid", "12",
                     "--derivatives", "--out", out]) == 0
    capsys.readouterr()
    header = [l for l in open(out) if not l.startswith("#")][0].strip()
    assert header == "t,g,h,dp_h_0"  # n=3 trusts no higher orders


def test_seed_echoed_in_header(tmp_path, capsys):
    cfg = _write_profile(tmp_path)
    out = str(tmp_path / "fwd.csv")
    assert cli.main(["forward", "--config", cfg, "--grid", "12",
                     "--seed", "99", "--out", out]) == 0
    capsys.readouterr()
    assert "# seed 99\n" in open(out).read()


# ---------------------------------------------------------------------------
# verdict subcommands


def test_identities_table_and_exit(capsys):
    assert cli.main(["identities", "--max-k", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 7
    assert "FAIL" not in out


def test_range_check_profile_passes(tmp_path, capsys):
    cfg = _write_profile(tmp_path)
    out = str(tmp_path / "report.json")
    assert cli.main(["range-check", "--config", cfg, "--out", out]) == 0
    capsys.readouterr()
    report = json.loads(open(out).read())
    assert report["verdict"] == "PASS"
    assert report["normalized"] <= 1e-6
    assert {"tool_version", "config_sha256", "seed"} <= set(report)


def test_range_check_csv_clean_and_perturbed(tmp_path, capsys):
    # table the forward data, then check it straight and with a half-data bump
    cfg = _write_profile(tmp_path)
    fwd = str(tmp_path / "fwd.csv")
    assert cli.main(["forward", "--config", cfg, "--grid", "1601",
                     "--out", fwd]) == 0
    rows = _data_rows(fwd)
    clean = tmp_path / "clean.csv"
    pert = tmp_path / "pert.csv"
    clean.write_text("t,h\n" + "\n".join(
        f"{float(t)!r},{float(h)!r}" for t, g, h in rows) + "\n")
    pert.write_text("t,h\n" + "\n".join(
        f"{float(t)!r},{float(h * 1.05 if t < 1 else h)!r}" for t, g, h in rows) + "\n")
    assert cli.main(["range-check", "--n", "3", "--input", str(clean),
                     "--tol", "1e-6"]) == 0
    assert cli.main(["range-check", "--n", "3", "--input", str(pert),
                     "--tol", "1e-6"]) == 1
    capsys.readouterr()


def test_cross_check_columns_and_verdict(tmp_path, capsys):
    cfg = _write_profile(tmp_path)
    out = str(tmp_path / "cross.csv")
    assert cli.main(["cross-check", "--config", cfg, "--grid", "5",
                     "--lambda-max", "15", "--out", out]) == 0
    capsys.readouterr()
    header = [l for l in open(out) if not l.startswith("#")][0].strip()
    assert header == "lambda,lhs,rhs,residual"
    assert np.all(_data_rows(out)[:, 3] <= 1e-8)


def test_mk_check_small_sweep(tmp_path, capsys):
    run_cfg = tmp_path / "mk.json"
    run_cfg.write_text(json.dumps({"k": 1, "count": 15}))
    out = str(tmp_path / "mk.csv")
    assert cli.main(["mk-check", "--config", str(run_cfg),
                     "--out", out]) == 0
    capsys.readouterr()
    text = open(out).read()
    assert f"# seed {cli.DEFAULT_SEED}" in text
    assert "# k 0" in text and "# k 1" in text
    assert np.all(_data_rows(out)[:, 2] <= 1e-8)


def test_mk_check_count_flag(tmp_path, capsys):
    out = str(tmp_path / "mk.csv")
    assert cli.main(["mk-check", "--k", "0", "--count", "7",
                     "--out", out]) == 0
    capsys.readouterr()
    assert _data_rows(out).shape == (7, 3)


def test_zeros_in_range_data_passes(tmp_path, capsys):
    cfg = _write_profile(tmp_path)
    out = str(tmp_path / "zeros.csv")
    assert cli.main(["zeros", "--config", cfg, "--count", "5",
                     "--out", out]) == 0
    capsys.readouterr()
    rows = _data_rows(out)
    assert rows.shape == (5, 3)
    assert np.all(rows[:, 2] <= 1e-6)


# ---------------------------------------------------------------------------
# file round trip: forward -> invert


def test_forward_invert_round_trip(tmp_path, capsys):
    cfg = _write_profile(tmp_path)
    fwd = str(tmp_path / "fwd.csv")
    assert cli.main(["forward", "--config", cfg, "--grid", "2001",
                     "--out", fwd]) == 0
    rows = _data_rows(fwd)
    tg = tmp_path / "tg.csv"
    tg.write_text("t,g\n" + "\n".join(f"{float(t)!r},{float(g)!r}" for t, g, h in rows) + "\n")

    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps(
        {"inversion": {"n_unknowns": 240, "n_collocation": 241,
                       "svd_cutoff": 1e-6}}))
    rec = str(tmp_path / "rec.csv")
    assert cli.main(["invert", "--n", "3", "--input", str(tg),
                     "--config", str(run_cfg), "--out", rec]) == 0
    capsys.readouterr()

    out = _data_rows(rec)
    f_true = BumpProfile(0.55, 0.25)(out[:, 0])
    err = np.max(np.abs(out[:, 1] - f_true)) / np.max(np.abs(f_true))
    assert err <= 2e-3  # limited by linear interpolation of the samples

    diag = json.loads(open(str(tmp_path / "rec.json")).read())
    assert diag["rank"] >= 60
    assert diag["residual"] <= 1e-8


def test_invert_ill_posed_exits_1(tmp_path, capsys):
    cfg = _write_profile(tmp_path)
    fwd = str(tmp_path / "fwd.csv")
    assert cli.main(["forward", "--config", cfg, "--grid", "301",
                     "--out", fwd]) == 0
    rows = _data_rows(fwd)
    tg = tmp_path / "tg.csv"
    tg.write_text("t,g\n" + "\n".join(f"{float(t)!r},{float(g)!r}" for t, g, h in rows) + "\n")
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps(
        {"inversion": {"n_unknowns": 60, "n_collocation": 61,
                       "svd_cutoff": 0.9}}))
    assert cli.main(["invert", "--n", "3", "--input", str(tg),
                     "--config", str(run_cfg)]) == 1
    assert "FAIL" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ucp-demo


def test_ucp_demo_artifacts_and_verdict(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"n": 3, "epsilon": 0.25, "m": 2, "bump": [0.6, 0.15]}))
    out = str(tmp_path / "run.csv")
    assert cli.main(["ucp-demo", "--config", str(spec), "--grid", "101",
                     "--out", out]) == 0
    capsys.readouterr()

    verdict = json.loads(open(str(tmp_path / "run.json")).read())
    assert verdict["verdict"] == "PASS"
    assert verdict["ratio_inside"] <= 1e-7
    g_rows = _data_rows(str(tmp_path / "run_g.csv"))
    f_rows = _data_rows(str(tmp_path / "run_f.csv"))
    assert g_rows.shape[1] == 2 and f_rows.shape[1] == 2
    # the profile column really vanishes below epsilon
    below = f_rows[f_rows[:, 0] <= 0.25]
    assert np.all(below[:, 1] == 0.0)


def test_ucp_demo_rejects_low_order(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"n": 5, "epsilon": 0.2, "m": 3, "bump": [0.6, 0.15]}))
    assert cli.main(["ucp-demo", "--config", str(spec)]) == 2
    capsys.readouterr()
