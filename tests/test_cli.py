"""Command-line behavior: exit codes, artifact headers, reproducibility,
and the file-based forward/invert round trip."""

import hashlib
import importlib.util
import itertools
import json
import math
import os
import random
import shlex
import subprocess
import sys

import numpy as np
import pytest

from sphmean import cli
from sphmean import spectral as sp
from sphmean import transform as tr
from sphmean.specfun import bessel_zero
from sphmean.transform import BumpProfile, Dimension, HarmonicForwardData

import _oracles as orc


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


# help, usage and error output of the parser that registers all eight
# subcommands, 80 columns wide: argv, exit code, stdout and stderr
with open(os.path.join(os.path.dirname(__file__), "cli_surface.json"), encoding="utf-8") as fh:
    SURFACE = json.load(fh)


def _surface_id(case):
    return " ".join(case["argv"]) or "(none)"


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse lays help out differently across Python versions")
@pytest.mark.parametrize("case", SURFACE, ids=_surface_id)
def test_cli_surface_is_pinned(monkeypatch, capsys, case):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.main(case["argv"]) == case["rc"]
    assert capsys.readouterr() == (case["stdout"], case["stderr"])


def _argparse_vars(capsys, argv):
    """repr of each value of argparse's namespace for `argv`, None where
    argparse exits (help, usage errors)."""
    try:
        args = cli._build_parser().parse_args(argv)
    except SystemExit:
        args = None
    capsys.readouterr()
    return None if args is None else {k: repr(v) for k, v in vars(args).items()}


def _plain_vars(argv):
    args = cli._plain_args(argv)
    return None if args is None else {k: repr(v) for k, v in vars(args).items()}


def _corpus(command):
    """argv of every spelling of `command`'s options: exact flags with valid
    values, --flag=value, unique and shared prefixes, negative and
    non-integer values, repeats, missing values, strays and help."""
    good = {int: "3", float: "0.5", str: "x.json"}
    odd = {int: ["-1", "3.5", "abc", "nan"], float: ["-0.5", "1e-3", "nan", "inf", "x"],
           str: ["-", "", "-x"]}
    corpus, every = [[command], [command, "stray"], [command, "-h"], [command, "--help"],
                     [command, "--version"], [command, "--config"],
                     [command, "--config", "c.json"], [command, "--config=c.json"],
                     [command, "--co", "3"], [command, "--"], [command, "-n", "3"]], []
    for name, (kind, *_) in cli.OPTIONS[command].items():
        flag = cli._flag(name)
        one = [flag] if kind is bool else [flag, good[kind]]
        every += one
        corpus += [[command, *one], [command, *one, *one], [command, *one, "stray"],
                   [command, flag[:-1], *one[1:]], [command, flag.replace("-", "_")],
                   [command, f"{flag}={good.get(kind, '1')}"], [command, flag, "--config"]]
        if kind is not bool:
            corpus += [[command, flag], [command, flag, flag]]
            corpus += [[command, flag, value] for value in odd[kind]]
    corpus += [[command, *every], [command, "--config", "c.json", *every],
               [command, *every, "--config", "c.json", *every[:2]], [command, *every, "-h"]]
    return corpus


# the argv shapes of the benchmark's jobs (smtbench/workloads.py)
WORKLOAD_ARGVS = [
    ["forward", "--config", "c.json", "--n", "3", "--grid", "2001", "--derivatives",
     "--out", "f.csv"],
    ["forward", "--config", "c.json", "--n", "5", "--m", "2", "--grid", "2001", "--out", "f.csv"],
    ["ucp-demo", "--config", "c.json", "--grid", "201", "--out", "u.csv"],
    ["range-check", "--config", "c.json", "--n", "9", "--m", "0", "--grid", "101",
     "--out", "r.json"],
    ["cross-check", "--config", "c.json", "--n", "5", "--m", "2", "--grid", "8", "--out", "c.csv"],
    ["zeros", "--config", "c.json", "--n", "9", "--count", "5", "--out", "z.csv"],
    ["mk-check", "--k", "6", "--count", "100", "--seed", "911", "--out", "mk.csv"],
    ["identities", "--max-k", "8", "--out", "ids.csv"],
    ["range-check", "--n", "3", "--input", "h.csv", "--out", "r.json"],
    ["invert", "--n", "3", "--input", "g.csv", "--out", "i.csv"],
]


def _readme_argvs():
    """The argv of every `smt` line of tools/readme_examples.sh."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools",
                        "readme_examples.sh")
    with open(path, encoding="utf-8") as fh:
        words = [shlex.split(line) for line in fh if line.startswith("smt ")]
    return [w[1:w.index(">")] if ">" in w else w[1:] for w in words]


@pytest.mark.parametrize("command", sorted(cli.OPTIONS))
def test_the_plain_reader_reads_as_argparse_or_hands_on(capsys, command):
    corpus = _corpus(command) + [case["argv"] for case in SURFACE]
    corpus += [["identities", "--max", "1"], ["mk-check", "--lam", "2"],
               ["mk-check", "--k", "0", "--count", "3", "--lam", "2"],
               ["identities", "--max-k", "1", "--seed", "-1"], ["--n", "3"]]
    for argv in corpus:
        plain = _plain_vars(argv)
        assert plain is None or plain == _argparse_vars(capsys, argv), argv
    # abbreviations, =, negative values and help are argparse's to read
    for argv in (["identities", "--max", "1"], ["identities", "--max-k=1"],
                 ["identities", "--seed", "-1"], [command, "-h"], [command, "--co", "3"]):
        assert cli._plain_args(argv) is None, argv


@pytest.mark.parametrize("argv", WORKLOAD_ARGVS + _readme_argvs(), ids=" ".join)
def test_the_plain_reader_reads_every_benchmark_and_readme_argv(capsys, argv):
    plain = _plain_vars(argv)
    assert plain is not None and plain == _argparse_vars(capsys, argv)


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


def test_forward_derivatives_of_harmonic_data(tmp_path, capsys):
    # dp_h_p is D^p h_m at m > 0 too; the t, g and h columns are the table's
    # without --derivatives
    cfg = _write_profile(tmp_path)
    tables = []
    for extra in ([], ["--derivatives"]):
        out = str(tmp_path / f"fwd{len(tables)}.csv")
        assert cli.main(["forward", "--config", cfg, "--n", "5", "--m", "2",
                         "--grid", "2001", "--out", out, *extra]) == 0
        capsys.readouterr()
        tables.append(_data_rows(out))
    plain, rows = tables
    assert rows.shape == (2001, 5)  # t, g, h, dp_h_0, dp_h_1
    assert np.array_equal(rows[:, :3], plain)
    assert rows[:, 3].tobytes() == rows[:, 2].tobytes()
    # D h_m = (1/t) dh_m/dt by a central difference of the Funk-Hecke route,
    # whose step error reads 1.9e-9 of max |D h_m|
    bump, dim, t, step = BumpProfile(0.55, 0.25), Dimension(5), rows[:, 0], 1e-5
    diff = (orc.gegenbauer_forward_h(bump, dim, 2, t + step)
            - orc.gegenbauer_forward_h(bump, dim, 2, t - step)) / (2 * step * t)
    assert np.max(np.abs(rows[:, 4] - diff)) <= 1e-8 * np.max(np.abs(rows[:, 4]))


@pytest.mark.parametrize("m, extra, reader", [
    (0, [], "forward_h"), (0, ["--derivatives"], "forward_h"),
    (2, [], "forward_harmonic_h"), (2, ["--derivatives"], "forward_harmonic_h")])
def test_forward_reads_h_once(tmp_path, capsys, monkeypatch, m, extra, reader):
    # one quadrature sweep per table: g, h and every dp_h_p column come from
    # it, and each equals its own entry point's call bit for bit
    sweeps = []
    real = tr.QuadratureRule.integrate_rows

    def counted(self, *args, **kwargs):
        sweeps.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(tr.QuadratureRule, "integrate_rows", counted)
    cfg = _write_profile(tmp_path)
    out = str(tmp_path / "fwd.csv")
    assert cli.main(["forward", "--config", cfg, "--n", "9", "--m", str(m),
                     "--grid", "30", "--out", out, *extra]) == 0
    capsys.readouterr()
    assert len(sweeps) == 1
    monkeypatch.undo()
    rows = _data_rows(out)
    bump, dim, t = BumpProfile(0.55, 0.25), Dimension(9), rows[:, 0]
    h = getattr(tr, reader)(bump, dim, *([m] if m else []), t)
    g = tr.g_from_h(h, t, dim.n)
    assert np.array_equal(rows[:, 1], g) and np.array_equal(rows[:, 2], h)
    if extra:
        assert np.array_equal(rows[:, 3], h)
    if extra and m:  # D^p h_m = K_(n,m) D^(m+p) phi_m
        phi = tr.phi_harmonic_dp(bump, dim, m, t, range(m + 1, m + dim.k + 1))
        np.testing.assert_allclose(rows[:, 4:].T, orc.const_Kmn(dim, m) * phi, rtol=1e-13, atol=0)
    elif extra:
        assert np.array_equal(rows[:, 4:].T, tr.forward_h_dp(bump, dim, t, range(1, dim.k + 1)))


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


def test_identities_fail_names_the_tuple_and_exits_1(tmp_path, capsys, monkeypatch):
    from sphmean import exactmath as em
    abel = em.verify_abel_aigner
    monkeypatch.setattr(em, "verify_abel_aigner", lambda *a: a != (5, 1, 2) and abel(*a))
    out = tmp_path / "ids.csv"
    assert cli.main(["identities", "--max-k", "2", "--out", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split()[-1] for ln in lines[:7]] == ["PASS"] * 2 + ["2)"] + ["PASS"] * 4
    assert lines[2].startswith("abel-aigner-convolution")
    assert lines[2].endswith("FAIL at (5, 1, 2)")
    assert lines[7] == "identities: FAIL (7 sweeps)"
    rows = [row.split(",") for row in out.read_text().splitlines() if not row.startswith("#")]
    assert rows[0] == ["identity", "range", "status"]
    status = {row[0]: row[-1] for row in rows[1:]}
    assert len(status) == 7 and status.pop("abel-aigner-convolution") == "FAIL"
    assert set(status.values()) == {"PASS"}


def test_range_check_profile_passes(tmp_path, capsys):
    cfg = _write_profile(tmp_path)
    out = str(tmp_path / "report.json")
    assert cli.main(["range-check", "--config", cfg, "--out", out]) == 0
    capsys.readouterr()
    report = json.loads(open(out).read())
    assert report["verdict"] == "PASS"
    assert report["normalized"] <= 1e-6
    assert {"tool_version", "config_sha256", "seed"} <= set(report)


def test_range_check_passes_exact_data_at_n25(tmp_path, capsys):
    cfg = _write_profile(tmp_path)
    assert cli.main(["range-check", "--config", cfg, "--n", "25"]) == 0
    assert "PASS" in capsys.readouterr().out


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


def test_only_the_first_csv_row_may_be_a_header(tmp_path, capsys):
    # a corrupt data row is refused by file and line, not dropped as a header
    t = np.linspace(0.05, 1.95, 201)
    lines = ["# t, h samples", "t,h"] + [f"{v:.17g},{np.exp(-v):.17g}" for v in t]
    good = tmp_path / "good.csv"
    good.write_text("\n".join(lines) + "\n")
    lines[101] = "1.0,nan?"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert cli.main(["range-check", "--n", "3", "--input", str(good)]) in (0, 1)
    assert "error" not in capsys.readouterr().err
    for command in ("range-check", "invert"):
        assert cli.main([command, "--n", "3", "--input", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {bad}, line 102: not a numeric row")


def test_a_non_finite_csv_value_is_refused(tmp_path, capsys):
    # a nan used to read as PASS (range-check) or as residual 0 (invert)
    t = np.linspace(0.05, 1.95, 201)
    for line, cell in ((66, "nan"), (136, "inf"), (136, "-Infinity")):
        lines = ["t,h"] + [f"{v:.17g},{np.exp(-v):.17g}" for v in t]
        lines[line - 1] = f"{t[line - 2]:.17g},{cell}"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        for command in ("range-check", "invert"):
            assert cli.main([command, "--n", "3", "--input", str(bad)]) == 2, cell
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {bad}, line {line}: not a finite row"), err


def test_a_short_csv_row_is_refused_by_line(tmp_path, capsys):
    lines = ["# t, h samples", "t,h", "0.5,1.0", "0.75", "1.5,2.0"]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert cli.main(["range-check", "--n", "3", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {bad}, line 4: expected 2 columns, got 1"), err


@pytest.mark.parametrize("lines, line, reason", [
    (["0.5,1.0"], 1, "need at least two rows to interpolate, got one"),
    (["# t, h samples", "t,h", "0.5,1.0"], 3, "need at least two rows to interpolate, got one"),
    (["t,h", "0.5,1.0", "# again", "0.5,2.0"], 4, "t = 0.5 repeats line 2"),
    (["1.5,1.0", "0.5,1.0", "1.0,3.0", "0.5,2.0"], 4, "t = 0.5 repeats line 2")],
    ids=["one row", "one row after a header", "repeated t", "repeated t, unsorted"])
def test_csv_rows_that_cannot_be_interpolated_are_refused(tmp_path, capsys, lines, line, reason):
    # both subcommands interpolate the rows in t; one row used to invert to
    # f = 0 with exit 0, and a repeated t to read one of its values at random
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    for command in ("range-check", "invert"):
        assert cli.main([command, "--n", "3", "--input", str(bad)]) == 2, command
        err = capsys.readouterr().err
        assert err == f"config error: {bad}, line {line}: {reason}\n", (command, err)


@pytest.mark.parametrize("lines, reason", [
    (["t,h"], ": no numeric rows found"),
    (["0.5,1.0", "0.5,2.0", "x,y"], ", line 3: not a numeric row: 'x,y'"),
    (["0.5,1.0", "0.5,2.0", "0.7,nan"], ", line 3: not a finite row: '0.7,nan'")],
    ids=["header only", "bad row after a repeated t", "nan row after a repeated t"])
def test_csv_fault_of_a_row_comes_before_the_t_faults(tmp_path, capsys, lines, reason):
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert cli.main(["range-check", "--n", "3", "--input", str(bad)]) == 2
    assert capsys.readouterr().err == f"config error: {bad}{reason}\n"


# cells that float() reads or refuses in its own way: the reader must take
# each exactly as a per-cell float() does
CSV_CELLS = [" 1.5", "1.5 ", "+2", "-0", ".5", "5.", "1e-320", "1_000", "１", "1d3",
             "1e309", "Infinity", "nan", "abc", ""]


@pytest.mark.parametrize("cell", CSV_CELLS)
def test_csv_cells_read_as_float_reads_them(tmp_path, cell):
    path = tmp_path / "cells.csv"
    path.write_text(f"t,h\n0.25,1.0\n0.5,{cell},extra\n0.75,3.0\n")
    try:
        want = float(cell)
    except ValueError:
        want = None
    if want is None or not math.isfinite(want):
        reason = "not a numeric row" if want is None else "not a finite row"
        with pytest.raises(cli.ConfigError, match=f"line 3: {reason}"):
            cli._read_csv_columns(str(path), 2)
        return
    data = cli._read_csv_columns(str(path), 2)
    expected = np.array([[0.25, 1.0], [0.5, want], [0.75, 3.0]])
    assert np.array_equal(data.view(np.int64), expected.view(np.int64))


def _csv_corpus():
    """CSV texts: each cell of CSV_CELLS and more in every position of a
    3-row body, under each layout; then bodies of none, one or two rows."""
    cells = [*CSV_CELLS, "0x1p-3", "nan(1)", "1e-400", "-nan", "0.25", "\x1c1.5", "1.5\x1f"]
    layouts = [  # (header, line end, comment and blank lines, cell padding, extra column)
        ("", "\n", False, "", ""), ("t,h", "\n", False, "", ""),
        ("t,h", "\r\n", True, "", ""), ("", "\r\n", True, " ", ",9"),
        ("t, h", "\n", True, "\t", ",x,"), ("t", "\n", False, "", "")]
    for cell, (row, col), (header, end, notes, pad, extra) in itertools.product(
            cells, itertools.product(range(3), range(2)), layouts):
        body = [["0.25", "1.0"], ["0.5", "2.0"], ["0.75", "3.0"]]
        body[row][col] = cell
        lines = [",".join(pad + c + pad for c in r) + extra for r in body]
        if notes:
            lines[1:1] = ["# a comment", "", "   "]
        yield end.join(([header] if header else []) + lines) + end
    for text in ("", "\n\n", "# only a comment\n", "t,h\n", "# c\nt,h\n", "0.5,1.0\n",
                 "t,h\n0.5,1.0\n", "0.5,1.0\n0.5,1.0\n", "0.5\n0.7,1\n", "t\n0.5,1\n0.7,2\n",
                 "1_000,5\n0.5,1\n0.7,2\n", "x,y\n1_000,5\n0.5,1\n", "t,h\n0.5,1.0\n0.7,2.0"):
        yield text


@pytest.mark.filterwarnings("error")
def test_the_csv_reader_reads_every_row_as_a_float_per_cell_does(tmp_path):
    # numpy's reader in front, the float() scan behind: together they give
    # the rows, bit for bit, or the error of the per-cell float() reader
    path = str(tmp_path / "rows.csv")
    texts = list(_csv_corpus())
    for text in texts:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        results = []
        for read in (cli._read_csv_columns, orc.read_csv_columns):
            try:
                data = read(path, 2)
                results.append((data.shape, data.view(np.int64).tolist()))
            except cli.ConfigError as exc:
                results.append(str(exc))
        assert results[0] == results[1], repr(text)
    assert len(texts) > 800


def test_a_csv_bom_is_not_a_header(tmp_path):
    # a BOM before a headerless CSV made its first row unreadable, and the
    # row was dropped as a header
    path = tmp_path / "bom.csv"
    for head in ([], ["t,h"], ["# samples"]):
        path.write_text("\ufeff" + "\n".join(head + ["0.25,1.0", "0.5,2.0", "0.75,3.0"]) + "\n",
                        encoding="utf-8")
        data = cli._read_csv_columns(str(path), 2)
        assert data.tolist() == [[0.25, 1.0], [0.5, 2.0], [0.75, 3.0]], head


def test_a_float_table_is_written_as_its_rows_would_be():
    # float tables take one %.17g format per table, not one per row
    cells = [-0.0, 5e-324, 2.0 ** 53 + 2, 1e300, math.nan, math.inf, -math.inf, 0.1, -2.5]
    columns = [np.array(cells), np.array(cells[::-1]), np.array(cells[3:] + cells[:3])]
    assert cli._float_lines(*columns) == [",".join("%.17g" % cell for cell in row)
                                          for row in zip(*(c.tolist() for c in columns))]
    assert cli._float_lines(np.array([-0.0, 5e-324])) == ["-0", "4.9406564584124654e-324"]


def test_integrating_commands_never_import_numpy_polynomial(tmp_path):
    # numpy.polynomial is 9 modules; the Gauss rules need none of them
    profile, fwd, ucp = _write_profile(tmp_path), str(tmp_path / "fwd.csv"), tmp_path / "ucp.json"
    ucp.write_text(json.dumps({"n": 5, "epsilon": 0.2, "m": 6, "bump": [0.6, 0.15]}))
    runs = [["forward", "--config", profile, "--grid", "201", "--out", fwd],
            ["range-check", "--config", profile],
            ["cross-check", "--config", profile, "--grid", "5"],
            ["zeros", "--config", profile, "--count", "3"],
            ["ucp-demo", "--config", str(ucp)],
            ["invert", "--n", "3", "--input", fwd]]
    code = ("import sys\n"
            "from sphmean import cli\n"
            f"codes = [cli.main(argv) for argv in {runs!r}]\n"
            "print(codes, 'numpy.polynomial' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0] False", run.stdout


def test_the_cli_loads_no_dataclasses_openssl_or_bom_codec(tmp_path):
    # dataclass code generation and hashlib's OpenSSL load cost every process
    # milliseconds at import, and an "utf-8-sig" read imports its codec in
    # every --input run; no subcommand needs any of them
    profile, fwd = _write_profile(tmp_path), str(tmp_path / "fwd.csv")
    runs = [["forward", "--config", profile, "--grid", "201", "--out", fwd],
            ["invert", "--n", "3", "--input", fwd]]
    unwanted = ["dataclasses"]
    if any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        unwanted += ["hashlib", "_hashlib"]
    code = ("import sys\n"
            "from sphmean import cli\n"
            f"print([name for name in {unwanted!r} if name in sys.modules])\n"
            f"codes = [cli.main(argv) for argv in {runs!r}]\n"
            "print(codes, 'encodings.utf_8_sig' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[0] == "[]", run.stdout
    assert run.stdout.splitlines()[-1] == "[0, 0] False", run.stdout


def test_no_subcommand_imports_mpmath(tmp_path):
    # high-precision work runs on the standard library's decimal, also in the
    # 80-digit retries of mk-check; and mk-check draws its points without
    # importing numpy.random
    profile, fwd, ucp = _write_profile(tmp_path), str(tmp_path / "fwd.csv"), tmp_path / "ucp.json"
    ucp.write_text(json.dumps({"n": 5, "epsilon": 0.2, "m": 6, "bump": [0.6, 0.15]}))
    runs = [["forward", "--config", profile, "--grid", "2001", "--out", fwd],
            ["invert", "--n", "3", "--input", fwd],
            ["range-check", "--config", profile, "--tol", "1e-6"],
            ["cross-check", "--config", profile, "--m", "2"],
            ["zeros", "--config", profile, "--n", "9"],
            ["mk-check", "--k", "6", "--count", "100", "--seed", "7"],
            ["identities", "--max-k", "8"],
            ["ucp-demo", "--config", str(ucp)]]
    code = ("import sys\n"
            "from sphmean import cli\n"
            f"codes = [cli.main(argv) for argv in {runs!r}]\n"
            "print(codes, 'mpmath' in sys.modules, 'numpy.random' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    # cross-check --m 2 is the known FAIL of the cross-check-m2 pin
    assert run.stdout.splitlines()[-1] == "[0, 0, 0, 1, 0, 0, 0, 0] False False", run.stdout


def test_the_benchmark_tracer_installs(tmp_path):
    # smtbench/spans.py wraps the package's entry points by name, from outside
    # the package: a rename that drops one fails its install
    pytest.importorskip("mpmath")
    spans = os.path.join(os.path.dirname(os.path.dirname(__file__)), "smtbench", "spans.py")
    code = ("import importlib.util\n"
            "import sphmean.cli\n"
            f"spec = importlib.util.spec_from_file_location('spans', {spans!r})\n"
            "spans = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(spans)\n"
            "spans.Recorder().install()\n"
            "print('installed')\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "installed\n"


SEEDS = [0, 1, 2, 3, 7, 77, 911, 4242, cli.DEFAULT_SEED, 2**32 - 1, 2**32, 2**64 + 5,
         2**127 + 12345, 10**40, 2**200 + 7]


@pytest.mark.parametrize("seed", SEEDS)
def test_mk_check_points_are_random_random_draws(tmp_path, capsys, seed):
    # uniform(a, b) is documented as a + (b - a) * random(): lam, then t, then
    # t again while it lies within 0.1 of 0 or -1. Random(seed) splits an int
    # seed into 32-bit words, so the seeds take one to seven words, with
    # 2**32 - 1 and 2**32 on either side of the first word boundary
    out = tmp_path / "mk.csv"
    assert cli.main(["mk-check", "--k", "1", "--count", "50", "--seed", str(seed),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    rng, want, redrawn = random.Random(seed), [], 0
    for _ in range(2 * 50):
        lam, t = 0.5 + (20.0 - 0.5) * rng.random(), -3.0 + 6.0 * rng.random()
        while abs(t) < 0.1 or abs(t + 1.0) < 0.1:
            t, redrawn = -3.0 + 6.0 * rng.random(), redrawn + 1
        want.append([lam, t])
    assert redrawn and _data_rows(out)[:, :2].tolist() == want


@pytest.mark.parametrize("n", [71, 81, 101, 103, 105, 109, 153, 159])
def test_cross_check_passes_at_large_n(tmp_path, capsys, n):
    # k = 34 to 78.  Before the kernels took the recurrence: a 30-term
    # series near the switch radius and a Decimal redo that took rounding
    # noise for the kernel (worst residual 9.4e-8, 2.1e-2 and 1.0 at the
    # first three), then the unguarded closed form, which FAILed n = 103 to
    # 159 at 1.2e-8 to 1.7e-8; now the worst is 3.4e-12
    assert cli.main(["cross-check", "--config", _write_profile(tmp_path), "--n", str(n),
                     "--grid", "20", "--lambda-max", "40"]) == 0
    assert "cross-check: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("command, n", [("cross-check", 167)])
def test_a_kernel_that_overflows_is_a_numerical_error(tmp_path, command, n):
    # cross-check's second kind at small lam t overflows a float at this n;
    # the NaN read as a FAIL, with numpy's overflow warnings on stderr ahead
    # of the verdict
    argv = [command, "--config", _write_profile(tmp_path), "--n", str(n),
            "--grid", "20", "--lambda-max", "40"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    run = subprocess.run([sys.executable, "-m", "sphmean.cli", *argv], env=env,
                         capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert run.returncode == 2, run.stdout + run.stderr
    assert run.stderr.startswith("numerical error:") and run.stderr.count("\n") == 1, \
        run.stderr
    assert "lam=" in run.stderr and "FAIL" not in run.stdout


@pytest.mark.parametrize("warnings", [[], ["-W", "error::RuntimeWarning"]],
                         ids=["default", "warnings-as-errors"])
@pytest.mark.parametrize("command", ["forward", "zeros"])
def test_a_harmonic_kernel_past_float_range_is_a_numerical_error(tmp_path, command, warnings):
    # the D^m Q^(m+k) sweep overflows a float at n = 3, m = 160: numpy's
    # warnings went to stderr, then forward blamed g = h / t^(n-2) and zeros
    # the transform magnitude
    out = tmp_path / "out.csv"
    argv = [command, "--config", _write_profile(tmp_path), "--n", "3", "--m", "160",
            "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    run = subprocess.run([sys.executable, *warnings, "-m", "sphmean.cli", *argv], env=env,
                         capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert run.returncode == 2, run.stdout + run.stderr
    assert run.stderr.startswith("numerical error:") and run.stderr.count("\n") == 1, \
        run.stderr
    assert "D^160 Q^160" in run.stderr and "n=3" in run.stderr, run.stderr
    assert run.stdout == "" and not out.exists()


@pytest.mark.parametrize("command, extra", [("forward", ["--grid", "5"]),
                                            ("zeros", ["--count", "2"])])
def test_a_front_constant_past_float_range_is_named(tmp_path, capsys, command, extra):
    # Gamma(n/2) in the front constant overflows a float from n = 345; the
    # refusal was a bare "math range error"
    argv = [command, "--config", _write_profile(tmp_path), "--n", "345", *extra,
            "--out", str(tmp_path / "out.csv")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "numerical error: the transform's front constant overflows a float at n=345\n")
    assert not (tmp_path / "out.csv").exists()


def test_zeros_passes_at_large_n(tmp_path, capsys):
    # at k = 149 the raw first kind, and with it the sign bessel_zero read,
    # underflowed: the scan took lam = 149.5 for a zero and the transform
    # there was NaN.  The normalized kernel stays in range, the zeros are
    # mpmath's, and the transform at each is 1.6e-15 of its summed
    # |integrand|, rounding
    out = tmp_path / "zeros.csv"
    assert cli.main(["zeros", "--config", _write_profile(tmp_path), "--n", "301",
                     "--count", "2", "--out", str(out)]) == 0
    assert "zeros: PASS" in capsys.readouterr().out
    assert _data_rows(out)[:, 0].tolist() == [bessel_zero(149, 1), bessel_zero(149, 2)]


def test_a_plain_run_never_imports_argparse(tmp_path):
    # argparse, with the gettext and locale lookups it sets off, costs a few
    # ms per run; only help, usage errors and the rarer spellings need it
    profile = _write_profile(tmp_path)
    runs = [["identities", "--max-k", "1"],
            ["forward", "--config", profile, "--grid", "5", "--out", "f.csv"]]
    code = ("import contextlib, io, sys\n"
            "from sphmean import cli\n"
            f"codes = [cli.main(argv) for argv in {runs!r}]\n"
            "seen = [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules]\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    codes.append(cli.main(['--help']))\n"
            "print(codes, seen, 'usage: smt' in out.getvalue())\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[0, 0, 0] [] True", run.stdout


def test_mk_check_retried_rows_stay_below_1e_60(tmp_path, capsys, monkeypatch):
    # only k = 0 rows next to a kernel zero go over the float retry threshold
    # (rows at k = 5 and 6 did too with the closed-form jet); re-measured over
    # 80-digit Decimals, what is left there is rounding noise
    retried, residual_mp = [], sp._mk_residual_mp

    def counted(k, lam, t):
        retried.append((k, float(lam), float(t)))
        return residual_mp(k, lam, t)

    monkeypatch.setattr(sp, "_mk_residual_mp", counted)
    out = tmp_path / "mk.csv"
    assert cli.main(["mk-check", "--k", "6", "--count", "100", "--seed", "7",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    residual, k = {}, None
    for line in out.read_text().splitlines():
        if line.startswith("# k "):
            k = int(line[4:])
        elif not line.startswith("#") and not line[0].isalpha():
            lam, t, res = map(float, line.split(","))
            residual[k, lam, t] = res
    assert retried and all(point[0] == 0 for point in retried), retried
    assert all(residual[point] < 1e-60 for point in retried), \
        [residual[point] for point in retried]


def test_mk_check_passes_exact_data_at_k_30(tmp_path, capsys):
    # the identity is exact at every k; the float jet loses its digits from
    # about k = 22 on, and those rows are re-measured at 80 digits.  The
    # bytes pin the float rows and the Decimal ones
    out = tmp_path / "mk.csv"
    assert cli.main(["mk-check", "--k", "30", "--count", "10", "--seed", "7",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "d84a8d8277ac60977259b7d403ccff716c7e3667b460f3210e536e13545cd9d5"


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


def test_zero_data_passes_every_analysis(tmp_path, capsys):
    # zero data has no scale (fmax 0): zeros writes ratio 0, as cross-check
    # does, where it used to exit 2 on a division by zero
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps({"profile": {"family": "bump", "center": 0.55,
                                           "width": 0.25, "n": 3, "amplitude": 0}}))
    for cmd in ("zeros", "range-check", "cross-check"):
        assert cli.main([cmd, "--config", str(cfg), "--out", str(tmp_path / cmd)]) == 0, cmd
    capsys.readouterr()
    assert "# fmax 0\n" in (tmp_path / "zeros").read_text()
    rows = _data_rows(tmp_path / "zeros")
    assert rows.shape == (10, 3) and np.all(rows[:, 1:] == 0.0)


@pytest.mark.parametrize("amplitude", [1e-320, 5e-324])
@pytest.mark.parametrize("argv", [["zeros", "--n", "3", "--count", "2"],
                                  ["cross-check", "--n", "3", "--grid", "3"],
                                  ["range-check", "--n", "5"]], ids=lambda argv: argv[0])
def test_data_that_underflowed_is_a_numerical_error(tmp_path, capsys, argv, amplitude):
    # the verdict's scale (fmax, the largest side, the symmetry scale) is
    # subnormal or 0 here: zeros and cross-check read PASS on it, range-check
    # FAIL at 1e-320 and PASS at 5e-324
    cfg = _write_profile(tmp_path)
    profile = json.loads(open(cfg).read())
    profile["profile"]["amplitude"] = amplitude
    (tmp_path / "tiny.json").write_text(json.dumps(profile))
    assert cli.main([*argv, "--config", str(tmp_path / "tiny.json")]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("numerical error:") and "not a positive normal float" in err, err
    assert "n=" + argv[2] in err and "PASS" not in out and "FAIL" not in out


@pytest.mark.parametrize("value, code", [("0.0", 0), ("1e-320", 2)])
def test_input_samples_all_zero_pass_and_subnormal_ones_are_refused(tmp_path, capsys,
                                                                   value, code):
    samples = tmp_path / "h.csv"
    samples.write_text("".join(f"{t!r},{value}\n" for t in np.linspace(0.05, 1.95, 41).tolist()))
    assert cli.main(["range-check", "--n", "3", "--input", str(samples)]) == code
    out, err = capsys.readouterr()
    assert ("range-check: PASS" in out) if code == 0 else err.startswith("numerical error:")


def test_a_g_that_is_not_finite_is_a_numerical_error(tmp_path, capsys):
    # at t = 0.05, h is 0 and t^(n-2) underflows to 0 from n = 251: g was NaN
    cfg = _write_profile(tmp_path)
    out = tmp_path / "fwd.csv"
    assert cli.main(["forward", "--config", cfg, "--n", "251", "--grid", "5",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical error:") and "t=0.05, n=251" in err, err
    assert not out.exists()
    assert cli.main(["forward", "--config", cfg, "--n", "249", "--grid", "5",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    assert "\n0.050000000000000003,0,0\n" in out.read_text()


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
    # the smallest singular value the solve kept, not the spectrum's rounding floor
    assert 1e-6 * diag["singular_value_max"] < diag["singular_value_min_kept"]


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


@pytest.mark.parametrize("warnings", [[], ["-W", "error::RuntimeWarning"]],
                         ids=["default", "warnings-as-errors"])
def test_a_ucp_demo_past_float_range_is_a_numerical_error(tmp_path, warnings):
    # F^(78)'s jet overflows in floats: once read as a NaN ratio and a FAIL,
    # with numpy's warnings on stderr and NaN in the JSON
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    run = subprocess.run([sys.executable, *warnings, "-m", "sphmean.cli", "ucp-demo",
                          "--n", "41", "--epsilon", "0.1", "--m", "78",
                          "--out", str(tmp_path / "run.csv")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 2
    assert run.stderr.startswith("numerical error:") and run.stderr.count("\n") == 1, \
        run.stderr
    assert run.stdout == "" and list(tmp_path.iterdir()) == []


def test_ucp_demo_rejects_low_order(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"n": 5, "epsilon": 0.2, "m": 3, "bump": [0.6, 0.15]}))
    assert cli.main(["ucp-demo", "--config", str(spec)]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# one option table: flags, config keys and checks


def _accepts_key(tmp_path, command, key):
    """Whether load_config takes `key` at the top level (any value type)."""
    path = tmp_path / "probe.json"
    path.write_text(json.dumps({key: None}))
    try:
        cli.load_config(str(path), command)
    except cli.ConfigError as exc:
        return "unknown config key" not in str(exc)
    return True


def test_flags_config_keys_and_table_agree(tmp_path):
    subparsers = cli._build_parser()._subparsers._group_actions[0].choices
    assert set(subparsers) == set(cli.OPTIONS)
    names = {name for options in cli.OPTIONS.values() for name in options}
    names |= {"profile", "quadrature", "inversion", "bump", "k", "threads"}
    total = 0
    for command, p in subparsers.items():
        flags = {s for a in p._actions for s in a.option_strings} - {"-h", "--help", "--config"}
        total += len(flags) + 1  # and --config
        table = set(cli.OPTIONS[command])
        assert flags == {"--" + n.replace("_", "-") for n in table}, command
        keys = {k for k in names if _accepts_key(tmp_path, command, k)}
        assert keys - cli._COMMAND_OBJECTS[command] == table, command
    assert total == 54


GOLDEN = {
    "forward": "c89c4e4ab19c8ef89abd74075605f5a5500dd33bf612d6065edb27bba6a365b9",
    "mk-check": "46e6db9895467f245e654fc2c6a70aec1c5e66d0c06b1798dec186b3bbca07b9",
    "ucp-demo": "7269893eae900bab0fa98ef4d68556882e9c35cdbab59f98ab248310ae74d53e",
}


def test_config_hashes_are_pinned(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 3, "epsilon": 0.25, "m": 2, "bump": [0.6, 0.15]}))
    runs = {"forward": ["forward", "--config", _write_profile(tmp_path), "--grid", "40"],
            "mk-check": ["mk-check", "--k", "1", "--count", "3"],
            "ucp-demo": ["ucp-demo", "--config", str(spec), "--grid", "16"]}
    for command, argv in runs.items():
        out = tmp_path / f"{command}.csv"
        assert cli.main(argv + ["--out", str(out)]) == 0
        artifact = tmp_path / "ucp-demo_g.csv" if command == "ucp-demo" else out
        assert f"# config sha256:{GOLDEN[command]}\n" in artifact.read_text(), command
    capsys.readouterr()


def _config_error(capsys, argv):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:"), err
    return err


def test_flags_a_command_does_not_read_are_refused(tmp_path, capsys):
    assert cli.main(["forward", "--config", _write_profile(tmp_path), "--tol", "1"]) == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


@pytest.mark.parametrize("value, message", [
    ('"abc"', "field 'grid' must be int"),
    ("7.9", "field 'grid' must be int"),
])
def test_top_level_config_values_are_checked(tmp_path, capsys, value, message):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"profile": {"family": "bump", "center": 0.55, "width": 0.25, '
                   '"n": 3}, "grid": ' + value + "}")
    assert message in _config_error(capsys, ["forward", "--config", str(cfg)])


def test_nan_config_values_are_config_errors(tmp_path, capsys):
    tol = tmp_path / "tol.json"
    tol.write_text(json.dumps({"profile": {"family": "bump", "center": 0.55,
                                           "width": 0.25, "n": 3}, "tol": float("nan")}))
    assert "'tol' must be finite" in _config_error(
        capsys, ["range-check", "--config", str(tol)])
    lam = tmp_path / "lam.json"
    lam.write_text(json.dumps({"lambda_max": float("nan")}))
    assert "'lambda_max' must be finite" in _config_error(
        capsys, ["mk-check", "--config", str(lam)])
    assert "--tol must be finite" in _config_error(capsys, ["mk-check", "--tol", "nan"])


def test_ucp_demo_reads_n_and_m_flags(tmp_path, capsys):
    spec = tmp_path / "ucp.json"
    spec.write_text(json.dumps({"n": 5, "epsilon": 0.2, "m": 6, "bump": [0.6, 0.15]}))
    out = tmp_path / "run.csv"
    assert cli.main(["ucp-demo", "--config", str(spec), "--n", "3", "--m", "2",
                     "--grid", "16", "--out", str(out)]) == 0
    capsys.readouterr()
    verdict = json.loads((tmp_path / "run.json").read_text())
    assert (verdict["n"], verdict["m"], verdict["epsilon"]) == (3, 2, 0.2)


def test_derivatives_flag_beats_the_config(tmp_path, capsys):
    out = tmp_path / "fwd.csv"
    cfg = _write_profile(tmp_path, derivatives=False)
    assert cli.main(["forward", "--config", cfg, "--grid", "5", "--derivatives",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    assert "t,g,h,dp_h_0\n" in out.read_text()


@pytest.mark.parametrize("argv, message", [
    (["identities", "--max-k", "-1"], "--max-k must be >= 0"),
    (["mk-check", "--count", "0"], "--count must be >= 1"),
    (["mk-check", "--k", "-1"], "--k must be >= 0"),
])
def test_empty_sweeps_are_refused(capsys, argv, message):
    assert message in _config_error(capsys, argv)


@pytest.mark.parametrize("command", ["cross-check", "range-check"])
def test_empty_grids_are_refused(tmp_path, capsys, command):
    assert "--grid must be >= 1" in _config_error(
        capsys, [command, "--config", _write_profile(tmp_path), "--grid", "0"])


def test_short_bump_is_a_config_error(tmp_path, capsys):
    spec = tmp_path / "ucp.json"
    spec.write_text(json.dumps({"n": 5, "epsilon": 0.2, "m": 6, "bump": [0.6]}))
    assert "'bump' must be a [center, width] pair" in _config_error(
        capsys, ["ucp-demo", "--config", str(spec)])


def test_nested_nan_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "nan.json"
    cfg.write_text(json.dumps({"profile": {"family": "bump", "center": float("nan"),
                                           "width": 0.25, "n": 3}}))
    assert "'profile.center' must be finite" in _config_error(
        capsys, ["forward", "--config", str(cfg), "--grid", "3"])


def test_overflow_prints_only_its_error_line(tmp_path):
    # in a process of its own, so that numpy's warnings reach stderr
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"lambda_max": 1e300, "count": 3, "k": 2}))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    run = subprocess.run([sys.executable, "-m", "sphmean.cli", "mk-check",
                          "--config", str(cfg)], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 2
    assert run.stderr.startswith("numerical error:") and run.stderr.count("\n") == 1, \
        run.stderr


# sha256 of whole spectral artifacts from the README's profile.json, each
# lambda array summed on the oscillation rule of its largest lambda: a faster
# path through the transforms must not move a byte.  Re-pin only with every
# value checked against smtbench/reference.py and against its error estimate
# from the same rule with twice the panels.
ARTIFACTS = {
    "zeros": (["zeros", "--count", "10"],
              "0013e809be2c0bf2818b309cb8bcdb3e039bb8a999fe2f8cf098cbc86e14ac31"),
    "cross-check": (["cross-check", "--grid", "20", "--lambda-max", "40"],
                    "55775abe7c464d6302e7ddf8e8b77be765423d0182562ba5bfa1dba42bf499f9"),
}


@pytest.mark.parametrize("command", sorted(ARTIFACTS))
def test_spectral_artifact_bytes_are_pinned(tmp_path, capsys, command):
    argv, digest = ARTIFACTS[command]
    out = tmp_path / f"{command}.csv"
    assert cli.main(argv + ["--config", _write_profile(tmp_path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of the forward-family artifacts: the README profile, except ucp-demo
# (its own spec).  Forward data are summed per distinct u-interval and every
# D^p order in one sweep; no row may move a bit.
UCP_SPEC = {"n": 5, "epsilon": 0.2, "m": 6, "bump": [0.6, 0.15]}
FORWARD_ARTIFACTS = {
    "forward-n9": (["forward", "--n", "9", "--grid", "2001", "--derivatives"], None,
                   {"": "f4c423ac0f87d94aaf73beb192f6ad1c0a21c55d2d43f9b03179699b9d753fcc"}),
    "forward-n5-m2": (["forward", "--n", "5", "--m", "2", "--grid", "2001"], None,
                      {"": "ac37798e685288492897cd2027515be5ca684eb59da2cbd4b1ced11bc0570b35"}),
    "ucp-demo": (["ucp-demo"], UCP_SPEC,
                 {"_g": "c51bbb474a72c60ec43ce61aba9a9c453f40794eefa7e679e779ddd8d66664c4",
                  "_f": "71a2cc6765e49c3646b51ac45e1370a4058515ae4f4929d4b135a9ef2f78a9b4"}),
    # h and D^p h in one sweep: k = 0 (n = 3) and k = 1 (n = 5)
    "forward-n3": (["forward", "--n", "3", "--grid", "2001", "--derivatives"], None,
                   {"": "2d8d32c494aa22717f3375d465353dac5c818f2067268bc879d0f9be51db4cca"}),
    "forward-n5": (["forward", "--n", "5", "--grid", "2001", "--derivatives"], None,
                   {"": "b9bd322fe93affb39330aae0b0c0878bba93dee7b6b4aa3aa69797a54950e111"}),
    # order-2 jets of the bump
    "ucp-demo-n3-m2": (["ucp-demo", "--n", "3", "--m", "2", "--epsilon", "0.2"], {},
                       {"_g": "92984d0436b970e630aa55761127ce0a350dd8d0879881b93d69a6e0f54c3919",
                        "_f": "507568e1efd2ec63465eb3c1b7473eee09be2c055fd6bcbd56c5de892011e15d"}),
}


@pytest.mark.parametrize("job", sorted(FORWARD_ARTIFACTS))
def test_forward_artifact_bytes_are_pinned(tmp_path, capsys, job):
    argv, spec, digests = FORWARD_ARTIFACTS[job]
    if spec is None:
        config = _write_profile(tmp_path)
    else:
        config = tmp_path / "spec.json"
        config.write_text(json.dumps(spec))
    assert cli.main(argv + ["--config", str(config), "--out", str(tmp_path / "run.csv")]) == 0
    capsys.readouterr()
    for suffix, digest in digests.items():
        artifact = tmp_path / f"run{suffix}.csv"
        assert hashlib.sha256(artifact.read_bytes()).hexdigest() == digest, suffix


def test_zeros_scale_uses_the_transform_it_divides(tmp_path, capsys):
    # for harmonic data the transform at the zeros has kernel order k, so
    # its scale is the sweep of that same transform
    out = tmp_path / "zeros.csv"
    assert cli.main(["zeros", "--config", _write_profile(tmp_path), "--m", "2",
                     "--count", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    dim = Dimension(3)
    data = HarmonicForwardData(BumpProfile(0.55, 0.25), dim, 2)
    grid = np.linspace(0.3, bessel_zero(2 + dim.k, 4) + 2.0, 40)
    # one array call on the sweep: it has the top lam, so the CLI's rule
    fmax = float(np.max(np.abs(sp.hankel_h(data.h, dim.k, grid, support=data.support))))
    assert "# fmax %.17g\n" % fmax in out.read_text()
    rows = _data_rows(out)
    assert np.array_equal(rows[:, 2], rows[:, 1] / fmax)


@pytest.mark.parametrize("argv, extra, message", [
    (["mk-check", "--seed", "-1"], None, "--seed must be >= 0"),
    (["zeros", "--m", "-1"], {}, "--m must be >= 0"),
    (["forward", "--n", "1"], {}, "--n must be >= 3"),
    (["forward"], {"quadrature": {"nodes": 0}}, "'quadrature.nodes' must be >= 2"),
    (["zeros"], {"quadrature": {"panels": 0}}, "'quadrature.panels' must be >= 1"),
    (["ucp-demo", "--n", "5", "--epsilon", "0.2", "--m", "6", "--grid", "1"], None,
     "--grid must be >= 16"),
    # mk-check draws lam from [0.5, lambda-max]; a negative tol always FAILs
    (["mk-check", "--lambda-max", "0.3"], None, "--lambda-max must be >= 0.5"),
    (["range-check", "--tol", "-1"], {}, "--tol must be >= 0"),
    (["cross-check", "--tol", "-1"], {}, "--tol must be >= 0"),
    (["mk-check", "--tol", "-1"], None, "--tol must be >= 0"),
    (["zeros", "--tol", "-1"], {}, "--tol must be >= 0"),
    (["ucp-demo", "--n", "3", "--epsilon", "0.2", "--m", "2", "--tol", "-1"], None,
     "--tol must be >= 0"),
    (["zeros"], {"tol": -1.0}, "field 'tol' must be >= 0"),
], ids=["seed", "m", "n", "quadrature.nodes", "quadrature.panels", "ucp-demo.grid",
        "mk-check.lambda_max", "range-check.tol", "cross-check.tol", "mk-check.tol",
        "zeros.tol", "ucp-demo.tol", "config.tol"])
def test_out_of_range_values_are_config_errors(tmp_path, capsys, argv, extra, message):
    if extra is not None:
        argv = argv + ["--config", _write_profile(tmp_path, **extra)]
    assert message in _config_error(capsys, argv)


def test_even_n_stays_a_domain_error(tmp_path, capsys):
    assert cli.main(["forward", "--config", _write_profile(tmp_path), "--n", "4"]) == 2
    assert capsys.readouterr().err.startswith("domain error: n must be odd")


# config hashes of the other five subcommands (small runs: the hash covers
# the effective configuration, not the numbers)
GOLDEN.update({
    "invert": "de90c4b76c4d8753f23a9eae89f3008e5b6bb6d47f7a77b2d9006d0c8141b155",
    "range-check": "627f51d60ed09cf916eb5f8fb0d546178520c84fef57b8cfa72c297d73158bb9",
    "cross-check": "7b52999e0cd5bee9faaf4b12874ce8f347294fcfaafb92bc18370e980be37bc3",
    "identities": "655ffd00284729fe3d7369c51acc6a9fd8a5f20a1d86fb65a3c1705cc64dd3f4",
    "zeros": "1aaccc8a387bbdf71989222259a1fd31976313e517323bcfebcd2ce9499b5371",
})


def _config_hash_of(path) -> str:
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)["config_sha256"]
    return text.split("# config sha256:", 1)[1].split("\n", 1)[0]


def test_every_subcommand_config_hash_is_pinned(tmp_path, capsys):
    profile = _write_profile(tmp_path)
    fwd = tmp_path / "fwd.csv"
    assert cli.main(["forward", "--config", profile, "--grid", "301", "--out", str(fwd)]) == 0
    runs = {"invert": ["invert", "--n", "3", "--input", str(fwd)],
            "range-check": ["range-check", "--config", profile, "--grid", "11"],
            "cross-check": ["cross-check", "--config", profile, "--grid", "3",
                            "--lambda-max", "10"],
            "identities": ["identities", "--max-k", "2"],
            "zeros": ["zeros", "--config", profile, "--count", "2"]}
    for command, argv in runs.items():
        out = tmp_path / (f"{command}.json" if command == "range-check" else f"{command}.csv")
        assert cli.main(argv + ["--out", str(out)]) == 0, command
        assert _config_hash_of(out) == GOLDEN[command], (command, _config_hash_of(out))
    capsys.readouterr()


def test_ucp_demo_hashes_a_config_tol_as_its_flag(tmp_path, capsys):
    # an integer tol in the config is the same run as --tol 1
    digests = []
    for name, config, flags in (("cfg", {**UCP_SPEC, "tol": 1}, []),
                                ("flag", UCP_SPEC, ["--tol", "1"])):
        spec = tmp_path / f"{name}.json"
        spec.write_text(json.dumps(config))
        out = tmp_path / f"{name}.csv"
        assert cli.main(["ucp-demo", "--config", str(spec), "--grid", "16",
                         "--out", str(out), *flags]) == 0
        digests.append(_config_hash_of(tmp_path / f"{name}.json"))
    capsys.readouterr()
    assert digests[0] == digests[1] == (
        "e618cdfb64b8d88be46710b5a8ab4ea0f8d1a8d3db785e7c124b3dcfe4bee1fc"), digests


# sha256 of the artifacts of the other subcommands on the README profile
# (invert and range-check --input read its 2001-point forward table): the
# shared run assembly (cli._Run) must not move a byte
RUN_ARTIFACTS = {
    # one gelsd solve: the same bytes under one BLAS thread or several
    "invert": (["invert", "--n", "3", "--input", "FWD"], "rec.csv", 0, {
        "rec.csv": "ff0f236b35b505c2d0c3be2833db0e41a01e2a761a17ab45b474f74d943bae91",
        "rec.json": "3d040c4606c6521dc653c9a090f7798e287799be619e8b761bf77ba7a2f58f8c"}),
    "range-check-m0": (["range-check", "--config", "PROFILE"], "rc.json", 0, {
        "rc.json": "ce712c967158db120fda3737d74eb6c640ef063ca4515a2e69301084a6db8fcf"}),
    "range-check-m2": (["range-check", "--config", "PROFILE", "--m", "2"], "rc.json", 0, {
        "rc.json": "c0910179f2e068995b3afcd4a9601805e559d622f092cbc645646221782d62a5"}),
    "range-check-input": (["range-check", "--n", "3", "--input", "SAMPLES"], "rc.json", 0, {
        "rc.json": "d8049b3845adcee198fbc37a982dc8af1c01522a1bac82833caaee0a7d44d0ef"}),
    "range-check-input-m2": (
        ["range-check", "--n", "3", "--m", "2", "--input", "SAMPLES"], "rc.json", 1, {
            "rc.json": "b8c5a43fb697da3af0c27467eac2410891eac6d150d604d0d4e38404f8b95d0c"}),
    "identities": (["identities"], "ids.csv", 0, {
        "ids.csv": "d8f9f3664f81b94bfeae980470371c4c52bab31b4e8f4b291303f83d1b3abf2c"}),
    # its k = 0 rows next to a kernel zero take the 80-digit retry of mk_residual
    "mk-check": (["mk-check", "--k", "6", "--count", "100", "--seed", "7"], "mk.csv", 0, {
        "mk.csv": "04810d4f89b92544fd06703fd955d3576242822bea25e65290e3d8527a3de09b"}),
    "zeros-m2": (["zeros", "--config", "PROFILE", "--m", "2"], "zeros.csv", 0, {
        "zeros.csv": "71714dfc48a4e691090415fb3150c14e160d876598c8ea491973cddb3955690e"}),
    "zeros-n9": (["zeros", "--config", "PROFILE", "--n", "9"], "zeros.csv", 0, {
        "zeros.csv": "58e67de54960f04b3681bc056679b05e633caa2d0ac8ad80b8459ddea53b3cfd"}),
    # the known FAIL of ROADMAP item 2: the pin holds its bytes until the fix
    "cross-check-m2": (["cross-check", "--config", "PROFILE", "--m", "2"], "cc.csv", 1, {
        "cc.csv": "1c3ee70a53f3a27abb6784b419677df320c6b764f11dca29c673365f737a79d2"}),
}


@pytest.mark.parametrize("job", sorted(RUN_ARTIFACTS))
def test_run_artifact_bytes_are_pinned(tmp_path, capsys, job):
    argv, out, code, digests = RUN_ARTIFACTS[job]
    files = {"PROFILE": _write_profile(tmp_path)}
    if "FWD" in argv or "SAMPLES" in argv:
        fwd = tmp_path / "fwd.csv"
        assert cli.main(["forward", "--config", files["PROFILE"], "--grid", "2001",
                         "--out", str(fwd)]) == 0
        rows = [line.split(",") for line in fwd.read_text().splitlines()
                if not line.startswith(("#", "t"))]
        samples = tmp_path / "samples.csv"
        samples.write_text("t,h\n" + "".join(f"{t},{h}\n" for t, _, h in rows))
        files.update(FWD=str(fwd), SAMPLES=str(samples))
    argv = [files.get(a, a) for a in argv] + ["--out", str(tmp_path / out)]
    assert cli.main(argv) == code
    capsys.readouterr()
    for name, digest in digests.items():
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == digest, (name, got)
