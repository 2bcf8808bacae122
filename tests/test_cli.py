"""Command-line behavior: exit codes, artifact headers, reproducibility,
and the file-based forward/invert round trip."""

import hashlib
import itertools
import json
import math
import os
import shlex
import subprocess
import sys
from decimal import Decimal

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


@pytest.mark.parametrize("case", SURFACE, ids=_surface_id)
def test_a_run_prints_what_the_full_parser_prints(monkeypatch, capsys, case):
    monkeypatch.setenv("COLUMNS", "80")
    seen, build_one = [], cli._build_parser
    for build in (build_one, lambda commands: build_one()):
        monkeypatch.setattr(cli, "_build_parser", build)
        seen.append((cli.main(case["argv"]), capsys.readouterr()))
    assert seen[0] == seen[1]


def test_a_run_registers_only_its_own_subcommand(monkeypatch, capsys):
    built, build = [], cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda *a: built.append(build(*a)) or built[-1])
    # --flag=value is a spelling only argparse reads
    assert cli.main(["identities", "--max-k=1"]) == 0
    capsys.readouterr()
    [parser] = built
    assert list(parser._subparsers._group_actions[0].choices) == ["identities"]


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


@pytest.mark.parametrize("m, extra, reader", [
    (0, [], "forward_h"), (0, ["--derivatives"], "forward_h"),
    (2, [], "forward_harmonic_h")])
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


def _cell_text(value) -> str:
    """The per-cell rule a CSV row's one % format must reproduce."""
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def test_a_csv_row_is_written_as_its_cells_would_be():
    from fractions import Fraction

    cells = [1.5, -0.0, 1e-320, float("inf"), float("nan"), np.float64(-2.5),
             np.float64("nan"), "PASS", "", True, False, np.True_, np.False_, 0, -7,
             2 ** 70 + 1, -(2 ** 64) - 1, np.int64(-7), np.uint64(2 ** 64 - 1), np.int8(3),
             np.float32(0.1), Fraction(1, 3)]
    assert cli._fmt(*cells) == ",".join(map(_cell_text, cells))
    for cell in cells:
        assert cli._fmt(cell) == _cell_text(cell), repr(cell)


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


def test_no_subcommand_imports_mpmath(tmp_path):
    # high-precision work runs on the standard library's decimal, also in the
    # 80-digit retries of mk-check and in cross-check's escalation at m = 2
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
            "print(codes, 'mpmath' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    # cross-check --m 2 is the known FAIL of the cross-check-m2 pin
    assert run.stdout.splitlines()[-1] == "[0, 0, 0, 1, 0, 0, 0, 0] False", run.stdout


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
    # the rows over the float retry threshold are re-measured with 80-digit
    # Decimal jets; what is left there is rounding noise
    retried, lhs_value = [], sp._mk_lhs_value

    def counted(k, lam, t):
        if isinstance(lam, Decimal):
            retried.append((k, float(lam), float(t)))
        return lhs_value(k, lam, t)

    monkeypatch.setattr(sp, "_mk_lhs_value", counted)
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
    assert len(retried) == 11
    assert all(residual[point] < 1e-60 for point in retried), \
        [residual[point] for point in retried]


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
              "373c6ec977419489badff2198db397dda81b6b9088a6228cb60681f6e7ff411e"),
    "cross-check": (["cross-check", "--grid", "20", "--lambda-max", "40"],
                    "d98f7e5c2b4879212a710852e4f2dd6af647b10193f81f89c500bc19db57d2ce"),
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
                   {"": "1f106a22f43bc90aaf7e5a4591b87649934fdee08353deb8ced15062ec2c8ede"}),
    "forward-n5-m2": (["forward", "--n", "5", "--m", "2", "--grid", "2001"], None,
                      {"": "f13bc5ed746a1b907b7be5af749599a8d58e4426f44dfa7bfa77d9de141d5fdc"}),
    "ucp-demo": (["ucp-demo"], UCP_SPEC,
                 {"_g": "05ce7215b38e5e3ec288139d91bc85eac27336550044043ddb2651a6d95fbb17",
                  "_f": "71a2cc6765e49c3646b51ac45e1370a4058515ae4f4929d4b135a9ef2f78a9b4"}),
    # h and D^p h in one sweep: k = 0 (n = 3) and k = 1 (n = 5)
    "forward-n3": (["forward", "--n", "3", "--grid", "2001", "--derivatives"], None,
                   {"": "1d5d6eddb34a65d1749975e4ebb64352b4a5091277c14b673f4eb653cd19b6ab"}),
    "forward-n5": (["forward", "--n", "5", "--grid", "2001", "--derivatives"], None,
                   {"": "6ab6f509689dda53ab91fa108ac543c1591800136fa5da17dc2b0f73a6b7b1d9"}),
    # order-2 jets of the bump
    "ucp-demo-n3-m2": (["ucp-demo", "--n", "3", "--m", "2", "--epsilon", "0.2"], {},
                       {"_g": "84bdb0dfdff07cc0142bc490701ff3464ff832cd1edb155fade60d7822343fd7",
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
    assert f"# fmax {cli._fmt(fmax)}\n" in out.read_text()
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
    # pinned under one BLAS thread (ONE_BLAS_THREAD)
    "invert": (["invert", "--n", "3", "--input", "FWD"], "rec.csv", 0, {
        "rec.csv": "7b286c50b17e9fe8b9bc37462f26451e9f4d769c5d20d14bcdb2f81ff35435ba",
        "rec.json": "6988a6c73bddac0589e6b6070235afc8ce58341ebf81bf6945ff252feeec7792"}),
    "range-check-m0": (["range-check", "--config", "PROFILE"], "rc.json", 0, {
        "rc.json": "4a358a2ab7cfb1d55e0f12bc84d018161a6cf698ec29f4e63aaab1d1acabf998"}),
    "range-check-m2": (["range-check", "--config", "PROFILE", "--m", "2"], "rc.json", 0, {
        "rc.json": "a8c2b32ac7221027fab396b1dd5c51126c2ec2fc36aceb55bd7bb91430271a30"}),
    "range-check-input": (["range-check", "--n", "3", "--input", "SAMPLES"], "rc.json", 0, {
        "rc.json": "098c1ee7d274733fcdf1e14d9031644fc603f1085490a8128cb502f29ed35274"}),
    "range-check-input-m2": (
        ["range-check", "--n", "3", "--m", "2", "--input", "SAMPLES"], "rc.json", 1, {
            "rc.json": "b7cba2612f63c1791e2095dadcafbe7b72c3baa6b60bec2b64f7b0cb59c32af3"}),
    "identities": (["identities"], "ids.csv", 0, {
        "ids.csv": "d8f9f3664f81b94bfeae980470371c4c52bab31b4e8f4b291303f83d1b3abf2c"}),
    # 11 of its rows take the 80-digit retry of mk_residual
    "mk-check": (["mk-check", "--k", "6", "--count", "100", "--seed", "7"], "mk.csv", 0, {
        "mk.csv": "2cced87c68369a1e60d1190672e13cdb6674cabd75ed7118b3f54caf061f8202"}),
    "zeros-m2": (["zeros", "--config", "PROFILE", "--m", "2"], "zeros.csv", 0, {
        "zeros.csv": "57508bb8b5012bf16cd3b151f2647f4e90f18b7c74276e37af36b9fbece793e5"}),
    "zeros-n9": (["zeros", "--config", "PROFILE", "--n", "9"], "zeros.csv", 0, {
        "zeros.csv": "da6fc3eaa06af5e134178d5f4de8cd72bdce0a020682199555de5a225bd2aa4b"}),
    # the known FAIL of ROADMAP item 2: the pin holds its bytes until the fix
    "cross-check-m2": (["cross-check", "--config", "PROFILE", "--m", "2"], "cc.csv", 1, {
        "cc.csv": "f53f4c72de36b892ae8dcecd0ee7d68a403927d60c51eddab60ec765da76cd62"}),
}


# The SVD of `invert` returns other U and Vt bits under one BLAS thread than
# under several, so its pins hold for one thread, the benchmark's setting:
# the job runs in a process of its own with every BLAS pool set to one thread.
ONE_BLAS_THREAD = {"invert"}
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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
    if job in ONE_BLAS_THREAD:
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)),
                   **dict.fromkeys(_BLAS_THREAD_VARS, "1"))
        run = subprocess.run([sys.executable, "-m", "sphmean.cli", *argv], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == code, run.stderr
    else:
        assert cli.main(argv) == code
    capsys.readouterr()
    for name, digest in digests.items():
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == digest, (name, got)
