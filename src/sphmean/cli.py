"""Command-line front end: every check in the package as a subcommand.

A subcommand is declared once.  `OPTIONS` lists its options, each both a
--flag and a top-level key of the --config JSON file; `_COMMAND_OBJECTS`
lists the config-only objects it takes, and `_OBJECTS` the library class
each object builds.  Its handler in `_COMMANDS` receives a resolved `_Run`
and keeps only its numerics and its artifact columns.  One class, `_Run`,
does the rest for every subcommand: it resolves each option (flag, else
config, else default; a float option is a float from then on), builds the
declared objects with the library classes' own defaults for the keys left
out, reads the --input samples, and derives the effective configuration and
its hash from those resolved values; `_run` prints the handler's verdict
line and maps the verdict to the exit code.

`_plain_args` reads a plain argv (an exact command name, then only that
command's exact --flags and --config, each but a bool flag followed by a
value not starting with '-' that its type converts) straight off `OPTIONS`:
a plain run neither imports argparse nor builds a parser.  argparse reads
every other argv (--flag=value, a unique prefix, a negative value) and stays
the one source of help, usage and error text.  It builds only the run's own
subcommand's parser; no command, --help, --version or an unknown command
gets the parser of all eight.

Artifacts are reproducible by construction: each output file starts with a
comment header carrying the tool version, a SHA-256 hash of the effective
run configuration (canonical JSON), and the seed; floats are written with 17
significant digits, and JSON files use stable key ordering.  Identical
configurations therefore produce byte-identical outputs on one platform.

Exit codes: 0 when the run succeeds (and any verdict is PASS), 1 when a
verdict is FAIL (for a refused inversion, "invert: FAIL (...)" on stderr),
2 for usage, config, domain or numerical errors (reported as
"config error:", "domain error:" and "numerical error:").
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import types
from functools import lru_cache

import numpy as np

from . import __version__
from .exactmath import identity_sweeps
from .inverse import InversionConfig, invert_radial
from .rangecheck import SampledH, default_grid, general_range_check
from .spectral import bessel_zero_vanishing, cross_product_terms, mk_residual
from .transform import (
    DEFAULT_QUAD,
    BumpProfile,
    Dimension,
    HarmonicForwardData,
    QuadratureRule,
    SmtProfile,
    g_from_h,
)
from . import ucp as ucp_mod

# 64-bit default seed, the bytes "SMT1"
DEFAULT_SEED = 0x534D5431


class ConfigError(Exception):
    """Malformed or out-of-schema run configuration."""


class _Refused(Exception):
    """The method declined the run: a FAIL verdict, reported on stderr."""


# ---------------------------------------------------------------------------
# options and configuration

# Each subcommand's options: name -> (type, default, least value, help).
# Every option is both a --flag and a top-level config key; its value is the
# flag's, else the config's, else the default.  A run refuses to start while
# a REQUIRED option has no value.
REQUIRED = object()
_N = (int, REQUIRED, 3, "ambient dimension (odd, >= 3)")
_M = (int, 0, 0, "harmonic degree of the data")
_SHARED = {"seed": (int, DEFAULT_SEED, 0, "RNG seed, echoed in each artifact"),
           "out": (str, None, None, "output file path (default stdout)")}
OPTIONS = {command: {**options, **_SHARED} for command, options in {
    "forward": {"n": _N, "m": _M, "grid": (int, 201, 1, "number of t points"),
                "derivatives": (bool, False, None,
                                "also write dp_h_0..dp_h_k columns (m = 0)")},
    "invert": {"n": _N, "input": (str, REQUIRED, None, "CSV of (t, g) samples")},
    "range-check": {"n": _N, "m": _M,
                    "input": (str, None, None, "CSV of (t, h) samples"),
                    "grid": (int, 101, 1, "number of check points"),
                    "tol": (float, 1e-6, 0, "verdict tolerance")},
    "cross-check": {"n": _N, "m": _M,
                    "lambda_max": (float, 40.0, None, "upper end of the lambda sweep"),
                    "grid": (int, 20, 1, "number of lambda values"),
                    "tol": (float, 1e-8, 0, "verdict tolerance")},
    "mk-check": {"k": (int, 6, 0, "largest kernel order"),
                 "count": (int, 100, 1, "random points per order"),
                 "lambda_max": (float, 20.0, 0.5, "upper end of the lambda draw"),
                 "tol": (float, 1e-8, 0, "verdict tolerance")},
    "identities": {"max_k": (int, 8, 0, "sweep bound")},
    "zeros": {"n": _N, "m": _M, "count": (int, 10, 1, "number of kernel zeros"),
              "tol": (float, 1e-6, 0, "verdict tolerance")},
    "ucp-demo": {"n": _N, "epsilon": (float, REQUIRED, None, "half-width of the band"),
                 "m": (int, REQUIRED, None, "derivative order of the profile"),
                 "grid": (int, 201, ucp_mod.MIN_GRID, "number of t points"),
                 "tol": (float, None, 0,
                         "verdict tolerance (default from the quadrature)")},
}.items()}

# config-only objects: the library class each builds, and its keys, name ->
# (type, least value, the class's argument); keys left out keep the class's
# defaults.  "bump" is UcpSpec's [center, width] pair.
_OBJECTS = {
    "profile": (BumpProfile, {"family": (str, None, None),
                              "center": (float, None, "center"),
                              "width": (float, None, "width"),
                              "amplitude": (float, None, "amplitude"),
                              "n": (int, 3, None), "m": (int, 0, None)}),
    "quadrature": (QuadratureRule, {"nodes": (int, 2, "nodes_per_panel"),
                                    "panels": (int, 1, "panels")}),
    "inversion": (InversionConfig, {"n_unknowns": (int, None, "n_unknowns"),
                                    "n_collocation": (int, None, "n_collocation"),
                                    "svd_cutoff": (float, None, "svd_cutoff")}),
}
_COMMAND_OBJECTS = {"forward": {"profile", "quadrature"}, "invert": {"inversion"},
                    "range-check": {"profile", "quadrature"},
                    "cross-check": {"profile", "quadrature"}, "mk-check": set(),
                    "identities": set(), "zeros": {"profile", "quadrature"},
                    "ucp-demo": {"bump", "quadrature"}}
# the rule a command's library entry integrates with by default
_DEFAULT_QUAD = {"ucp-demo": ucp_mod.UCP_QUAD}
_KINDS = {int: int, float: (int, float), str: str, bool: bool}


def _checked(value, kind, least, name):
    """`value` as a `kind` (an int given for a float becomes a float);
    ConfigError unless it is a `kind`, finite, and >= `least`."""
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, _KINDS[kind]):
        raise ConfigError(f"{name} must be {kind.__name__}")
    if kind is float and not -math.inf < value < math.inf:
        raise ConfigError(f"{name} must be finite")
    if least is not None and value < least:
        raise ConfigError(f"{name} must be >= {least}")
    return float(value) if kind is float else value


def load_config(path: str, command: str) -> dict:
    """Read and schema-validate a JSON run configuration for `command`;
    every float value comes back as a float."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
        cfg = json.loads(raw)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error in {path}: line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    for key, value in cfg.items():
        if key in OPTIONS[command]:
            kind, _, least, _ = OPTIONS[command][key]
            cfg[key] = _checked(value, kind, least, f"field '{key}'")
        elif key not in _COMMAND_OBJECTS[command]:
            raise ConfigError(f"unknown config key '{key}' for {command}")
        elif key == "bump":
            if not (isinstance(value, list) and len(value) == 2):
                raise ConfigError("field 'bump' must be a [center, width] pair")
            cfg[key] = [_checked(v, float, None, "field 'bump'") for v in value]
        elif not isinstance(value, dict):
            raise ConfigError(f"field '{key}' must be an object")
        else:
            for name, v in value.items():
                if name not in _OBJECTS[key][1]:
                    raise ConfigError(f"unknown key '{key}.{name}'")
                kind, least, _ = _OBJECTS[key][1][name]
                value[name] = _checked(v, kind, least, f"field '{key}.{name}'")
    return cfg


def _options(args):
    """The run's config and the value of each of its command's options.

    A profile that supplies the data (no input file) sets n and m ahead of
    the config's top level.
    """
    cfg = load_config(args.config, args.command) if args.config else {}
    layers = [cfg]
    if getattr(args, "input", None) is None and "input" not in cfg:
        layers.insert(0, cfg.get("profile", {}))
    opts = {}
    for name, (kind, default, least, _) in OPTIONS[args.command].items():
        value = getattr(args, name)
        if value is None:
            value = next((layer[name] for layer in layers if name in layer), default)
        else:
            value = _checked(value, kind, least, _flag(name))
        opts[name] = value
    return cfg, opts


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _build(name: str, block: dict):
    """The library object a config block describes."""
    cls, keys = _OBJECTS[name]
    return cls(**{keys[key][2]: value for key, value in block.items() if keys[key][2]})


def _hashed(name: str, obj) -> dict:
    """An object's effective configuration: every key, defaults included."""
    return {key: getattr(obj, arg) for key, (_, _, arg) in _OBJECTS[name][1].items() if arg}


def _profile(block):
    if block is None:
        raise ConfigError("a profile spec is required "
                          "(--config with a 'profile' object)")
    family = block.get("family", "bump")
    if family != "bump":
        raise ConfigError(f"unknown profile family '{family}'")
    if "center" not in block or "width" not in block:
        raise ConfigError("profile needs 'center' and 'width'")
    return _build("profile", block)


def _forward_data(prof, n: int, m: int, quad: QuadratureRule):
    dim = Dimension(n)
    if m == 0:
        return SmtProfile(prof, dim, quad)
    return HarmonicForwardData(prof, dim, m, quad)


class _Run:
    """One resolved run: the handler's inputs, and the stamp of its artifacts.

    `opts` holds every option's value.  `data` is the forward data of the
    profile, `samples` the sorted --input rows, `quad` and `inversion` the
    declared objects and `spec` ucp-demo's UcpSpec, each None where the
    command takes none.  `effective` is the hashed configuration: the
    command, every option but `out` and `input`, each built object with its
    defaults, and for --input the row count (and, except for invert, which
    never hashed it, the file's name).
    """

    def __init__(self, args):
        command = args.command
        cfg, opts = _options(args)
        self.opts, self.seed, self.out = opts, opts["seed"], opts["out"]
        declared = _COMMAND_OBJECTS[command]
        self.data = self.samples = self.quad = self.inversion = self.spec = None
        effective = {"command": command}
        effective.update((k, v) for k, v in opts.items() if k not in ("out", "input"))
        profile = None
        if "profile" in declared and opts.get("input") is None:
            profile = _profile(cfg.get("profile"))
            effective["profile"] = {"family": "bump", **_hashed("profile", profile)}
        if "quadrature" in declared:
            self.quad = (_build("quadrature", cfg["quadrature"]) if "quadrature" in cfg
                         else _DEFAULT_QUAD.get(command, DEFAULT_QUAD))
            effective["quadrature"] = _hashed("quadrature", self.quad)
        if "inversion" in declared:
            self.inversion = _build("inversion", cfg.get("inversion", {}))
            effective["inversion"] = _hashed("inversion", self.inversion)
        for name, value in opts.items():
            if value is REQUIRED:
                raise ConfigError(f"{_flag(name)} (or config key '{name}') is required")
        if profile is not None:
            self.data = _forward_data(profile, opts["n"], opts["m"], self.quad)
        if opts.get("input") is not None:
            self.samples = _read_csv_columns(opts["input"], 2)
            effective["rows"] = len(self.samples)
            if command != "invert":
                effective["input"] = os.path.basename(opts["input"])
        if "bump" in declared:
            bump = {"bump": tuple(cfg["bump"])} if "bump" in cfg else {}
            try:
                self.spec = ucp_mod.UcpSpec(n=opts["n"], epsilon=opts["epsilon"],
                                            m=opts["m"], **bump)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            effective["bump"] = list(self.spec.bump)
        self.effective = effective
        self.hash = _config_hash(effective)

    def emit_csv(self, columns, rows, out=None, comments=()):
        """A CSV artifact at `out` (default the run's --out, else stdout);
        a str row is written as it is (a comment line)."""
        lines = [f"# smt {__version__}", f"# config sha256:{self.hash}",
                 f"# seed {self.seed}", *(f"# {c}" for c in comments), ",".join(columns)]
        lines.extend(row if isinstance(row, str) else _fmt(*row) for row in rows)
        _write(out or self.out, "\n".join(lines) + "\n")

    def emit_json(self, payload: dict, out=None):
        """A JSON artifact at `out` (default the run's --out, else stdout)."""
        payload = {**payload, "tool_version": __version__,
                   "config_sha256": self.hash, "seed": self.seed}
        _write(out or self.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# artifact writing


def _config_hash(effective: dict) -> str:
    blob = json.dumps(effective, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@lru_cache(maxsize=None)
def _row_format(kinds) -> str:
    """One % format for a row of cells of types `kinds`: a str as it is, a
    bool as 1/0, an int as str(int(v)) (%.17g would round it above 2^53),
    and a float, or anything else, as %.17g of float(v)."""
    return ",".join("%s" if issubclass(k, str) else "%d" if issubclass(
        k, (int, np.integer, np.bool_)) else "%.17g" for k in kinds)


def _fmt(*cells) -> str:
    """The CSV text of a row of cells, in one % format."""
    return _row_format(tuple(map(type, cells))) % cells


def _write(out, text: str):
    """Write `text` to the path `out`, or to stdout for None."""
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_csv_columns(path: str, expect: int):
    """Read a 2-column numeric CSV, skipping '#' comments and a leading BOM.
    Each cell is read as float() reads it (so '1_000' and Unicode digits
    too), and columns past the second are ignored.  The first other row may
    be a header, a row float() refuses; any later row that is not numeric,
    or holds a value that is not finite, is an error, as are fewer than two
    rows and a repeated t (the rows are interpolated in t).  numpy's text
    reader reads the rows; where it refuses them, or they are at fault, one
    float() scan of the lines reads them or names the fault."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    lines = text.split("\n")
    body = [line for line in map(str.strip, lines) if line and not line.startswith("#")]
    header = 0
    if body:
        first = body[0].split(",")
        try:
            [float(cell) for cell in first[:expect]]
        except ValueError:
            header = int(len(first) >= expect)  # a short row is a fault, not a header
    # numpy's reader strips U+001C-U+001F around a cell; float() refuses them
    if body[header:] and not any(map(text.__contains__, "\x1c\x1d\x1e\x1f")):
        try:
            data = np.loadtxt(body[header:], delimiter=",", comments=None,
                              usecols=range(expect), ndmin=2)
        except ValueError:
            pass
        else:
            data = data[np.argsort(data[:, 0])]
            if (np.isfinite(data).all() and len(data) >= 2
                    and (data[1:, 0] != data[:-1, 0]).all()):
                return data
    data = _csv_rows(path, expect, lines)
    return data[np.argsort(data[:, 0])]


def _csv_rows(path: str, expect: int, lines):
    """The rows of a CSV's `lines` as float() reads them, the first row
    skipped if float() refuses it; else the error of the first row that is
    short, not numeric (past the first) or not finite, of no numeric rows,
    of one, or of the first row whose t repeats an earlier row's."""
    body = [(number, line) for number, line in enumerate(map(str.strip, lines), 1)
            if line and not line.startswith("#")]
    rows, first, repeat = [], {}, None  # t -> the line of its first row
    for index, (number, line) in enumerate(body):
        parts = line.split(",")
        if len(parts) < expect:
            raise ConfigError(f"{path}, line {number}: expected {expect} columns, got {len(parts)}")
        try:
            row = [float(p) for p in parts[:expect]]
        except ValueError:
            if index:
                raise ConfigError(f"{path}, line {number}: not a numeric row: {line!r}") from None
            continue
        if not all(map(math.isfinite, row)):
            raise ConfigError(f"{path}, line {number}: not a finite row: {line!r}")
        if repeat is None and row[0] in first:
            repeat = f"{path}, line {number}: t = {row[0]!r} repeats line {first[row[0]]}"
        first.setdefault(row[0], number)
        rows.append(row)
    if repeat is not None:
        raise ConfigError(repeat)
    if not rows:
        raise ConfigError(f"{path}: no numeric rows found")
    if len(rows) < 2:
        raise ConfigError(f"{path}, line {min(first.values())}: need at least two rows "
                          "to interpolate, got one")
    return np.array(rows)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_forward(run):
    n, m, count = run.opts["n"], run.opts["m"], run.opts["grid"]
    if run.opts["derivatives"] and m != 0:
        raise ConfigError("dp_h columns are only available for radial data (m=0)")
    data = run.data
    k = data.dim.k
    grid = np.linspace(0.05, 1.95, count)
    columns, dp = ["t", "g", "h"], []
    if run.opts["derivatives"]:  # h and D^1..D^k h in one sweep
        columns += [f"dp_h_{p}" for p in range(k + 1)]
        dp = data.dp_h(grid, range(k + 1))
        h = dp[0]
    else:
        h = data.h(grid)
    values = [grid, g_from_h(h, grid, n), h, *dp]
    run.emit_csv(columns, zip(*(v.tolist() for v in values)))
    return None, f"n={n} m={m}, {count} rows"


class _CsvH:
    """Linearly interpolated h(t) from sampled (t, h); zero outside."""

    def __init__(self, t, h):
        self._t = np.asarray(t, dtype=float)
        self._h = np.asarray(h, dtype=float)

    def h(self, t):
        return np.interp(t, self._t, self._h, left=0.0, right=0.0)


def _cmd_invert(run):
    n, inv = run.opts["n"], run.inversion
    t_in, g_in = run.samples.T
    try:
        res = invert_radial(_CsvH(t_in, g_in * t_in ** (n - 2)), Dimension(n), inv)
    except RuntimeError as exc:  # an ill-posed configuration
        raise _Refused(exc) from exc
    run.emit_csv(["r", "f"], [(float(r), float(f)) for r, f in zip(res.nodes, res.values)])
    if run.out is not None:
        run.emit_json({"rank": res.rank, "residual": res.residual,
                       **run.effective["inversion"],
                       "singular_value_max": float(res.singular_values[0]),
                       "singular_value_min": float(res.singular_values[-1])},
                      os.path.splitext(run.out)[0] + ".json")
    return None, f"rank {res.rank}, residual {res.residual:.3e}"


def _cmd_range_check(run):
    n, m, tol = run.opts["n"], run.opts["m"], run.opts["tol"]
    k = Dimension(n).k
    data = run.data
    if data is None:  # sampled (t, h), resampled on a Chebyshev grid
        t_in, h_in = run.samples.T
        lo, hi = max(0.01, float(t_in[0])), min(1.99, float(t_in[-1]))
        data = SampledH.from_function(_CsvH(t_in, h_in).h, a=lo, b=hi)
    greport = general_range_check(data, m, k=k, grid=default_grid(run.opts["grid"]))
    report = greport.range_report
    ok = report.passed(tol) and greport.defects_passed()
    run.emit_json({"n": n, "m": m, "k_used": report.k_used,
                   "sup_residual": report.sup_residual,
                   "normalized": report.normalized, "scale": report.scale,
                   "defects": [float(d) for d in greport.moment_defects], "tol": tol,
                   "verdict": _word(ok)})
    return ok, f"normalized {report.normalized:.3e} (tol {tol:g})"


def _cmd_cross_check(run):
    lam_max, tol = run.opts["lambda_max"], run.opts["tol"]
    if lam_max <= 0.5:
        raise ConfigError("lambda-max must exceed 0.5")
    lams = np.linspace(0.5, lam_max, run.opts["grid"])
    k = run.data.dim.k + run.opts["m"]  # harmonic data shifts the kernel order by m
    lhs, rhs, res = cross_product_terms(run.data, k, lams, run.quad)
    # np.max keeps a NaN, which max() would drop and so read as a PASS
    worst = float(np.max(res))
    run.emit_csv(["lambda", "lhs", "rhs", "residual"],
                 zip(lams.tolist(), lhs.tolist(), rhs.tolist(), res.tolist()))
    return worst <= tol, f"worst residual {worst:.3e} (tol {tol:g})"


def _cmd_mk_check(run):
    k_max, count = run.opts["k"], run.opts["count"]
    lam_max, tol = run.opts["lambda_max"], run.opts["tol"]
    rng = np.random.default_rng(run.seed)
    rows = []
    residuals = []
    for k in range(k_max + 1):
        points = []
        for _ in range(count):
            lam = rng.uniform(0.5, lam_max)
            t = rng.uniform(-3.0, 3.0)
            while abs(t) < 0.1 or abs(t + 1.0) < 0.1:
                t = rng.uniform(-3.0, 3.0)
            points.append((lam, t))
        lams, ts = np.array(points, dtype=float).reshape(-1, 2).T
        res = mk_residual(k, lams, ts)
        rows.append(f"# k {k}")
        rows.extend(zip(lams.tolist(), ts.tolist(), res.tolist()))
        residuals.append(res)
    # np.max keeps a NaN, which max() would drop and so read as a PASS
    worst = float(np.max(np.concatenate(residuals)))
    worst_k0 = float(np.max(residuals[0]))
    run.emit_csv(["lambda", "t", "residual"], rows)
    return (worst <= tol and worst_k0 <= 1e-14,
            f"worst {worst:.3e} (k=0 worst {worst_k0:.3e}, tol {tol:g})")


def _cmd_identities(run):
    rows = []
    for name, desc, ok, witness in identity_sweeps(run.opts["max_k"]):
        print(f"{name:28s} {desc:24s} {'PASS' if ok else f'FAIL at {witness}'}")
        rows.append((name, desc, _word(ok)))
    if run.out is not None:
        run.emit_csv(["identity", "range", "status"], rows)
    return all(row[2] == "PASS" for row in rows), f"({len(rows)} sweeps)"


def _cmd_zeros(run):
    tol = run.opts["tol"]
    pairs, fmax = bessel_zero_vanishing(run.data, run.data.dim, run.opts["m"],
                                        run.opts["count"], run.quad)
    # zero data has fmax 0: its ratios read 0, as cross_product_terms does
    rows = [(lam, val, val / fmax if fmax != 0 else 0.0) for lam, val in pairs]
    # np.max keeps a NaN, which max() would drop after the first row
    worst = float(np.max([r[2] for r in rows]))
    run.emit_csv(["lambda", "absF", "ratio"], rows, comments=[f"fmax {_fmt(fmax)}"])
    return worst <= tol, f"worst ratio {worst:.3e} (tol {tol:g})"


def _cmd_ucp_demo(run):
    spec = run.spec
    report = ucp_mod.verify_counterexample(
        spec, run.quad, ucp_mod.default_grid(run.opts["grid"]), tol=run.opts["tol"])
    json_out = None
    if run.out is not None:
        base = os.path.splitext(run.out)[0]
        f = ucp_mod.build_counterexample(spec)
        r_grid = np.linspace(0.0, 1.0, 501)
        run.emit_csv(["t", "g"], zip(report.grid.tolist(), report.g_values.tolist()),
                     base + "_g.csv")
        run.emit_csv(["r", "f"], zip(r_grid.tolist(), f(r_grid).tolist()), base + "_f.csv")
        json_out = base + ".json"
    run.emit_json({"n": spec.n, "epsilon": spec.epsilon, "m": spec.m,
                   "bump": list(spec.bump), "ratio_inside": report.ratio_inside,
                   "max_inside": report.max_inside,
                   "max_global": report.max_global, "tol": report.tol,
                   "trivial": report.trivial, "verdict": _word(report.passed)},
                  json_out)
    return report.passed, f"ratio_inside {report.ratio_inside:.3e} (tol {report.tol:g})"


def _word(ok) -> str:
    return "PASS" if ok else "FAIL"


def _run(args) -> int:
    """Run one subcommand: its handler returns (verdict, summary), verdict
    None for a table with no verdict."""
    ok, summary = args.fn(_Run(args))
    print(f"{args.command}: {summary}" if ok is None
          else f"{args.command}: {_word(ok)} {summary}")
    return 0 if ok is None or ok else 1


# ---------------------------------------------------------------------------
# parser


_COMMANDS = {
    "forward": (_cmd_forward, "tabulate forward data g, h for a profile"),
    "invert": (_cmd_invert, "reconstruct f from sampled (t, g) data"),
    "range-check": (_cmd_range_check, "range symmetry residual of forward data"),
    "cross-check": (_cmd_cross_check, "cross-product identity sweep over lambda"),
    "mk-check": (_cmd_mk_check, "seeded random sweep of the kernel identity"),
    "identities": (_cmd_identities, "exact integer/rational identity sweeps"),
    "zeros": (_cmd_zeros, "transform magnitude at Bessel zeros"),
    "ucp-demo": (_cmd_ucp_demo, "build and verify a vanishing-band profile"),
}


def _plain_args(argv):
    """The namespace argparse builds for an argv of the plain form (see the
    module docstring), with None for each option left out; None for any
    other argv."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = OPTIONS[argv[0]]
    flags = {"--config": ("config", str),
             **{_flag(name): (name, spec[0]) for name, spec in options.items()}}
    args = dict.fromkeys(["config", *options])
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in flags:
            return None
        name, kind = flags[token]
        if kind is bool:
            args[name] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        try:
            args[name] = kind(value)
        except ValueError:
            return None
    return types.SimpleNamespace(command=argv[0], fn=_COMMANDS[argv[0]][0], **args)


def _build_parser(commands=_COMMANDS):
    """The `smt` parser with the subcommands `commands` registered.  With one
    registered, a fixed metavar keeps every subcommand in the usage line that
    a usage error prints."""
    import argparse  # only here: a plain run imports neither it nor gettext

    parser = argparse.ArgumentParser(
        prog="smt",
        description="Spherical mean transform toolkit: forward data, range "
                    "checks, spectral identities, inversion, and the "
                    "vanishing-band construction.")
    parser.add_argument("--version", action="version",
                        version=f"smt {__version__}")
    one = {"metavar": "{%s}" % ",".join(_COMMANDS)} if len(commands) == 1 else {}
    sub = parser.add_subparsers(dest="command", required=True, **one)
    for command in commands:
        fn, text = _COMMANDS[command]
        p = sub.add_parser(command, help=text,
                           description=f"{text}. Each option is also a top-level "
                                       "key of the --config file; a flag wins.")
        p.add_argument("--config", help="JSON run configuration")
        for name, (kind, default, _, text) in OPTIONS[command].items():
            if default not in (None, False, REQUIRED):
                text = f"{text} (default {default})"
            if kind is bool:
                p.add_argument(_flag(name), action="store_true", default=None,
                               help=text)
            else:
                p.add_argument(_flag(name), type=kind, help=text)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a plain argv skips argparse (see the module docstring); any other gets
    # the parser of its own subcommand, or of all eight
    args = _plain_args(argv)
    if args is None:
        parser = _build_parser(argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse exits on usage errors and --help
            code = exc.code
            return int(code) if code is not None else 0
    try:
        return _run(args)
    except _Refused as exc:
        print(f"{args.command}: FAIL ({exc})", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
