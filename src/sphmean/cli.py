"""Command-line front end: every check in the package as a subcommand.

Artifacts are reproducible by construction: each output file starts with a
comment header carrying the tool version, a SHA-256 hash of the effective
run configuration (canonical JSON), and the seed; floats are written with 17
significant digits, and JSON files use stable key ordering.  Identical
configurations therefore produce byte-identical outputs on one platform.

Exit codes: 0 when the run succeeds (and any verdict is PASS), 1 when a
verdict is FAIL, 2 for usage, config, domain or numerical errors (reported
as "config error:", "domain error:" and "numerical error:").
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .exactmath import identity_sweeps
from .inverse import InversionConfig, invert_radial
from .rangecheck import SampledH, default_grid, general_range_check, range_residual
from .specfun import bessel_zero
from .spectral import cross_product_terms, hankel_h, mk_residual
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


# ---------------------------------------------------------------------------
# options and configuration

# Each subcommand's options: name -> (type, default, least value, help).
# Every option is both a --flag and a top-level config key; its value is the
# flag's, else the config's, else the default.
_N = (int, None, 3, "ambient dimension (odd, >= 3)")
_M = (int, 0, 0, "harmonic degree of the data")
_SHARED = {"seed": (int, DEFAULT_SEED, 0, "RNG seed, echoed in each artifact"),
           "out": (str, None, None, "output file path (default stdout)")}
OPTIONS = {command: {**options, **_SHARED} for command, options in {
    "forward": {"n": _N, "m": _M, "grid": (int, 201, 1, "number of t points"),
                "derivatives": (bool, False, None,
                                "also write dp_h_0..dp_h_k columns (m = 0)")},
    "invert": {"n": _N, "input": (str, None, None, "CSV of (t, g) samples")},
    "range-check": {"n": _N, "m": _M,
                    "input": (str, None, None, "CSV of (t, h) samples"),
                    "grid": (int, 101, 1, "number of check points"),
                    "tol": (float, 1e-6, None, "verdict tolerance")},
    "cross-check": {"n": _N, "m": _M,
                    "lambda_max": (float, 40.0, None, "upper end of the lambda sweep"),
                    "grid": (int, 20, 1, "number of lambda values"),
                    "tol": (float, 1e-8, None, "verdict tolerance")},
    "mk-check": {"k": (int, 6, 0, "largest kernel order"),
                 "count": (int, 100, 1, "random points per order"),
                 "lambda_max": (float, 20.0, None, "upper end of the lambda draw"),
                 "tol": (float, 1e-8, None, "verdict tolerance")},
    "identities": {"max_k": (int, 8, 0, "sweep bound")},
    "zeros": {"n": _N, "m": _M, "count": (int, 10, 1, "number of kernel zeros"),
              "tol": (float, 1e-6, None, "verdict tolerance")},
    "ucp-demo": {"n": _N, "epsilon": (float, None, None, "half-width of the band"),
                 "m": (int, None, None, "derivative order of the profile"),
                 "grid": (int, 201, 1, "number of t points"),
                 "tol": (float, None, None,
                         "verdict tolerance (default from the quadrature)")},
}.items()}

# config-only objects: the key schema of each, name -> (type, least value),
# and the ones each subcommand takes ("bump" is a [center, width] pair)
_OBJECTS = {
    "profile": {"family": (str, None), "center": (float, None), "width": (float, None),
                "amplitude": (float, None), "n": (int, 3), "m": (int, 0)},
    "quadrature": {"nodes": (int, 2), "panels": (int, 1)},
    "inversion": {"n_unknowns": (int, None), "n_collocation": (int, None),
                  "svd_cutoff": (float, None)},
}
_COMMAND_OBJECTS = {"forward": {"profile", "quadrature"}, "invert": {"inversion"},
                    "range-check": {"profile", "quadrature"},
                    "cross-check": {"profile", "quadrature"}, "mk-check": set(),
                    "identities": set(), "zeros": {"profile", "quadrature"},
                    "ucp-demo": {"bump", "quadrature"}}
_KINDS = {int: int, float: (int, float), str: str, bool: bool}


def _check(value, kind, least, name):
    """Raise ConfigError unless `value` is a `kind`, finite, and >= `least`."""
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, _KINDS[kind]):
        raise ConfigError(f"{name} must be {kind.__name__}")
    if kind is float and not -math.inf < value < math.inf:
        raise ConfigError(f"{name} must be finite")
    if least is not None and value < least:
        raise ConfigError(f"{name} must be >= {least}")


def load_config(path: str, command: str) -> dict:
    """Read and schema-validate a JSON run configuration for `command`."""
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
            _check(value, kind, least, f"field '{key}'")
        elif key not in _COMMAND_OBJECTS[command]:
            raise ConfigError(f"unknown config key '{key}' for {command}")
        elif key == "bump":
            if not (isinstance(value, list) and len(value) == 2):
                raise ConfigError("field 'bump' must be a [center, width] pair")
            for v in value:
                _check(v, float, None, "field 'bump'")
        elif not isinstance(value, dict):
            raise ConfigError(f"field '{key}' must be an object")
        else:
            for name, v in value.items():
                if name not in _OBJECTS[key]:
                    raise ConfigError(f"unknown key '{key}.{name}'")
                _check(v, *_OBJECTS[key][name], f"field '{key}.{name}'")
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
            _check(value, kind, least, _flag(name))
        opts[name] = value
    return cfg, opts


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _required(opts, name):
    if opts[name] is None:
        raise ConfigError(f"{_flag(name)} (or config key '{name}') is required")
    return opts[name]


def _quad_from(cfg: dict) -> QuadratureRule:
    q = cfg.get("quadrature")
    if q is None:
        return DEFAULT_QUAD
    return QuadratureRule(q.get("nodes", 32), q.get("panels", 8))


def _profile_from(cfg: dict, opts: dict):
    """Build (profile, n, m) from the config's profile block and options."""
    pcfg = cfg.get("profile")
    if pcfg is None:
        raise ConfigError("a profile spec is required "
                          "(--config with a 'profile' object)")
    family = pcfg.get("family", "bump")
    if family != "bump":
        raise ConfigError(f"unknown profile family '{family}'")
    if "center" not in pcfg or "width" not in pcfg:
        raise ConfigError("profile needs 'center' and 'width'")
    prof = BumpProfile(float(pcfg["center"]), float(pcfg["width"]),
                       float(pcfg.get("amplitude", 1.0)))
    return prof, _required(opts, "n"), opts["m"]


def _profile_cfg(prof) -> dict:
    return {"family": "bump", "center": prof.center, "width": prof.width,
            "amplitude": prof.amplitude}


def _quad_cfg(quad: QuadratureRule) -> dict:
    return {"nodes": quad.nodes_per_panel, "panels": quad.panels}


def _forward_data(prof, n: int, m: int, quad: QuadratureRule):
    dim = Dimension(n)
    if m == 0:
        return SmtProfile.from_profile(prof, dim, quad)
    return HarmonicForwardData(prof, dim, m, quad)


# ---------------------------------------------------------------------------
# artifact writing


def _config_hash(effective: dict) -> str:
    blob = json.dumps(effective, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _fmt(value) -> str:
    if isinstance(value, float):  # np.float64 too: same text as float(value)
        return "%.17g" % value
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def _emit_csv(out, columns, rows, cfg_hash: str, seed: int, comments=()):
    """Write a CSV artifact; `out` may be a path or None for stdout."""
    lines = [f"# smt {__version__}",
             f"# config sha256:{cfg_hash}",
             f"# seed {seed}"]
    lines.extend(f"# {c}" for c in comments)
    lines.append(",".join(columns))
    for row in rows:
        if isinstance(row, str):  # pre-formatted comment line
            lines.append(row)
        else:
            lines.append(",".join(map(_fmt, row)))
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(out, payload: dict, cfg_hash: str, seed: int):
    payload = dict(payload)
    payload["tool_version"] = __version__
    payload["config_sha256"] = cfg_hash
    payload["seed"] = seed
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_csv_columns(path: str, expect: int):
    """Read a 2-column numeric CSV, skipping '#' comments and a header row."""
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split(",")
                if len(parts) < expect:
                    raise ConfigError(
                        f"{path}: expected {expect} columns, got {len(parts)}")
                try:
                    rows.append([float(p) for p in parts[:expect]])
                except ValueError:
                    continue  # header row
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path}: no numeric rows found")
    data = np.asarray(rows, dtype=float)
    order = np.argsort(data[:, 0])
    return data[order]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_forward(args) -> int:
    cfg, opts = _options(args)
    prof, n, m = _profile_from(cfg, opts)
    quad = _quad_from(cfg)
    count, seed, derivs = opts["grid"], opts["seed"], opts["derivatives"]
    if derivs and m != 0:
        raise ConfigError("dp_h columns are only available for radial data (m=0)")
    data = _forward_data(prof, n, m, quad)
    k = data.dim.k
    grid = np.linspace(0.05, 1.95, count)

    effective = {"command": "forward", "n": n, "m": m, "grid": count,
                 "profile": _profile_cfg(prof), "quadrature": _quad_cfg(quad),
                 "derivatives": derivs, "seed": seed}
    cfg_hash = _config_hash(effective)

    h = data.h(grid)
    columns = ["t", "g", "h"]
    values = [grid, g_from_h(h, grid, n), h]
    if derivs:
        columns += [f"dp_h_{p}" for p in range(k + 1)]
        values.append(h)
        if k:  # D^1..D^k h in one sweep
            values.extend(data.dp_h(grid, range(1, k + 1)))
    _emit_csv(opts["out"], columns, zip(*(v.tolist() for v in values)), cfg_hash, seed)
    print(f"forward: n={n} m={m}, {count} rows")
    return 0


class _CsvH:
    """Linearly interpolated h(t) from sampled (t, h); zero outside."""

    def __init__(self, t, h):
        self._t = np.asarray(t, dtype=float)
        self._h = np.asarray(h, dtype=float)

    def h(self, t):
        return np.interp(t, self._t, self._h, left=0.0, right=0.0)


def _cmd_invert(args) -> int:
    cfg, opts = _options(args)
    n, inp, seed = _required(opts, "n"), _required(opts, "input"), opts["seed"]
    icfg = cfg.get("inversion", {})
    inv_cfg = InversionConfig(
        n_unknowns=int(icfg.get("n_unknowns", 240)),
        n_collocation=int(icfg.get("n_collocation", 241)),
        svd_cutoff=float(icfg.get("svd_cutoff", 1e-5)))

    samples = _read_csv_columns(inp, 2)
    t_in, g_in = samples[:, 0], samples[:, 1]
    data = _CsvH(t_in, g_in * t_in ** (n - 2))

    effective = {"command": "invert", "n": n,
                 "inversion": {"n_unknowns": inv_cfg.n_unknowns,
                               "n_collocation": inv_cfg.n_collocation,
                               "svd_cutoff": inv_cfg.svd_cutoff},
                 "rows": len(t_in), "seed": seed}
    cfg_hash = _config_hash(effective)

    try:
        res = invert_radial(data, Dimension(n), inv_cfg)
    except RuntimeError as exc:
        print(f"invert: FAIL ({exc})", file=sys.stderr)
        return 1

    out = opts["out"]
    rows = [(float(r), float(f)) for r, f in zip(res.nodes, res.values)]
    _emit_csv(out, ["r", "f"], rows, cfg_hash, seed)
    diag = {"rank": res.rank, "residual": res.residual,
            "n_unknowns": inv_cfg.n_unknowns,
            "n_collocation": inv_cfg.n_collocation,
            "svd_cutoff": inv_cfg.svd_cutoff,
            "singular_value_max": float(res.singular_values[0]),
            "singular_value_min": float(res.singular_values[-1])}
    if out is not None:
        _emit_json(os.path.splitext(out)[0] + ".json", diag, cfg_hash, seed)
    print(f"invert: rank {res.rank}, residual {res.residual:.3e}")
    return 0


def _cmd_range_check(args) -> int:
    cfg, opts = _options(args)
    tol = float(opts["tol"])
    count, seed, inp = opts["grid"], opts["seed"], opts["input"]
    quad = _quad_from(cfg)
    grid = default_grid(count)

    if inp is not None:
        n, m = _required(opts, "n"), opts["m"]
        k = Dimension(n).k
        samples = _read_csv_columns(inp, 2)
        interp = _CsvH(samples[:, 0], samples[:, 1])
        lo = max(0.01, float(samples[0, 0]))
        hi = min(1.99, float(samples[-1, 0]))
        data = SampledH.from_function(interp.h, a=lo, b=hi, k_eff=max(k, 2))
        source = {"input": os.path.basename(inp), "rows": len(samples)}
    else:
        prof, n, m = _profile_from(cfg, opts)
        data = _forward_data(prof, n, m, quad)
        k = data.dim.k
        source = {"profile": _profile_cfg(prof)}

    effective = {"command": "range-check", "n": n, "m": m, "tol": tol,
                 "grid": count, "seed": seed, "quadrature": _quad_cfg(quad),
                 **source}
    cfg_hash = _config_hash(effective)

    if m == 0:
        report = range_residual(data, k=k, grid=grid)
        defects = []
        ok = report.passed(tol)
    else:
        greport = general_range_check(data, m, k=k, grid=grid)
        report = greport.range_report
        defects = [float(d) for d in greport.moment_defects]
        ok = report.passed(tol) and greport.defects_passed()

    payload = {"n": n, "m": m, "k_used": report.k_used,
               "sup_residual": report.sup_residual,
               "normalized": report.normalized, "scale": report.scale,
               "defects": defects, "tol": tol,
               "verdict": "PASS" if ok else "FAIL"}
    _emit_json(opts["out"], payload, cfg_hash, seed)
    print(f"range-check: {payload['verdict']} "
          f"normalized {report.normalized:.3e} (tol {tol:g})")
    return 0 if ok else 1


def _cmd_cross_check(args) -> int:
    cfg, opts = _options(args)
    prof, n, m = _profile_from(cfg, opts)
    quad = _quad_from(cfg)
    tol, lam_max = float(opts["tol"]), float(opts["lambda_max"])
    count, seed = opts["grid"], opts["seed"]
    if lam_max <= 0.5:
        raise ConfigError("lambda-max must exceed 0.5")
    data = _forward_data(prof, n, m, quad)
    k = data.dim.k + m  # harmonic data shifts the kernel order by m
    lams = np.linspace(0.5, lam_max, count)

    effective = {"command": "cross-check", "n": n, "m": m, "tol": tol,
                 "lambda_max": lam_max, "grid": count, "seed": seed,
                 "profile": _profile_cfg(prof), "quadrature": _quad_cfg(quad)}
    cfg_hash = _config_hash(effective)

    lhs, rhs, res = cross_product_terms(data, k, lams, quad)
    # np.max keeps a NaN, which max() would drop and so read as a PASS
    worst = float(np.max(res))
    rows = zip(lams.tolist(), lhs.tolist(), rhs.tolist(), res.tolist())
    _emit_csv(opts["out"], ["lambda", "lhs", "rhs", "residual"], rows, cfg_hash, seed)
    ok = worst <= tol
    print(f"cross-check: {'PASS' if ok else 'FAIL'} "
          f"worst residual {worst:.3e} (tol {tol:g})")
    return 0 if ok else 1


def _cmd_mk_check(args) -> int:
    _, opts = _options(args)
    k_max, count, seed = opts["k"], opts["count"], opts["seed"]
    lam_max, tol = float(opts["lambda_max"]), float(opts["tol"])

    effective = {"command": "mk-check", "k": k_max, "count": count,
                 "lambda_max": lam_max, "tol": tol, "seed": seed}
    cfg_hash = _config_hash(effective)
    rng = np.random.default_rng(seed)

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
    ok = worst <= tol and worst_k0 <= 1e-14
    _emit_csv(opts["out"], ["lambda", "t", "residual"], rows, cfg_hash, seed)
    print(f"mk-check: {'PASS' if ok else 'FAIL'} worst {worst:.3e} "
          f"(k=0 worst {worst_k0:.3e}, tol {tol:g})")
    return 0 if ok else 1


def _cmd_identities(args) -> int:
    _, opts = _options(args)
    k_max, seed, out = opts["max_k"], opts["seed"], opts["out"]
    effective = {"command": "identities", "max_k": k_max, "seed": seed}
    cfg_hash = _config_hash(effective)

    rows = []
    all_ok = True
    for name, desc, ok, witness in identity_sweeps(k_max):
        all_ok &= ok
        status = "PASS" if ok else f"FAIL at {witness}"
        print(f"{name:28s} {desc:24s} {status}")
        rows.append((name, desc, "PASS" if ok else "FAIL"))
    if out is not None:
        _emit_csv(out, ["identity", "range", "status"], rows, cfg_hash, seed)
    print(f"identities: {'PASS' if all_ok else 'FAIL'} ({len(rows)} sweeps)")
    return 0 if all_ok else 1


def _cmd_zeros(args) -> int:
    cfg, opts = _options(args)
    prof, n, m = _profile_from(cfg, opts)
    quad = _quad_from(cfg)
    count, tol, seed = opts["count"], float(opts["tol"]), opts["seed"]
    data = _forward_data(prof, n, m, quad)
    dim = data.dim

    effective = {"command": "zeros", "n": n, "m": m, "count": count,
                 "tol": tol, "seed": seed,
                 "profile": _profile_cfg(prof), "quadrature": _quad_cfg(quad)}
    cfg_hash = _config_hash(effective)

    # the transform (kernel order k for every m) at the order-(m+k) kernel
    # zeros, and its magnitude scale over a lambda sweep up past the last zero
    zeros = np.array([bessel_zero(m + dim.k, i) for i in range(1, count + 1)])
    lam_grid = np.linspace(0.3, zeros[-1] + 2.0, 40)
    values = np.abs(hankel_h(data.h, dim.k, np.concatenate([zeros, lam_grid]),
                             quad, data.support))
    fmax = float(np.max(values[count:]))
    rows = [(lam, val, val / fmax)
            for lam, val in zip(zeros.tolist(), values[:count].tolist())]
    worst = max(r[2] for r in rows)
    _emit_csv(opts["out"], ["lambda", "absF", "ratio"], rows, cfg_hash, seed,
              comments=[f"fmax {_fmt(fmax)}"])
    ok = worst <= tol
    print(f"zeros: {'PASS' if ok else 'FAIL'} worst ratio {worst:.3e} "
          f"(tol {tol:g})")
    return 0 if ok else 1


def _cmd_ucp_demo(args) -> int:
    cfg, opts = _options(args)
    n, epsilon, m = (_required(opts, key) for key in ("n", "epsilon", "m"))
    bump = cfg.get("bump", [0.6, 0.15])
    try:
        spec = ucp_mod.UcpSpec(n=n, epsilon=float(epsilon), m=m,
                               bump=(float(bump[0]), float(bump[1])))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    quad = (_quad_from(cfg) if "quadrature" in cfg else ucp_mod.UCP_QUAD)
    count, tol, seed = opts["grid"], opts["tol"], opts["seed"]

    effective = {"command": "ucp-demo", "n": spec.n, "epsilon": spec.epsilon,
                 "m": spec.m, "bump": list(spec.bump), "grid": count,
                 "tol": tol, "seed": seed, "quadrature": _quad_cfg(quad)}
    cfg_hash = _config_hash(effective)

    grid = ucp_mod.default_grid(count)
    report = ucp_mod.verify_counterexample(
        spec, quad, grid, tol=None if tol is None else float(tol))
    f = ucp_mod.build_counterexample(spec)
    r_grid = np.linspace(0.0, 1.0, 501)

    out = opts["out"]
    if out is not None:
        base = os.path.splitext(out)[0]
        _emit_csv(base + "_g.csv", ["t", "g"],
                  zip(report.grid.tolist(), report.g_values.tolist()), cfg_hash, seed)
        _emit_csv(base + "_f.csv", ["r", "f"],
                  zip(r_grid.tolist(), f(r_grid).tolist()), cfg_hash, seed)
        json_out = base + ".json"
    else:
        json_out = None
    payload = {"n": spec.n, "epsilon": spec.epsilon, "m": spec.m,
               "bump": list(spec.bump), "ratio_inside": report.ratio_inside,
               "max_inside": report.max_inside,
               "max_global": report.max_global, "tol": report.tol,
               "trivial": report.trivial,
               "verdict": "PASS" if report.passed else "FAIL"}
    _emit_json(json_out, payload, cfg_hash, seed)
    print(f"ucp-demo: {payload['verdict']} ratio_inside "
          f"{report.ratio_inside:.3e} (tol {report.tol:g})")
    return 0 if report.passed else 1


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smt",
        description="Spherical mean transform toolkit: forward data, range "
                    "checks, spectral identities, inversion, and the "
                    "vanishing-band construction.")
    parser.add_argument("--version", action="version",
                        version=f"smt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (fn, text) in _COMMANDS.items():
        p = sub.add_parser(command, help=text,
                           description=f"{text}. Each option is also a top-level "
                                       "key of the --config file; a flag wins.")
        p.add_argument("--config", help="JSON run configuration")
        for name, (kind, default, _, text) in OPTIONS[command].items():
            if default not in (None, False):
                text = f"{text} (default {default})"
            if kind is bool:
                p.add_argument(_flag(name), action="store_true", default=None,
                               help=text)
            else:
                p.add_argument(_flag(name), type=kind, help=text)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.fn(args)
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
