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
import os
import sys

import numpy as np

from . import __version__
from .exactmath import identity_sweeps
from .inverse import InversionConfig, invert_radial
from .rangecheck import SampledH, default_grid, general_range_check, range_residual
from .spectral import bessel_zero_vanishing, cross_product_terms, hankel_h, mk_residual
from .transform import (
    DEFAULT_QUAD,
    BumpProfile,
    Dimension,
    HarmonicForwardData,
    QuadratureRule,
    SmtProfile,
)
from . import ucp as ucp_mod

# 64-bit default seed, the bytes "SMT1"
DEFAULT_SEED = 0x534D5431


class ConfigError(Exception):
    """Malformed or out-of-schema run configuration."""


# ---------------------------------------------------------------------------
# configuration plumbing


_QUAD_KEYS = {"nodes": int, "panels": int}
_PROFILE_KEYS = {"family": str, "center": float, "width": float,
                 "amplitude": float, "n": int, "m": int}
_INVERSION_KEYS = {"n_unknowns": int, "n_collocation": int, "svd_cutoff": float}

# top-level keys each subcommand accepts in --config (beyond what flags set)
_ALLOWED = {
    "forward": {"profile", "quadrature", "grid", "out", "seed", "derivatives"},
    "invert": {"n", "inversion", "input", "out", "seed"},
    "range-check": {"profile", "n", "m", "k", "input", "quadrature", "grid",
                    "tol", "out", "seed"},
    "cross-check": {"profile", "n", "m", "quadrature", "lambda_max", "grid",
                    "tol", "out", "seed"},
    "mk-check": {"k", "count", "lambda_max", "tol", "seed", "out"},
    "identities": {"max_k", "out", "seed"},
    "zeros": {"profile", "n", "m", "count", "tol", "quadrature", "out", "seed"},
    "ucp-demo": {"n", "epsilon", "m", "bump", "quadrature", "grid", "tol",
                 "out", "seed"},
}


def _check_mapping(value, schema, path):
    if not isinstance(value, dict):
        raise ConfigError(f"field '{path}' must be an object")
    for key, v in value.items():
        if key not in schema:
            raise ConfigError(f"unknown key '{path}.{key}'")
        want = schema[key]
        if want is float and isinstance(v, (int, float)) and not isinstance(v, bool):
            continue
        if want is int and isinstance(v, int) and not isinstance(v, bool):
            continue
        if want is str and isinstance(v, str):
            continue
        if want is list and isinstance(v, (list, tuple)):
            continue
        raise ConfigError(f"field '{path}.{key}' must be {want.__name__}")


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
    allowed = _ALLOWED[command]
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f"unknown config key '{key}' for {command}")
    if "quadrature" in cfg:
        _check_mapping(cfg["quadrature"], _QUAD_KEYS, "quadrature")
    if "profile" in cfg:
        _check_mapping(cfg["profile"], _PROFILE_KEYS, "profile")
    if "inversion" in cfg:
        _check_mapping(cfg["inversion"], _INVERSION_KEYS, "inversion")
    if "bump" in cfg and not isinstance(cfg["bump"], (list, tuple)):
        raise ConfigError("field 'bump' must be a [center, width] pair")
    return cfg


def _pick(args, cfg: dict, name: str, default):
    """Effective value of an option: explicit flag > config file > default."""
    flag = getattr(args, name.replace("-", "_"), None)
    if flag is not None:
        return flag
    if name in cfg:
        return cfg[name]
    return default


def _quad_from(cfg: dict) -> QuadratureRule:
    q = cfg.get("quadrature")
    if q is None:
        return DEFAULT_QUAD
    return QuadratureRule(q.get("nodes", 32), q.get("panels", 8))


def _profile_from(cfg: dict, args):
    """Build (profile, n, m) from the config's profile block and flags."""
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
    n = args.n if args.n is not None else pcfg.get("n", cfg.get("n"))
    if n is None:
        raise ConfigError("dimension n is required (flag --n or profile.n)")
    m = args.m if args.m is not None else pcfg.get("m", cfg.get("m", 0))
    return prof, int(n), int(m)


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
            lines.append(",".join(_fmt(v) for v in row))
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
    cfg = load_config(args.config, "forward") if args.config else {}
    prof, n, m = _profile_from(cfg, args)
    quad = _quad_from(cfg)
    count = int(_pick(args, cfg, "grid", 201))
    seed = int(_pick(args, cfg, "seed", DEFAULT_SEED))
    derivs = bool(cfg.get("derivatives", getattr(args, "derivatives", False)))
    if derivs and m != 0:
        raise ConfigError("dp_h columns are only available for radial data (m=0)")
    data = _forward_data(prof, n, m, quad)
    k = data.dim.k
    grid = np.linspace(0.05, 1.95, count)

    effective = {"command": "forward", "n": n, "m": m, "grid": count,
                 "profile": _profile_cfg(prof), "quadrature": _quad_cfg(quad),
                 "derivatives": derivs, "seed": seed}
    cfg_hash = _config_hash(effective)

    columns = ["t", "g", "h"]
    values = [grid, data.g(grid), data.h(grid)]
    if derivs:
        columns += [f"dp_h_{p}" for p in range(k + 1)]
        values += [data.dp_h(grid, p) for p in range(k + 1)]
    _emit_csv(_pick(args, cfg, "out", None), columns, zip(*values), cfg_hash, seed)
    print(f"forward: n={n} m={m}, {count} rows")
    return 0


class _CsvH:
    """Linearly interpolated h(t) from sampled (t, h); zero outside."""

    def __init__(self, t, h):
        self._t = np.asarray(t, dtype=float)
        self._h = np.asarray(h, dtype=float)

    def h(self, t):
        return float(np.interp(t, self._t, self._h, left=0.0, right=0.0))


def _cmd_invert(args) -> int:
    cfg = load_config(args.config, "invert") if args.config else {}
    n = args.n if args.n is not None else cfg.get("n")
    if n is None:
        raise ConfigError("dimension n is required (flag --n or config)")
    n = int(n)
    inp = args.input if args.input is not None else cfg.get("input")
    if inp is None:
        raise ConfigError("an input CSV of (t, g) samples is required (--input)")
    icfg = cfg.get("inversion", {})
    inv_cfg = InversionConfig(
        n_unknowns=int(icfg.get("n_unknowns", 240)),
        n_collocation=int(icfg.get("n_collocation", 241)),
        svd_cutoff=float(icfg.get("svd_cutoff", 1e-5)))
    seed = int(_pick(args, cfg, "seed", DEFAULT_SEED))

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

    out = _pick(args, cfg, "out", None)
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
    cfg = load_config(args.config, "range-check") if args.config else {}
    tol = float(_pick(args, cfg, "tol", 1e-6))
    count = int(_pick(args, cfg, "grid", 101))
    seed = int(_pick(args, cfg, "seed", DEFAULT_SEED))
    quad = _quad_from(cfg)
    grid = default_grid(count)
    inp = args.input if args.input is not None else cfg.get("input")

    if inp is not None:
        n = args.n if args.n is not None else cfg.get("n")
        if n is None:
            raise ConfigError("dimension n is required with --input")
        n, m = int(n), int(args.m if args.m is not None else cfg.get("m", 0))
        k = Dimension(n).k
        samples = _read_csv_columns(inp, 2)
        interp = _CsvH(samples[:, 0], samples[:, 1])
        lo = max(0.01, float(samples[0, 0]))
        hi = min(1.99, float(samples[-1, 0]))
        data = SampledH.from_function(interp.h, a=lo, b=hi, k_eff=max(k, 2))
        source = {"input": os.path.basename(inp), "rows": len(samples)}
    else:
        prof, n, m = _profile_from(cfg, args)
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
    _emit_json(_pick(args, cfg, "out", None), payload, cfg_hash, seed)
    print(f"range-check: {payload['verdict']} "
          f"normalized {report.normalized:.3e} (tol {tol:g})")
    return 0 if ok else 1


def _cmd_cross_check(args) -> int:
    cfg = load_config(args.config, "cross-check") if args.config else {}
    prof, n, m = _profile_from(cfg, args)
    quad = _quad_from(cfg)
    tol = float(_pick(args, cfg, "tol", 1e-8))
    lam_max = float(_pick(args, cfg, "lambda_max", 40.0))
    count = int(_pick(args, cfg, "grid", 20))
    seed = int(_pick(args, cfg, "seed", DEFAULT_SEED))
    if lam_max <= 0.5:
        raise ConfigError("lambda-max must exceed 0.5")
    data = _forward_data(prof, n, m, quad)
    k = data.dim.k + m  # harmonic data shifts the kernel order by m
    lams = np.linspace(0.5, lam_max, count)

    effective = {"command": "cross-check", "n": n, "m": m, "tol": tol,
                 "lambda_max": lam_max, "grid": count, "seed": seed,
                 "profile": _profile_cfg(prof), "quadrature": _quad_cfg(quad)}
    cfg_hash = _config_hash(effective)

    rows = [(float(lam), *cross_product_terms(data, k, float(lam), quad))
            for lam in lams]
    worst = max(r[3] for r in rows)
    _emit_csv(_pick(args, cfg, "out", None),
              ["lambda", "lhs", "rhs", "residual"], rows, cfg_hash, seed)
    ok = worst <= tol
    print(f"cross-check: {'PASS' if ok else 'FAIL'} "
          f"worst residual {worst:.3e} (tol {tol:g})")
    return 0 if ok else 1


def _cmd_mk_check(args) -> int:
    cfg = load_config(args.config, "mk-check") if args.config else {}
    k_max = int(args.k if args.k is not None else cfg.get("k", 6))
    count = int(_pick(args, cfg, "count", 100))
    lam_max = float(_pick(args, cfg, "lambda_max", 20.0))
    tol = float(_pick(args, cfg, "tol", 1e-8))
    seed = int(_pick(args, cfg, "seed", DEFAULT_SEED))
    if k_max < 0:
        raise ConfigError("k must be >= 0")

    effective = {"command": "mk-check", "k": k_max, "count": count,
                 "lambda_max": lam_max, "tol": tol, "seed": seed}
    cfg_hash = _config_hash(effective)
    rng = np.random.default_rng(seed)

    rows = []
    worst = 0.0
    worst_k0 = 0.0
    for k in range(k_max + 1):
        for i in range(count):
            lam = rng.uniform(0.5, lam_max)
            t = rng.uniform(-3.0, 3.0)
            while abs(t) < 0.1 or abs(t + 1.0) < 0.1:
                t = rng.uniform(-3.0, 3.0)
            res = mk_residual(k, lam, t)
            if i == 0:
                rows.append(f"# k {k}")
            rows.append((lam, t, res))
            worst = max(worst, res)
            if k == 0:
                worst_k0 = max(worst_k0, res)
    ok = worst <= tol and worst_k0 <= 1e-14
    _emit_csv(_pick(args, cfg, "out", None), ["lambda", "t", "residual"],
              rows, cfg_hash, seed)
    print(f"mk-check: {'PASS' if ok else 'FAIL'} worst {worst:.3e} "
          f"(k=0 worst {worst_k0:.3e}, tol {tol:g})")
    return 0 if ok else 1


def _cmd_identities(args) -> int:
    cfg = load_config(args.config, "identities") if args.config else {}
    k_max = int(args.max_k if args.max_k is not None else cfg.get("max_k", 8))
    seed = int(_pick(args, cfg, "seed", DEFAULT_SEED))
    effective = {"command": "identities", "max_k": k_max, "seed": seed}
    cfg_hash = _config_hash(effective)

    rows = []
    all_ok = True
    for name, desc, ok, witness in identity_sweeps(k_max):
        all_ok &= ok
        status = "PASS" if ok else f"FAIL at {witness}"
        print(f"{name:28s} {desc:24s} {status}")
        rows.append((name, desc, "PASS" if ok else "FAIL"))
    out = _pick(args, cfg, "out", None)
    if out is not None:
        _emit_csv(out, ["identity", "range", "status"], rows, cfg_hash, seed)
    print(f"identities: {'PASS' if all_ok else 'FAIL'} ({len(rows)} sweeps)")
    return 0 if all_ok else 1


def _cmd_zeros(args) -> int:
    cfg = load_config(args.config, "zeros") if args.config else {}
    prof, n, m = _profile_from(cfg, args)
    quad = _quad_from(cfg)
    count = int(_pick(args, cfg, "count", 10))
    tol = float(_pick(args, cfg, "tol", 1e-6))
    seed = int(_pick(args, cfg, "seed", DEFAULT_SEED))
    data = _forward_data(prof, n, m, quad)
    dim = data.dim

    effective = {"command": "zeros", "n": n, "m": m, "count": count,
                 "tol": tol, "seed": seed,
                 "profile": _profile_cfg(prof), "quadrature": _quad_cfg(quad)}
    cfg_hash = _config_hash(effective)

    pairs = bessel_zero_vanishing(data, dim, m, count, quad)
    # transform magnitude scale over a lambda sweep up past the last zero
    lam_grid = np.linspace(0.3, pairs[-1][0] + 2.0, 40)
    order = m + dim.k
    fmax = max(abs(hankel_h(data.h, order, la, quad, data.support))
               for la in lam_grid)
    rows = [(lam, val, val / fmax) for lam, val in pairs]
    worst = max(r[2] for r in rows)
    _emit_csv(_pick(args, cfg, "out", None),
              ["lambda", "absF", "ratio"], rows, cfg_hash, seed,
              comments=[f"fmax {_fmt(fmax)}"])
    ok = worst <= tol
    print(f"zeros: {'PASS' if ok else 'FAIL'} worst ratio {worst:.3e} "
          f"(tol {tol:g})")
    return 0 if ok else 1


def _cmd_ucp_demo(args) -> int:
    if not args.config:
        raise ConfigError("ucp-demo requires --config with "
                          "{n, epsilon, m, bump}")
    cfg = load_config(args.config, "ucp-demo")
    for key in ("n", "epsilon", "m"):
        if key not in cfg:
            raise ConfigError(f"ucp-demo config needs '{key}'")
    bump = cfg.get("bump", [0.6, 0.15])
    try:
        spec = ucp_mod.UcpSpec(n=int(cfg["n"]), epsilon=float(cfg["epsilon"]),
                               m=int(cfg["m"]),
                               bump=(float(bump[0]), float(bump[1])))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    quad = (_quad_from(cfg) if "quadrature" in cfg else ucp_mod.UCP_QUAD)
    count = int(_pick(args, cfg, "grid", 201))
    tol = _pick(args, cfg, "tol", None)
    seed = int(_pick(args, cfg, "seed", DEFAULT_SEED))

    effective = {"command": "ucp-demo", "n": spec.n, "epsilon": spec.epsilon,
                 "m": spec.m, "bump": list(spec.bump), "grid": count,
                 "tol": tol, "seed": seed, "quadrature": _quad_cfg(quad)}
    cfg_hash = _config_hash(effective)

    grid = ucp_mod.default_grid(count)
    report = ucp_mod.verify_counterexample(
        spec, quad, grid, tol=None if tol is None else float(tol))
    f = ucp_mod.build_counterexample(spec)
    r_grid = np.linspace(0.0, 1.0, 501)

    out = _pick(args, cfg, "out", None)
    if out is not None:
        base = os.path.splitext(out)[0]
        _emit_csv(base + "_g.csv", ["t", "g"],
                  list(zip(report.grid, report.g_values)), cfg_hash, seed)
        _emit_csv(base + "_f.csv", ["r", "f"],
                  list(zip(r_grid, f(r_grid))), cfg_hash, seed)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smt",
        description="Spherical mean transform toolkit: forward data, range "
                    "checks, spectral identities, inversion, and the "
                    "vanishing-band construction.")
    parser.add_argument("--version", action="version",
                        version=f"smt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, help="ambient dimension (odd, >= 3)")
    common.add_argument("--m", type=int, help="harmonic degree of the data")
    common.add_argument("--k", type=int, help="kernel order / sweep bound")
    common.add_argument("--lambda-max", type=float, dest="lambda_max",
                        help="upper end of the frequency sweep")
    common.add_argument("--grid", type=int, help="number of grid points")
    common.add_argument("--tol", type=float, help="verdict tolerance")
    common.add_argument("--seed", type=int,
                        help=f"RNG seed (default {DEFAULT_SEED:#x})")
    common.add_argument("--out", help="output file path (default stdout)")
    common.add_argument("--config", help="JSON run configuration")

    p = sub.add_parser("forward", parents=[common],
                       help="tabulate forward data g, h for a profile")
    p.add_argument("--derivatives", action="store_true",
                   help="also write dp_h_0..dp_h_k columns")
    p.set_defaults(fn=_cmd_forward)

    p = sub.add_parser("invert", parents=[common],
                       help="reconstruct f from sampled (t, g) data")
    p.add_argument("--input", help="CSV of (t, g) samples")
    p.set_defaults(fn=_cmd_invert)

    p = sub.add_parser("range-check", parents=[common],
                       help="range symmetry residual of forward data")
    p.add_argument("--input", help="CSV of (t, h) samples")
    p.set_defaults(fn=_cmd_range_check)

    p = sub.add_parser("cross-check", parents=[common],
                       help="cross-product identity sweep over lambda")
    p.set_defaults(fn=_cmd_cross_check)

    p = sub.add_parser("mk-check", parents=[common],
                       help="seeded random sweep of the kernel identity")
    p.add_argument("--count", type=int,
                   help="samples per k (default 100)")
    p.set_defaults(fn=_cmd_mk_check)

    p = sub.add_parser("identities", parents=[common],
                       help="exact integer/rational identity sweeps")
    p.add_argument("--max-k", type=int, dest="max_k",
                   help="sweep bound (default 8)")
    p.set_defaults(fn=_cmd_identities)

    p = sub.add_parser("zeros", parents=[common],
                       help="transform magnitude at Bessel zeros")
    p.add_argument("--count", type=int, help="number of zeros (default 10)")
    p.set_defaults(fn=_cmd_zeros)

    p = sub.add_parser("ucp-demo", parents=[common],
                       help="build and verify a vanishing-band profile")
    p.set_defaults(fn=_cmd_ucp_demo)
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
