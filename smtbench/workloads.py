"""The benchmark's workloads: seeded lists of `smt` jobs, each with a check.

Every profile is a bump whose support ends at R_HI; the seed draws its width
(and so its centre and inner edge) and its amplitude.  The number of
quadrature nodes, kernel evaluations and lambda panels a job needs depends
only on where the support ends, so every seed asks for the same amount of
work while the data themselves change.

Each check returns (ok, kind, rel_err, detail).  `kind` names how a failed
job failed: "verdict" (a FAIL verdict on data the theory says is in range),
"refused" (the program declined the input), or "value" (an answer that
disagrees with this benchmark's own reference).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import mpmath
import numpy as np

import reference as ref

R_HI = 0.9
WIDTHS = (0.15, 0.35)
AMPLITUDES = (0.5, 2.0)

FORWARD_TOL = 1e-9     # forward columns against the reference, sup-relative
UCP_TOL = 1e-8         # F^(m) data amplify roundoff; still 3 orders above it
ZERO_TOL = 1e-10       # kernel zeros against mpmath.besseljzero
INVERT_TOL = 1e-3      # relative L2 round trip (ROADMAP item 3 threshold)
INVERT_UNKNOWNS = 240  # the CLI's default inversion grid

WORKLOADS = ("tabulate", "analyze", "kernels", "sampled")


@dataclass
class Job:
    id: str
    command: str
    argv: list
    outputs: list
    check: Callable = field(repr=False)


@dataclass
class Outcome:
    """What one job run produced, as the checks see it."""

    rc: int | None
    stdout: str
    stderr: str


class _Draw:
    """Seeded bump parameters; one stream per workload and seed."""

    def __init__(self, workload: str, seed: int):
        self._rng = np.random.default_rng([seed, WORKLOADS.index(workload)])

    def bump(self) -> ref.Bump:
        width = float(self._rng.uniform(*WIDTHS))
        amplitude = float(self._rng.uniform(*AMPLITUDES))
        return ref.Bump(R_HI - width, width, amplitude)


def read_csv(path: Path):
    """Header and numeric rows of an `smt` CSV artifact ('#' lines skipped)."""
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, np.array(rows, dtype=float)


def _fail(kind, detail, err=None):
    return False, kind, err, detail


def _ok(err=None):
    return True, None, err, ""


def _verdict(out: Outcome, word: str):
    """rc 0 with a PASS line is a pass; rc 1 is a FAIL verdict."""
    line = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    if out.rc == 0 and f"{word}: PASS" in line:
        return None
    if out.rc == 1:
        return _fail("verdict", line or out.stderr.strip())
    return _fail("value", f"rc {out.rc}: {line}")


class _JobList:
    def __init__(self, workload: str, seed: int, work: Path, tiny: bool):
        self.draw = _Draw(workload, seed)
        self.seed = seed
        self.tiny = tiny
        self.configs = work / "configs"
        self.inputs = work / "inputs"
        self.out = work / "out"
        for d in (self.configs, self.inputs, self.out):
            d.mkdir(parents=True, exist_ok=True)
        self.jobs: list[Job] = []

    def size(self, full, tiny):
        return tiny if self.tiny else full

    def config(self, name: str, payload: dict) -> str:
        path = self.configs / f"{name}.json"
        path.write_text(json.dumps(payload, sort_keys=True))
        return str(path)

    def profile(self, name: str, bump: ref.Bump) -> str:
        return self.config(name, {"profile": {
            "family": "bump", "center": bump.center, "width": bump.width,
            "amplitude": bump.amplitude}})

    def add(self, job_id, command, args, outputs, check):
        self.jobs.append(Job(job_id, command, [command, *args],
                             [Path(p) for p in outputs], check))


# ---------------------------------------------------------------------------
# checks


def _same_grid(got, want) -> bool:
    return len(got) == len(want) and float(np.max(np.abs(got - want))) <= 1e-12


def _check_forward(path: Path, want: dict):
    """`want` maps each expected column name to its reference values."""
    def check(out: Outcome):
        if out.rc != 0:
            return _fail("value", f"rc {out.rc}: {out.stderr.strip()}")
        header, data = read_csv(path)
        if header != list(want) or not _same_grid(data[:, 0], want["t"]):
            return _fail("value", f"columns {header} or t grid differ")
        err = max(ref.rel_sup(data[:, i], col)
                  for i, col in enumerate(want.values()) if i)
        if err > FORWARD_TOL:
            return _fail("value", f"forward columns off by {err:.2e}", err)
        return _ok(err)
    return check


def _radial_columns(bump, n, t, derivatives):
    k = (n - 3) // 2
    dp = ref.h_radial(bump, n, t, k if derivatives else 0)
    cols = {"t": t, "g": dp[0] / t ** (n - 2), "h": dp[0]}
    if derivatives:
        cols.update({f"dp_h_{p}": dp[p] for p in range(k + 1)})
    return cols


def _harmonic_columns(bump, n, m, t):
    h = ref.h_harmonic(bump, n, m, t)
    return {"t": t, "g": h / t ** (n - 2), "h": h}


def _check_ucp(base: Path, profile, n, count):
    t = np.linspace(0.05, 1.95, count)
    r = np.linspace(0.0, 1.0, 501)
    g_want, f_want = ref.g_radial(profile, n, t, panels=96), profile(r)

    def check(out: Outcome):
        bad = _verdict(out, "ucp-demo")
        if bad:
            return bad
        _, g = read_csv(base.with_name(base.stem + "_g.csv"))
        _, f = read_csv(base.with_name(base.stem + "_f.csv"))
        if not (_same_grid(g[:, 0], t) and _same_grid(f[:, 0], r)):
            return _fail("value", "ucp-demo grids differ")
        err = max(ref.rel_sup(g[:, 1], g_want), ref.rel_sup(f[:, 1], f_want))
        if err > UCP_TOL:
            return _fail("value", f"ucp-demo curves off by {err:.2e}", err)
        return _ok(err)
    return check


def _check_json_verdict(path: Path, word: str):
    def check(out: Outcome):
        bad = _verdict(out, word)
        if bad:
            return bad
        if json.loads(path.read_text())["verdict"] != "PASS":
            return _fail("value", "PASS exit with a FAIL record")
        return _ok()
    return check


def _check_cross(path: Path, tol: float):
    def check(out: Outcome):
        bad = _verdict(out, "cross-check")
        if bad:
            return bad
        _, data = read_csv(path)
        if np.max(data[:, 3]) > tol:
            return _fail("value", "PASS with a residual above tol")
        return _ok()
    return check


def _check_zeros(path: Path, order: int, count: int):
    want = np.array([float(mpmath.besseljzero(order + 0.5, i))
                     for i in range(1, count + 1)])

    def check(out: Outcome):
        bad = _verdict(out, "zeros")
        if bad:
            return bad
        _, data = read_csv(path)
        err = float(np.max(np.abs(data[:, 0] - want) / want))
        if err > ZERO_TOL:
            return _fail("value", f"kernel zeros off by {err:.2e}", err)
        return _ok(err)
    return check


def _check_mk(out: Outcome):
    return _verdict(out, "mk-check") or _ok()


def _check_identities(path: Path):
    def check(out: Outcome):
        bad = _verdict(out, "identities")
        if bad:
            return bad
        status = [ln.rsplit(",", 1)[-1] for ln in path.read_text().splitlines()
                  if ln and not ln.startswith("#")][1:]
        if len(status) != 7 or set(status) != {"PASS"}:
            return _fail("value", f"sweep statuses {status}")
        return _ok()
    return check


def _check_invert(path: Path, profile):
    nodes, weights = ref.gauss_unit(INVERT_UNKNOWNS)
    want = profile(nodes)

    def check(out: Outcome):
        if out.rc == 1 and "ill-posed configuration" in out.stderr:
            return _fail("refused", out.stderr.strip())
        if out.rc != 0:
            return _fail("value", f"rc {out.rc}: {out.stderr.strip()}")
        _, data = read_csv(path)
        if not _same_grid(data[:, 0], nodes):
            return _fail("value", "reconstruction nodes are not the Gauss grid")
        err = ref.rel_l2(data[:, 1], want, weights)
        if err > INVERT_TOL:
            return _fail("value", f"round trip rel L2 {err:.2e} > {INVERT_TOL:g}",
                         err)
        return _ok(err)
    return check


# ---------------------------------------------------------------------------
# workloads


def _tabulate(b: _JobList):
    t = np.linspace(0.05, 1.95, b.size(2001, 41))  # the CLI's forward grid
    grid = str(len(t))
    for n in (3, 5, 9):
        bump = b.draw.bump()
        out = b.out / f"forward-n{n}.csv"
        b.add(f"forward-n{n}", "forward",
              ["--config", b.profile(f"forward-n{n}", bump), "--n", str(n),
               "--grid", grid, "--derivatives", "--out", str(out)],
              [out], _check_forward(out, _radial_columns(bump, n, t, True)))
    bump = b.draw.bump()
    out = b.out / "forward-n5-m2.csv"
    b.add("forward-n5-m2", "forward",
          ["--config", b.profile("forward-n5-m2", bump), "--n", "5", "--m", "2",
           "--grid", grid, "--out", str(out)],
          [out], _check_forward(out, _harmonic_columns(bump, 5, 2, t)))
    for n, m in ((3, 2), (5, 6)):
        # the smallest order m = 4k + 2 that clears the kernel polynomial
        bump = b.draw.bump()
        base = b.out / f"ucp-n{n}.csv"
        cfg = b.config(f"ucp-n{n}", {"n": n, "epsilon": 0.2, "m": m,
                                     "bump": [bump.center, bump.width]})
        outs = [base.with_name(base.stem + s) for s in ("_g.csv", "_f.csv", ".json")]
        f = ref.Derivative(ref.Bump(bump.center, bump.width), m)
        count = b.size(201, 16)
        b.add(f"ucp-demo-n{n}", "ucp-demo",
              ["--config", cfg, "--grid", str(count), "--out", str(base)],
              outs, _check_ucp(base, f, n, count))


def _analyze(b: _JobList):
    for n, m in ((9, 0), (5, 2)):
        out = b.out / f"range-check-n{n}-m{m}.json"
        b.add(f"range-check-n{n}-m{m}", "range-check",
              ["--config", b.profile(f"range-check-n{n}-m{m}", b.draw.bump()),
               "--n", str(n), "--m", str(m), "--grid", str(b.size(101, 11)),
               "--out", str(out)],
              [out], _check_json_verdict(out, "range-check"))
    for m in (0, 2):
        out = b.out / f"cross-check-n5-m{m}.csv"
        b.add(f"cross-check-n5-m{m}", "cross-check",
              ["--config", b.profile(f"cross-check-n5-m{m}", b.draw.bump()),
               "--n", "5", "--m", str(m), "--grid", str(b.size(8, 3)),
               "--out", str(out)],
              [out], _check_cross(out, 1e-8))
    count = b.size(5, 2)
    for n in (3, 9):
        out = b.out / f"zeros-n{n}.csv"
        b.add(f"zeros-n{n}", "zeros",
              ["--config", b.profile(f"zeros-n{n}", b.draw.bump()), "--n", str(n),
               "--count", str(count), "--out", str(out)],
              [out], _check_zeros(out, (n - 3) // 2, count))


def _kernels(b: _JobList):
    out = b.out / "mk-check.csv"
    b.add("mk-check", "mk-check",
          ["--k", str(b.size(6, 2)), "--count", str(b.size(100, 3)),
           "--seed", str(b.seed), "--out", str(out)], [out], _check_mk)
    out = b.out / "identities.csv"
    b.add("identities", "identities",
          ["--max-k", str(b.size(8, 2)), "--out", str(out)],
          [out], _check_identities(out))


def _sampled(b: _JobList):
    # inputs are written before any timing, from the reference alone
    t_h = np.linspace(0.05, 1.95, 401)
    t_g = np.linspace(0.05, 1.95, 2001)
    dims = b.size((3, 5, 7, 9), (3, 7))
    for n in dims:
        for i in range(b.size(2, 1)):
            bump = b.draw.bump()
            tag = f"n{n}-p{i}"
            h_in = b.inputs / f"h-{tag}.csv"
            _write_samples(h_in, "t,h", t_h, ref.h_radial(bump, n, t_h)[0])
            out = b.out / f"range-check-{tag}.json"
            b.add(f"range-check-input-{tag}", "range-check",
                  ["--n", str(n), "--input", str(h_in), "--out", str(out)],
                  [out], _check_json_verdict(out, "range-check"))
            g_in = b.inputs / f"g-{tag}.csv"
            _write_samples(g_in, "t,g", t_g, ref.g_radial(bump, n, t_g))
            out = b.out / f"invert-{tag}.csv"
            b.add(f"invert-{tag}", "invert",
                  ["--n", str(n), "--input", str(g_in), "--out", str(out)],
                  [out, out.with_suffix(".json")], _check_invert(out, bump))


def _write_samples(path: Path, header: str, t, values):
    rows = "".join("%.17g,%.17g\n" % tv for tv in zip(t, values))
    path.write_text(header + "\n" + rows)


def build(workload: str, seed: int, work: Path, tiny: bool = False) -> list[Job]:
    """Write the workload's configs and inputs under `work`; return its jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")
    b = _JobList(workload, seed, work, tiny)
    {"tabulate": _tabulate, "analyze": _analyze, "kernels": _kernels,
     "sampled": _sampled}[workload](b)
    return b.jobs


def load_known_failures(path: Path, workload: str) -> list[dict]:
    return [k for k in json.loads(path.read_text())
            if k["workload"] == workload]


def match_known(known: list[dict], job_id: str, kind: str | None):
    """The known-failure entry covering this job and failure kind, if any."""
    for k in known:
        if re.fullmatch(k["jobs"], job_id) and k["kind"] == kind:
            return k
    return None
