"""In-memory spans around `sphmean`'s public entry points, for the traced run.

The recorder wraps, from outside the package, the module attributes `cli`
calls, the public functions and methods of each layer below it,
`QuadratureRule.integrate`, the data objects' `h`, `mpmath.mp.workdps` and
`numpy.linalg.svd`.  Each call becomes a span (name, parent, start, end);
counts are taken at the same boundaries.  A span's self time is its
duration minus the time its child spans cover.  Private helpers such as
`_eval_terms` or `_dp_trig_scalar` are not wrapped: their time shows as the
self time of the public span that calls them.
"""

from __future__ import annotations

import re
import sys
import time
from collections import Counter

import numpy as np

# module -> {attribute: span name}; a dotted attribute is a method
ENTRY_POINTS = {
    "transform": {
        "forward_h": "transform.forward_h",
        "forward_h_dp": "transform.forward_h_dp",
        "forward_harmonic_h": "transform.harmonic",
        "phi_harmonic_dp": "transform.harmonic",
        "QuadratureRule.integrate": "transform.integrate",
        "SmtProfile.h": "transform.data_h",
        "HarmonicForwardData.h": "transform.data_h",
    },
    "specfun": {
        "dp_sinc": "specfun.dp_trig",
        "dp_cosc": "specfun.dp_trig",
        "dp_trig_mp": "specfun.dp_trig",
        "bessel_zero": "specfun.bessel_zero",
        **{f"Jet.{op}": "specfun.jet" for op in (
            "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
            "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
            "sin_cos", "exp")},
    },
    "exactmath": {
        "dp_q_power": "exactmath.dp_q_power",
    },
    "rangecheck": {
        "range_residual": "rangecheck.check",
        "general_range_check": "rangecheck.check",
        "apply_Lk": "rangecheck.apply_Lk",
        "AntiDerivativeChain.phi": "rangecheck.chain",
        "AntiDerivativeChain.dp_phi": "rangecheck.chain",
        "AntiDerivativeChain.moment_defects": "rangecheck.chain",
        "AntiDerivativeChain.defect_scales": "rangecheck.chain",
        "SampledH.__init__": "rangecheck.sampled",
        "SampledH.h": "rangecheck.sampled",
        "SampledH.dp_h": "rangecheck.sampled",
    },
    "spectral": {
        "hankel": "spectral.hankel",
        "hankel_h": "spectral.hankel",
        "cross_product_terms": "spectral.cross",
        "bessel_zero_vanishing": "spectral.zeros",
        "mk_residual": "spectral.mk",
    },
    "inverse": {
        "forward_matrix": "inverse.forward_matrix",
    },
    "ucp": {
        "verify_counterexample": "ucp.verify",
    },
}

_SPECTRAL = ("spectral.hankel", "spectral.cross", "spectral.zeros")
_RANK = re.compile(r"effective rank (\d+)")


class Recorder:
    """Spans and counts of one job, kept in memory until the job ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []   # [name id, parent index, start, end]
        self.stack: list[int] = []
        self.counts = Counter()
        self.sweeps: dict[str, float] = {}
        self.ranks: list[int] = []
        self._spectral_open = 0
        self._invert_open = 0
        self._h_seen: set = set()

    # -- spans

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> list:
        span = [self._name_id(name), self.stack[-1] if self.stack else -1,
                time.perf_counter(), 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list):
        span[3] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str):
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            span = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(span)
        return traced

    # -- boundaries with counts

    def _integrate(self, fn):
        spans_name = "transform.integrate"

        def integrate(rule, integrand, a, b):
            if b > a:
                nodes = rule.nodes_per_panel * rule.panels
                self.counts["transform.quad_nodes"] += nodes
                if sys._getframe(1).f_globals.get("__name__") == "sphmean.spectral":
                    self.counts["spectral.panels"] += rule.panels
            span = self.open(spans_name)
            try:
                return fn(rule, integrand, a, b)
            finally:
                self.close(span)
        return integrate

    def _data_h(self, fn):
        traced = self.wrap(fn, "transform.data_h")

        def h(data, t):
            if self._spectral_open:
                values = np.atleast_1d(np.asarray(t, dtype=float)).ravel().tolist()
                seen = self._h_seen
                before = len(seen)
                seen.update(values)
                self.counts["spectral.h_evals"] += len(values)
                self.counts["spectral.h_repeats"] += len(values) - (len(seen) - before)
            return traced(data, t)
        return h

    def _spectral(self, fn, name):
        traced = self.wrap(fn, name)

        def spectral(*args, **kwargs):
            self._spectral_open += 1
            try:
                return traced(*args, **kwargs)
            finally:
                self._spectral_open -= 1
        return spectral

    def _invert(self, fn):
        traced = self.wrap(fn, "inverse.invert")

        def invert(*args, **kwargs):
            self._invert_open += 1
            try:
                result = traced(*args, **kwargs)
            except RuntimeError as exc:
                self.counts["inverse.rejected"] += 1
                found = _RANK.search(str(exc))
                if found:
                    self.ranks.append(int(found.group(1)))
                raise
            finally:
                self._invert_open -= 1
            self.ranks.append(int(result.rank))
            return result
        return invert

    def _svd(self, fn):
        def svd(*args, **kwargs):
            name = "inverse.svd" if self._invert_open else "numpy.svd"
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
        return svd

    def _verdict(self, fn):
        def passed(*args, **kwargs):
            ok = fn(*args, **kwargs)
            if not ok:
                self.counts["rangecheck.verdict_fail"] += 1
            return ok
        return passed

    def _sweeps(self, fn):
        def identity_sweeps(*args, **kwargs):
            families = fn(*args, **kwargs)
            while True:
                span = self.open("exactmath.sweep")
                try:
                    item = next(families)
                except StopIteration:
                    return
                finally:
                    self.close(span)
                self.sweeps[item[0]] = span[3] - span[2]
                yield item
        return identity_sweeps

    def _workdps(self, fn):
        recorder = self

        class Precision:
            def __init__(self, ctx, name):
                self._ctx, self._name = ctx, name

            def __enter__(self):
                self._span = recorder.open(self._name)
                return self._ctx.__enter__()

            def __exit__(self, *exc):
                try:
                    return self._ctx.__exit__(*exc)
                finally:
                    recorder.close(self._span)

        def workdps(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller == "sphmean.specfun":
                name = "specfun.mp"
                self.counts["specfun.mp_escalations"] += 1
            elif caller == "sphmean.spectral":
                name = "spectral.mk_mp"
                self.counts["spectral.mk_mp_retries"] += 1
            else:
                name = "mpmath.workdps"
            return Precision(fn(*args, **kwargs), name)
        return workdps

    # -- installation

    def install(self):
        """Wrap every entry point, wherever `sphmean` modules refer to it."""
        import mpmath
        import sphmean

        replace = {}
        for module, attrs in ENTRY_POINTS.items():
            mod = sys.modules[f"sphmean.{module}"]
            for attr, name in attrs.items():
                owner, _, method = attr.rpartition(".")
                if owner:
                    cls = getattr(mod, owner)
                    fn = cls.__dict__[method]
                    if attr == "QuadratureRule.integrate":
                        new = self._integrate(fn)
                    elif name == "transform.data_h":
                        new = self._data_h(fn)
                    else:
                        new = self.wrap(fn, name)
                    setattr(cls, method, new)
                elif name in _SPECTRAL:
                    replace[getattr(mod, attr)] = self._spectral(getattr(mod, attr), name)
                else:
                    replace[getattr(mod, attr)] = self.wrap(getattr(mod, attr), name)
        rangecheck, inverse, exactmath = (sys.modules[f"sphmean.{m}"] for m in
                                          ("rangecheck", "inverse", "exactmath"))
        replace[inverse.invert_radial] = self._invert(inverse.invert_radial)
        replace[exactmath.identity_sweeps] = self._sweeps(exactmath.identity_sweeps)
        for cls, method in ((rangecheck.RangeReport, "passed"),
                            (rangecheck.GeneralRangeReport, "defects_passed")):
            setattr(cls, method, self._verdict(cls.__dict__[method]))

        for name, mod in list(sys.modules.items()):
            if mod is sphmean or name.startswith("sphmean."):
                for attr, value in list(vars(mod).items()):
                    if callable(value) and value in replace:
                        setattr(mod, attr, replace[value])
        mpmath.mp.workdps = self._workdps(mpmath.mp.workdps)
        np.linalg.svd = self._svd(np.linalg.svd)

    # -- results

    def summary(self, spans_path: str) -> dict:
        """Per-name calls, total and self time, plus the counts; the raw
        spans are saved to `spans_path`."""
        table = np.array(self.spans, dtype=float).reshape(-1, 4)
        name_id = table[:, 0].astype(int)
        parent = table[:, 1].astype(int)
        duration = table[:, 3] - table[:, 2]
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child],
                              minlength=len(table))
        self_time = duration - covered
        size = len(self.names)
        calls = np.bincount(name_id, minlength=size)
        total = np.bincount(name_id, weights=duration, minlength=size)
        own = np.bincount(name_id, weights=self_time, minlength=size)
        np.save(spans_path, table)
        return {
            "names": self.names,
            "spans": {n: {"calls": int(calls[i]), "total_s": float(total[i]),
                          "self_s": float(own[i])}
                      for i, n in enumerate(self.names)},
            "counts": dict(self.counts),
            "sweeps": self.sweeps,
            "ranks": self.ranks,
        }
