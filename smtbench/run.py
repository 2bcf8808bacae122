"""Benchmark of the `smt` command line tool.

    python3 smtbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's seeded list of `smt` jobs one at a time, each in a fresh
interpreter (`job.py`), in passes; every pass runs every job.  The number
of passes follows from S and the workload alone (see PASS_S), so that every
run of a workload attempts the same jobs; on the sandbox they take about S
seconds.  Each job's output is checked against a reference this benchmark
computes itself (`reference.py`, no `sphmean` import).  Metric names and
units come from BENCHMARK.json at the checkout root.

--trace 0 prints the end-to-end metrics, in seconds at the reference speed
of a shared host (see host_slowdown; the raw times are in the record):
  setup_s  interpreter start to `sphmean.cli` imported, median over every
           process of the run;
  wall_s   summed `cli.main` time of a pass, each job at its median.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics: the per-subcommand sums, fail_frac and max_rel_err, the layer
counts and self times from the traced passes (`spans.py`), and the tracing
overhead (traced minus untraced wall_s).

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  `failed` counts every job that raised, exited 2,
or whose verdict or values disagree with the reference; `correct` is false
when any such failure is not listed in known_failures.json.  Inputs,
configs, outputs and a JSON record of the run (with each artifact's sha256)
go under .smtbench_work/ in the checkout.  `--tiny` shrinks every job, for
the smoke test.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# Jobs run one at a time and single-threaded: the CLI's own thread pool is
# off (SMT_THREADS cleared, no --threads) and BLAS gets one thread, so a
# job's BLAS workers do not compete with it on a small shared host.  Set
# before numpy loads, so this process and every job see the same setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SMT_THREADS", None)

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".smtbench_work"
JOB_TIMEOUT_S = 120
CAL_REF_S = 0.004  # the calibration loop on a quiet 2-core x86_64 sandbox
# Real seconds of one untraced pass of each workload on that sandbox, and
# how much longer an untraced plus a traced pass take together.  They size
# the run: the number of passes follows from --seconds alone, so every run
# of a workload attempts the same jobs and the failed share of two sets of
# runs is the same.
PASS_S = {"tabulate": 4.5, "analyze": 7.5, "kernels": 2.3, "sampled": 6.5}
TRACED_ROUND = 2.2
RUN_LIMIT_S = 150  # a slowed-down program still ends within 180 s

SUBCOMMANDS = ("forward", "ucp-demo", "range-check", "cross-check", "zeros",
               "mk-check", "identities", "invert")
SWEEP_FAMILIES = ("alternating-vandermonde", "alternating-AB-collapse",
                  "abel-aigner-convolution", "range-necessity-cancellation",
                  "dp-kernel-expansion", "cj-closed-form",
                  "gamma-coefficient-extraction")


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                  "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    return {"nproc": os.cpu_count(),
            "cpus": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "mpmath": mpmath.__version__,
            "blas_threads": _blas_threads(),
            "machine": platform.machine()}


def _calibration_loop() -> float:
    x = np.linspace(0.0, 1.0, 256)
    acc = 0.0
    for i in range(300):
        acc += float(np.dot(x, np.exp(-1e-3 * i * x)))
        for j in range(200):
            acc += j & 1
    return acc


def host_slowdown() -> float:
    """How much slower than the reference speed the host runs right now.

    Other tenants of a shared host slow every job by up to 2x, in phases
    that last minutes.  A fixed loop of interpreter and small-array numpy
    work, timed next to each job on the same CPU, tracks that: dividing a
    job's time by this factor gives its time at the reference speed, where
    the loop takes CAL_REF_S.  The loop does not touch `sphmean`, so a
    change to the program moves the job time and not the factor.
    """
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        _calibration_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / CAL_REF_S


def round_count(workload: str, seconds: float, trace: int) -> int:
    """Rounds (a pass, or an untraced and a traced pass) that fit in
    `seconds` at the sandbox's speed; at least one."""
    round_s = PASS_S[workload] * (TRACED_ROUND if trace else 1)
    return max(1, int(seconds / round_s))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    def __init__(self, workload: str, seed: int, work: Path, tiny: bool):
        self.jobs = workloads.build(workload, seed, work, tiny)
        self.known = workloads.load_known_failures(HERE / "known_failures.json",
                                                   workload)
        self.requests = work / "requests"
        self.spans = work / "spans"
        self.requests.mkdir()
        self.spans.mkdir()

    def warm_up(self):
        """One untimed import, so every job finds the bytecode caches."""
        subprocess.run([sys.executable, "-c",
                        "import sys; sys.path.insert(0, sys.argv[1]); "
                        "import sphmean.cli", str(SRC)],
                       check=True, timeout=JOB_TIMEOUT_S)

    def run_job(self, job, traced: bool) -> dict:
        for path in job.outputs:
            path.unlink(missing_ok=True)
        result_path = self.requests / f"{job.id}.result.json"
        result_path.unlink(missing_ok=True)
        request = self.requests / f"{job.id}.json"
        request.write_text(json.dumps({
            "argv": job.argv, "result": str(result_path),
            "spans": str(self.spans / f"{job.id}.npy")}))
        cmd = [sys.executable, str(HERE / "job.py"), str(request),
               repr(_now()), str(SRC), "1" if traced else "0"]
        with subprocess.Popen(cmd, cwd=ROOT, text=True, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            try:
                stdout, stderr = proc.communicate(timeout=JOB_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                stdout, stderr = proc.communicate()
                stderr += f"\nkilled after {JOB_TIMEOUT_S} s"
        result = {"rc": None, "error": None, "setup_s": None, "main_s": 0.0}
        if result_path.is_file():
            result.update(json.loads(result_path.read_text()))
        elif proc.returncode != 0:
            result["error"] = f"job process exited {proc.returncode}: {stderr.strip()}"
        record = {"id": job.id, "command": job.command, "traced": traced,
                  **result, "stdout": stdout[-2000:], "stderr": stderr[-2000:]}
        record.update(self.check(job, record))
        record["sha256"] = {p.name: _sha256(p) for p in job.outputs if p.is_file()}
        record["bytes"] = sum(p.stat().st_size for p in job.outputs if p.is_file())
        return record

    def check(self, job, record) -> dict:
        if record["error"]:
            ok, kind, err, detail = False, "raised", None, record["error"].strip()
        elif record["rc"] == 2:
            ok, kind, err, detail = False, "usage", None, record["stderr"].strip()
        else:
            outcome = workloads.Outcome(record["rc"], record["stdout"], record["stderr"])
            try:
                ok, kind, err, detail = job.check(outcome)
            except (OSError, ValueError, IndexError, KeyError) as exc:
                ok, kind, err, detail = False, "value", None, f"unreadable output: {exc}"
        known = None if ok else workloads.match_known(self.known, job.id, kind)
        return {"ok": ok, "kind": kind, "rel_err": err, "detail": detail[-500:],
                "known": known["message"] if known else None}

    def run_pass(self, traced: bool) -> list:
        """Every job once; each record carries the host slowdown measured
        just before and just after its job."""
        records = []
        before = host_slowdown()
        for job in self.jobs:
            record = self.run_job(job, traced)
            after = host_slowdown()
            record["slowdown"] = (before + after) / 2
            records.append(record)
            before = after
        return records


# ---------------------------------------------------------------------------
# metrics


def job_times(passes) -> dict:
    """Each job's subcommand and median reference-speed `cli.main` time."""
    times = {}
    for records in passes:
        for r in records:
            times.setdefault(r["id"], (r["command"], []))[1].append(
                r["main_s"] / r["slowdown"])
    return {job: (cmd, statistics.median(ts)) for job, (cmd, ts) in times.items()}


def subcommand_sums(passes) -> dict:
    sums = {f"{c.replace('-', '_')}_s": 0.0 for c in SUBCOMMANDS}
    for cmd, seconds in job_times(passes).values():
        sums[f"{cmd.replace('-', '_')}_s"] += seconds
    return sums


def wall(passes) -> float:
    """Summed reference-speed job time of one pass."""
    return sum(seconds for _, seconds in job_times(passes).values())


def setup(passes) -> float:
    """Median reference-speed set-up time over every process."""
    return statistics.median(r["setup_s"] / r["slowdown"]
                             for records in passes for r in records
                             if r["setup_s"] is not None)


def layer_metrics(records) -> dict:
    """Per-layer metrics of one traced pass, summed over its jobs."""
    calls, own, total, counts, sweeps = Counter(), Counter(), Counter(), Counter(), Counter()
    ranks = []
    for r in records:
        layers = r.get("layers")
        if not layers:
            continue
        for name, s in layers["spans"].items():
            calls[name] += s["calls"]
            own[name] += s["self_s"]
            total[name] += s["total_s"]
        counts.update(layers["counts"])
        sweeps.update(layers["sweeps"])
        ranks += layers["ranks"]
    m = {"transform.integrate.calls": calls["transform.integrate"],
         "transform.quad_nodes": counts["transform.quad_nodes"]}
    for name in ("transform.forward_h", "transform.forward_h_dp",
                 "transform.harmonic", "specfun.dp_trig", "exactmath.dp_q_power",
                 "rangecheck.apply_Lk", "rangecheck.chain", "spectral.hankel",
                 "spectral.mk"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = own[name]
    m.update({
        "specfun.jet_ops": calls["specfun.jet"],
        "specfun.jet.self_s": own["specfun.jet"],
        "specfun.mp_escalations": counts["specfun.mp_escalations"],
        "specfun.mp_s": total["specfun.mp"],
        "specfun.bessel_zero.self_s": own["specfun.bessel_zero"],
        "rangecheck.sampled.self_s": own["rangecheck.sampled"],
        "rangecheck.verdict_fail": counts["rangecheck.verdict_fail"],
        "spectral.panels": counts["spectral.panels"],
        "spectral.h_evals": counts["spectral.h_evals"],
        "spectral.h_repeat_frac": (counts["spectral.h_repeats"] / counts["spectral.h_evals"]
                                   if counts["spectral.h_evals"] else 0.0),
        "spectral.mk_mp_retries": counts["spectral.mk_mp_retries"],
        "inverse.forward_matrix.self_s": own["inverse.forward_matrix"],
        "inverse.svd_s": total["inverse.svd"],
        "inverse.invert.self_s": own["inverse.invert"],
        "inverse.rejected": counts["inverse.rejected"],
        "inverse.rank_min": min(ranks) if ranks else 0,
        "ucp.verify.self_s": own["ucp.verify"],
        "cli.self_s": own["cli.main"],
        "cli.artifact_bytes": sum(r["bytes"] for r in records),
    })
    for family in SWEEP_FAMILIES:
        m[f"exactmath.sweep.{family}_s"] = sweeps[family]
    for lib in ("numpy", "mpmath", "sphmean"):
        m[f"setup.import.{lib}_s"] = statistics.median(
            r["imports"].get(lib, 0.0) for r in records if r.get("imports"))
    return m


def end_to_end(passes) -> dict:
    return {"wall_s": wall(passes), "setup_s": setup(passes)}


def per_layer(plain, traced, records) -> dict:
    m = subcommand_sums(plain)
    # counts repeat exactly from pass to pass; times take the fastest pass
    layers = [layer_metrics(p) for p in traced]
    m.update({k: min(d[k] for d in layers) for k in layers[0]})
    errors = [r["rel_err"] for r in records if r["ok"] and r["rel_err"] is not None]
    m["fail_frac"] = sum(not r["ok"] for r in records) / len(records)
    m["max_rel_err"] = max(errors, default=0.0)
    m["trace.overhead_s"] = wall(traced) - wall(plain)
    return m


# ---------------------------------------------------------------------------


def _job_line(r) -> str:
    status = "ok" if r["ok"] else f"FAIL({r['kind']}){'[known]' if r['known'] else ''}"
    err = "" if r["rel_err"] is None else f" rel_err={r['rel_err']:.3e}"
    hashes = " ".join(f"{k}={v}" for k, v in sorted(r["sha256"].items()))
    line = (f"job {r['id']} rc={r['rc']} {status} main_s={r['main_s']:.4f}"
            f"{err} sha256 {hashes}")
    if not r["ok"]:
        line += f"\n    {r['detail'].splitlines()[-1] if r['detail'] else ''}"
    return line


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every job (smoke test)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sphmean" / "cli.py").is_file():
        print(f"smtbench: no sphmean sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"smtbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # the run and its jobs share one CPU, so the calibration loop sees the
    # contention the jobs see
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(args.workload, args.seed, work, args.tiny)
    env = environment()
    print(f"smtbench {args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={len(runner.jobs)}")
    print("env " + json.dumps(env, sort_keys=True))
    runner.warm_up()

    modes = (False, True) if args.trace else (False,)
    passes = {False: [], True: []}
    rounds = round_count(args.workload, args.seconds, args.trace)
    start = _now()
    for done in range(rounds):
        for traced in modes:
            t_pass = _now()
            records = runner.run_pass(traced)
            t_pass = _now() - t_pass
            passes[traced].append(records)
            if done == 0:
                for r in records:
                    print(_job_line(r))
            print(f"pass {len(passes[traced])} traced={int(traced)} "
                  f"wall_s={wall([records]):.4f} setup_s={setup([records]):.4f} "
                  f"raw_wall_s={sum(r['main_s'] for r in records):.4f} slowdown="
                  f"{statistics.median(r['slowdown'] for r in records):.3f} "
                  f"pass_s={t_pass:.2f}",
                  flush=True)
        elapsed = _now() - start
        if done + 1 < rounds and elapsed + elapsed / (done + 1) > RUN_LIMIT_S:
            print(f"stopped after {done + 1} of {rounds} rounds: "
                  f"{elapsed:.1f} s used, limit {RUN_LIMIT_S} s")
            break

    records = [r for mode in modes for p in passes[mode] for r in p]
    first = {}
    for r in records:
        if first.setdefault(r["id"], r["sha256"]) != r["sha256"]:
            print(f"artifact bytes differ between passes: {r['id']}")
    if args.trace:
        metrics = per_layer(passes[False], passes[True], records)
    else:
        metrics = end_to_end(passes[False])
    out = {}
    for d in declared:
        out[d["name"]] = {"value": metrics[d["name"]], "unit": d["unit"]}
        print(f"metric {d['name']} = {metrics[d['name']]!r} {d['unit']}")

    failed = sum(not r["ok"] for r in records)
    correct = all(r["ok"] or r["known"] for r in records)
    record_dir = WORK / "records"
    record_dir.mkdir(parents=True, exist_ok=True)
    (record_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "tiny": args.tiny, "env": env,
                    "metrics": metrics, "passes": {
                        "plain": passes[False], "traced": passes[True]}},
                   indent=1, default=str))
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
