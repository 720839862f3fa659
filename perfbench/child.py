"""Measured process: runs one workload's passes in a fresh interpreter.

Invoked by run.py as `python3 child.py <config.json>`. It times the passes,
writes the scan outputs and a result file into the work directory, and
leaves every correctness check to the parent, so the checks and their
memory stay out of this process's timings and peak RSS.

A pass is the unit of timed work: imag-scan runs `scan` into a file and
`table` over that file; real-scan runs `scan`; point-eval issues every
query of the pool once, one at a time. Untraced runs repeat passes until
the time budget is spent. A traced run makes one untraced pass, installs
the tracer, and makes one traced pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import sys
import time

import workloads
from calibrate import calibrate
from workloads import ALPHA_C, ALPHA_R, SOLVE, W, W_REAL

import lgw
from lgw import cli, solver, wfunc
from lgw.errors import LgwError


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _run_cli(argv: list[str], out_path: str) -> tuple[int, float]:
    t0 = time.perf_counter()
    with open(out_path, "w") as out, contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, time.perf_counter() - t0


def scan_pass(cfg: dict) -> dict:
    work = cfg["workdir"]
    scan_path = os.path.join(work, "scan.out")
    commands = [("scan", workloads.scan_argv(cfg["workload"], cfg["sizes"]), scan_path)]
    if cfg["workload"] == "imag-scan":
        commands.append(("table", ["table", "--input", scan_path], os.path.join(work, "table.out")))
    record = {}
    for name, argv, path in commands:
        code, seconds = _run_cli(argv, path)
        record[name] = {"exit": code, "seconds": seconds}
    for name, _, path in commands:
        record[name]["sha256"] = _sha256(path)
        record[name]["bytes"] = os.path.getsize(path)
    record["seconds"] = sum(record[name]["seconds"] for name, _, _ in commands)
    return record


# -- point-eval ------------------------------------------------------------------
# Lookups go through the module attributes on every call, so a traced run
# sees the wrapped functions.

def _q_w(k, z):
    return wfunc.lambert_w(k, z).value


def _q_w_real(k, x):
    return wfunc.lambert_w_real(k, x)


def _q_solve(a, b, c, k):
    return solver.solve_exp_linear(solver.ExpLinearEquation(a, b, c), k)


def _q_alpha_c(eps, log_branch, j, beta):
    u = solver.UnitInput.complex_unit(eps, log_branch)
    return solver.alpha_complex_case(u, j=j, beta=beta).alpha


def _q_alpha_r(log_eps, j, pairing):
    u = solver.UnitInput.from_log(log_eps, case=solver.Case.REAL)
    return solver.alpha_real_case(u, j=j, pairing=solver.Pairing(pairing)).alpha


_QUERY = {W: _q_w, W_REAL: _q_w_real, SOLVE: _q_solve, ALPHA_C: _q_alpha_c, ALPHA_R: _q_alpha_r}


def query_pass(calls: list, latencies: list, results: list) -> float:
    """Closed loop, one client: each query is sent after the last returns."""
    clock = time.perf_counter_ns
    t_pass = time.perf_counter()
    for i, (fn, args) in enumerate(calls):
        t0 = clock()
        try:
            r = fn(*args)
        except Exception as exc:  # classified by the parent; LgwError is an expected failure
            r = exc
        latencies[i] = clock() - t0
        results[i] = r
    return time.perf_counter() - t_pass


def _encode(r):
    if isinstance(r, LgwError):
        return {"error": type(r).__name__}
    if isinstance(r, Exception):
        return {"unexpected": f"{type(r).__name__}: {r}"}
    r = complex(r)
    return [r.real, r.imag]


def timed_passes(one_pass, seconds: float) -> list[dict]:
    """Repeat passes until `seconds` have elapsed, with a calibration slice
    before the first pass and after each one (see calibrate.py)."""
    passes = []
    cal_before = calibrate()
    t_start = time.monotonic()
    while True:
        record = one_pass()
        cal_after = calibrate()
        record["cal_s"] = (cal_before + cal_after) / 2
        passes.append(record)
        cal_before = cal_after
        if time.monotonic() - t_start >= seconds:
            return passes


def point_eval(cfg: dict, tracer) -> dict:
    import numpy as np

    pool = workloads.make_pool(cfg["seed"], cfg["sizes"]["point-eval"]["pool"])
    calls = [(_QUERY[kind], args) for kind, args in pool]
    n = len(calls)
    latencies = [0] * n
    results = [None] * n
    query_pass(calls, latencies, results)  # warm-up; these results are checked
    first = [_encode(r) for r in results]
    out = {"results": first}
    if tracer is not None:
        untraced = query_pass(calls, latencies, results)
        tracer.install()
        traced = query_pass(calls, latencies, results)
        out["passes"] = [{"seconds": untraced}, {"seconds": traced, "traced": True}]
    else:
        def one_pass():
            seconds = query_pass(calls, latencies, results)
            # Percentiles per pass keep memory flat however many passes fit.
            p50, p99 = np.percentile(np.array(latencies, dtype=np.int64), (50, 99)) / 1e3
            return {"seconds": seconds, "p50_us": p50, "p99_us": p99}

        out["passes"] = timed_passes(one_pass, cfg["seconds"])
    # Queries whose last timed result differs from the checked warm-up one.
    out["changed"] = [i for i, r in enumerate(results) if _encode(r) != first[i]]
    return out


def main() -> int:
    with open(sys.argv[1]) as f:
        cfg = json.load(f)
    tracer = None
    if cfg["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
    if cfg["workload"] == "point-eval":
        out = point_eval(cfg, tracer)
    else:
        out = {"passes": []}
        if tracer is not None:
            out["passes"].append(scan_pass(cfg))
            tracer.install()
            out["passes"].append(dict(scan_pass(cfg), traced=True))
        else:
            out["passes"] = timed_passes(lambda: scan_pass(cfg), cfg["seconds"])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["lgw_file"] = lgw.__file__
    if tracer is not None:
        tracer.dump(cfg["workdir"])
    with open(os.path.join(cfg["workdir"], "child.json"), "w") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
