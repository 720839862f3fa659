"""lgw benchmark: end-to-end and per-layer metrics for three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload imag-scan --seed 1 --seconds 20 --trace 0

`--workload all` runs every workload in turn, `--smoke` shrinks every size
to a few seconds' worth. Every metric is printed by name with its unit; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. With `--trace 0` the metrics are the end-to-end ones,
with `--trace 1` the per-layer ones from a traced run. See README.md in
this directory for the workloads and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from calibrate import LAUNCH_REF_S, REFERENCE_LAUNCH, rescale

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_LIMIT_S = 175.0
SETUP_CODE = "import time\nimport lgw\nprint(time.monotonic_ns(), lgw.__file__)"

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"))

# Span metrics per traced public function. cli.scan and cli.table are spans
# of lgw.cli.run, named after the subcommand.
_SPAN_METRICS = {
    "fields.radicand_of_discriminant": ("calls", "busy_s"),
    "fields.is_fundamental_discriminant": ("calls", "busy_s"),
    "fields.is_squarefree": ("calls", "busy_s"),
    "fields.roots_of_unity": ("calls", "busy_s"),
    "fields.class_numbers_imaginary_batch": ("busy_s",),
    "fields.class_number": ("calls", "busy_s", "self_s"),
    "fields.fundamental_unit": ("calls", "busy_s"),
    "survey.scan_imaginary": ("self_s",),
    "survey.scan_real": ("self_s",),
    "survey.summary_to_json": ("busy_s",),
    "survey.row_records": ("busy_s",),
    "survey.records_to_csv": ("busy_s",),
    "cli.scan": ("busy_s", "self_s"),
    "cli.table": ("busy_s", "self_s"),
    "wfunc.lambert_w": ("calls", "busy_s", "errors"),
    "wfunc.lambert_w_real": ("calls", "busy_s"),
    "solver.solve_exp_linear": ("calls", "busy_s", "self_s"),
    "solver.alpha_complex_case": ("calls", "busy_s", "self_s"),
    "solver.alpha_real_case": ("calls", "busy_s", "self_s"),
}
_EXTRA_METRICS = (
    ("fields.fundamental_unit.useful_ratio", "ratio"),
    ("survey.summary_to_json.bytes", "B"),
    ("survey.records_to_csv.bytes", "B"),
    ("cli.stdout_bytes", "B"),
    ("wfunc.lambert_w.iterations", "count"),
    ("wfunc.lambert_w.iter_per_call", "iter/call"),
    ("wfunc.lambert_w.wrong_branch", "count"),
    ("layer.wfunc.self_s", "s"),
    ("layer.solver.self_s", "s"),
    ("layer.fields.self_s", "s"),
    ("layer.survey.self_s", "s"),
    ("layer.cli.self_s", "s"),
    ("setup.numpy_import_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.accounted_share", "ratio"),
    ("trace.spans", "count"),
    ("trace.absent", "count"),
)
PER_LAYER = tuple(
    (f"{name}.{stat}", "s" if stat.endswith("_s") else "count")
    for name, stats in _SPAN_METRICS.items() for stat in stats
) + _EXTRA_METRICS


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


# -- environment ---------------------------------------------------------------------

def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("LGW_JOBS", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(cmd, env, timeout, **kw):
    try:
        return subprocess.run(cmd, env=env, timeout=timeout, capture_output=True, text=True, **kw)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out after {timeout:.0f} s: {cmd[-1]}") from exc


def _launch(code: str, env: dict) -> tuple[float, str]:
    """Seconds from launching a fresh interpreter to the import in `code`
    returning, and the module file it printed."""
    t0 = time.monotonic_ns()
    proc = _run([sys.executable, "-c", code], env, 60)
    if proc.returncode != 0:
        raise BenchError(f"launch failed:\n{proc.stderr}")
    t_import, path = proc.stdout.split(maxsplit=1)
    return (int(t_import) - t0) / 1e9, path.strip()


def measure_setup(root: str, env: dict, samples: int) -> list[tuple[float, float]]:
    """(seconds to `import lgw` in a fresh interpreter, seconds for the
    reference launch just before it) per sample."""
    out = []
    for _ in range(samples):
        reference, _ = _launch(REFERENCE_LAUNCH, env)
        seconds, path = _launch(SETUP_CODE, env)
        if not os.path.abspath(path).startswith(os.path.join(root, "src") + os.sep):
            raise BenchError(f"imported lgw from {path}, not from this checkout")
        out.append((seconds, reference))
    return out


def numpy_import_s(env: dict, samples: int = 3) -> float:
    """Cumulative import time of numpy under `import lgw`, from -X importtime."""
    values = []
    for _ in range(samples):
        proc = _run([sys.executable, "-X", "importtime", "-c", "import lgw"], env, 60)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "numpy":
                values.append(int(parts[1]) / 1e6)
    return statistics.median(values) if values else 0.0


def stamp(root: str, seed: int, sizes: dict) -> dict:
    import numpy

    try:
        import mpmath
        mpmath_version = mpmath.__version__
    except ImportError:
        mpmath_version = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    git_sha = None
    if os.path.isdir(os.path.join(root, ".git")):  # the benchmark may run from an export
        try:
            proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            git_sha = proc.stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    pkg = os.path.join(root, "src", "lgw")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                src.update(name.encode() + b"\0" + f.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath_version,
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "sizes": sizes,
    }


# -- one workload --------------------------------------------------------------------

def run_child(root: str, env: dict, cfg: dict, deadline: float) -> dict:
    os.makedirs(cfg["workdir"], exist_ok=True)
    cfg_path = os.path.join(cfg["workdir"], "config.json")
    with open(cfg_path, "w") as f:
        json.dump(cfg, f)
    timeout = max(10.0, deadline - time.monotonic())
    proc = _run([sys.executable, os.path.join(HERE, "child.py"), cfg_path], env, timeout, cwd=root)
    if proc.returncode != 0:
        raise BenchError(f"{cfg['workload']} child exited {proc.returncode}:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    with open(os.path.join(cfg["workdir"], "child.json")) as f:
        return json.load(f)


def check_scans(workload: str, cfg: dict, out: dict) -> dict:
    """The base is the workload's CLI commands, each counted once however many
    passes ran: a command fails when any of its passes exits non-zero or
    differs from its golden, or when the content checks find a problem in
    the scan. So `attempted` and `failed` do not depend on the pass count."""
    import checks

    commands = [c for c in ("scan", "table") if c in out["passes"][0]]
    failing = set()
    problems = []
    for i, record in enumerate(out["passes"]):
        for command in commands:
            golden = checks.GOLDENS.get(workloads.golden_key(workload, cfg["sizes"], command))
            if record[command]["exit"] != 0 or record[command]["sha256"] != golden:
                failing.add(command)
                problems.append(f"pass {i} {command}: exit {record[command]['exit']}, "
                                f"sha256 {record[command]['sha256']} (golden {golden})")
    work = cfg["workdir"]
    if workload == "imag-scan":
        content = checks.imag_content(os.path.join(work, "scan.out"),
                                      os.path.join(work, "table.out"))
    else:
        content = checks.real_content(os.path.join(work, "scan.out"), cfg["seed"],
                                      samples=8 if cfg["smoke"] else 24)
    if content:
        failing.add("scan")
    problems += content
    return {"attempted": len(commands), "failed": len(failing), "problems": problems,
            "correct": not problems, "oracle": "sha256 goldens + content checks"}


def check_queries(cfg: dict, out: dict) -> dict:
    """The base is the pool: each distinct query is checked once against the
    oracle, and fails if it is wrong, raised, or returned another result in a
    later pass. So `attempted` and `failed` are a function of the seed alone,
    not of how many passes fit in `--seconds`."""
    import checks

    pool = workloads.make_pool(cfg["seed"], cfg["sizes"]["point-eval"]["pool"])
    verdict = checks.classify_queries(pool, out["results"])
    changed = out["changed"]
    problems = []
    if changed:
        problems.append(f"{len(changed)} queries returned different results between passes")
    if verdict["unexpected"]:
        problems.append(f"{verdict['unexpected']} queries raised a non-lgw exception")
    return {"attempted": len(pool), "failed": len(verdict["failing"] | set(changed)),
            "problems": problems, "correct": not problems, "oracle": checks.ORACLE,
            "wrong": verdict["wrong"], "wrong_by_kind": verdict["wrong_by_kind"],
            "errors": verdict["errors"] + verdict["unexpected"], "changed": len(changed)}


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(workload: str, out: dict, setup: list) -> tuple[dict, dict]:
    """Times are calibrated (see calibrate.py); raw wall medians go to detail."""
    passes = out["passes"]

    def calibrated(value_of):
        return _median([rescale(value_of(p), p["cal_s"]) for p in passes])

    metrics = {
        "setup_s": _median([rescale(raw, ref, LAUNCH_REF_S) for raw, ref in setup]),
        "pass_s": calibrated(lambda p: p["seconds"]),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    detail = {
        "passes": len(passes),
        "setup_samples": len(setup),
        "setup_wall_s": _median([raw for raw, _ in setup]),
        "reference_launch_s": _median([ref for _, ref in setup]),
        "pass_wall_s": _median([p["seconds"] for p in passes]),
        "calibration_s": _median([p["cal_s"] for p in passes]),
        "pass_wall_s_each": [p["seconds"] for p in passes],
        "calibration_s_each": [p["cal_s"] for p in passes],
    }
    if workload == "point-eval":
        n = len(out["results"])
        detail.update({
            "queries_per_s": n / metrics["pass_s"],
            "query_p50_us": calibrated(lambda p: p["p50_us"]),
            "query_p99_us": calibrated(lambda p: p["p99_us"]),
            "latency_samples": n * len(passes),
        })
    else:
        detail["scan_s"] = calibrated(lambda p: p["scan"]["seconds"])
        if workload == "imag-scan":
            detail["table_s"] = calibrated(lambda p: p["table"]["seconds"])
        detail["stdout_bytes_per_pass"] = sum(
            passes[0][c]["bytes"] for c in ("scan", "table") if c in passes[0])
    return metrics, detail


def per_layer(workload: str, cfg: dict, out: dict, env: dict) -> tuple[dict, dict]:
    import checks
    import tracer

    header, cols = tracer.load(cfg["workdir"])
    spans = tracer.summarize(header, cols)
    untraced, traced = out["passes"][0], out["passes"][1]
    metrics = {}
    for name, stats in _SPAN_METRICS.items():
        span = spans.get(name, {})
        for stat in stats:
            metrics[f"{name}.{stat}"] = span.get(stat, 0)
    iterations = sum(call[5] for call in header["w_calls"])
    units = header["unit_args"]
    layer_self = {layer: 0.0 for layer in tracer.LAYERS}
    for name, span in spans.items():
        layer_self[name.split(".")[0]] += span["self_s"]
    expected = {"cli.run" if n.startswith("cli.") else n for n in _SPAN_METRICS}
    absent = sorted(set(header["absent"]) | (expected - set(header["wrapped"])))
    metrics.update({
        "fields.fundamental_unit.useful_ratio": len(set(units)) / len(units) if units else 0.0,
        "survey.summary_to_json.bytes": header["out_bytes"].get("survey.summary_to_json", 0),
        "survey.records_to_csv.bytes": header["out_bytes"].get("survey.records_to_csv", 0),
        "cli.stdout_bytes": sum(traced[c]["bytes"] for c in ("scan", "table") if c in traced),
        "wfunc.lambert_w.iterations": iterations,
        "wfunc.lambert_w.iter_per_call": iterations / len(header["w_calls"]) if header["w_calls"] else 0.0,
        "wfunc.lambert_w.wrong_branch": checks.count_wrong_w(header["w_calls"]),
        **{f"layer.{layer}.self_s": v for layer, v in layer_self.items()},
        "setup.numpy_import_s": numpy_import_s(env),
        "trace.overhead_s": traced["seconds"] - untraced["seconds"],
        "trace.accounted_share": sum(s["root_s"] for s in spans.values()) / traced["seconds"],
        "trace.spans": header["count"],
        "trace.absent": len(absent),
    })
    detail = {"absent": absent, "wrapped": len(header["wrapped"]),
              "lambert_w_calls_checked": len(header["w_calls"]),
              "untraced_pass_s": untraced["seconds"], "traced_pass_s": traced["seconds"]}
    return metrics, detail


def run_workload(root: str, workload: str, args, sizes: dict) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env(root)
    workdir = os.path.join(HERE, ".work", workload)
    shutil.rmtree(workdir, ignore_errors=True)
    cfg = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "sizes": sizes, "workdir": workdir, "smoke": args.smoke}
    try:
        setup = [] if args.trace else measure_setup(root, env, 3 if args.smoke else 9)
        out = run_child(root, env, cfg, deadline)
        if workload == "point-eval":
            verdict = check_queries(cfg, out)
        else:
            verdict = check_scans(workload, cfg, out)
        if args.trace:
            metrics, detail = per_layer(workload, cfg, out, env)
            units = dict(PER_LAYER)
        else:
            metrics, detail = end_to_end(workload, out, setup)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail.update(verdict)
    return {"workload": workload, "metrics": metrics, "units": units, "detail": detail}


def report(result: dict) -> None:
    wl = result["workload"]
    d = result["detail"]
    for name, value in result["metrics"].items():
        print(f"{wl:<11} {name:<42} {value:>16.6g} {result['units'][name]}")
    for name, unit in (("scan_s", "s"), ("table_s", "s"), ("queries_per_s", "1/s"),
                       ("query_p50_us", "us"), ("query_p99_us", "us")):
        if name in d:
            print(f"{wl:<11} {name:<42} {d[name]:>16.6g} {unit}")
    ratio = d["failed"] / d["attempted"] if d["attempted"] else 0.0
    print(f"{wl:<11} {'fail_ratio':<42} {ratio:>16.6g} ratio "
          f"({d['failed']} failed of {d['attempted']} attempted; oracle: {d['oracle']})")
    print(f"# {wl} detail: {json.dumps(d, sort_keys=True)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for a quick check")
    args = p.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lgw", "__init__.py")):
        print("run from the root of an lgw checkout: src/lgw not found", file=sys.stderr)
        return 3
    sys.path.insert(0, os.path.join(root, "src"))
    sizes = workloads.SMOKE_SIZES if args.smoke else workloads.FULL_SIZES
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    print(f"# stamp: {json.dumps(stamp(root, args.seed, sizes))}")
    results = []
    try:
        for wl in names:
            results.append(run_workload(root, wl, args, sizes))
            report(results[-1])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    single = len(results) == 1
    metrics = {
        (name if single else f"{r['workload']}.{name}"): {"value": value, "unit": r["units"][name]}
        for r in results for name, value in r["metrics"].items()
    }
    print(json.dumps({
        "correct": all(r["detail"]["correct"] for r in results),
        "attempted": sum(r["detail"]["attempted"] for r in results),
        "failed": sum(r["detail"]["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
