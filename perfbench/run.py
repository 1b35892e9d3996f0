"""fykit benchmark: time to a certified `fy` solve, and where the time goes.

    python3 perfbench/run.py --workload fourbody --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the program under test is the
checkout's own ``src/fykit``. The seed generates the workload's config files
(see ``workloads.py``); one worker process runs the cases through
``fykit.cli.main(...)`` with ``--format machine`` in a closed loop with one
client, and every output is checked against a reference computed here.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps fykit's
module boundaries and reports the per-layer metrics. The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. Provenance, per-case times, gate results and the spans of a
traced run are written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import layer_metrics
from workloads import WORKLOADS, check, make_cases

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_RUNS = 5
# The worker stops only at the end of a round, so it may run up to one round
# past --seconds; this margin covers a round of a much slower program.
ROUND_MARGIN_S = 150

# A fresh interpreter pays this before any `fy` command does work.
SETUP_PROBE = """
import json, sys, time
start = time.perf_counter()
import fykit.cli
imported = time.perf_counter()
fykit.cli.load_config(sys.argv[1])
print(json.dumps({"import_s": imported - start}))
"""


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(config: Path, env: dict) -> tuple[list, list]:
    """Wall times of fresh interpreters importing fykit.cli and loading ``config``.

    One untimed run first compiles the checkout's bytecode, which a user pays
    once per install, not per command.
    """
    walls, imports = [], []
    for i in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(config)], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        wall = time.perf_counter() - start
        if i:
            walls.append(wall)
            imports.append(json.loads(done.stdout)["import_s"])
    return walls, imports


def git_sha() -> str:
    # The ceiling keeps git from reporting a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fykit").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cfg"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, cases) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one client, one worker process",
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "cases": [c.describe() for c in cases],
    }


def run_worker(job: dict, out_dir: Path, env: dict) -> dict:
    job_path, result_path = out_dir / "job.json", out_dir / "worker.json"
    job_path.write_text(json.dumps(job))
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
                   env=env, timeout=2 * job["seconds"] + ROUND_MARGIN_S, check=True)
    return json.loads(result_path.read_text())


def tail_percentile(samples: list) -> dict:
    """The highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 20:
        return {}
    q = (100 * (n - 10)) // n
    return {f"p{q}": statistics.quantiles(samples, n=100, method="inclusive")[q - 1]}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fykit" / "cli.py").is_file():
        print(f"perfbench: no fykit sources at {SRC / 'fykit'}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    cases = make_cases(args.workload, args.seed)
    configs = []
    for case in cases:
        path = out_dir / f"{case.name}.cfg"
        path.write_text(case.config_text())
        configs.append(path)

    env = worker_env()
    setup_walls, import_times = measure_setup(configs[0], env)
    job = {
        "src": str(SRC),
        "cases": [case.argv(str(path)) for case, path in zip(cases, configs)],
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }
    result = run_worker(job, out_dir, env)

    executions = result["executions"]
    failed = 0
    for ex in executions:
        ex["problems"] = check(cases[ex["case"]], ex["rc"], ex["stdout"])
        failed += bool(ex["problems"])
    plain = [ex["wall_s"] for ex in executions if not ex["traced"]]
    summary = {
        "case_s": {"median": statistics.median(plain), "samples": len(plain),
                   **tail_percentile(plain)},
        "setup_s": {"median": statistics.median(setup_walls), "samples": len(setup_walls)},
        "failed_fraction": failed / len(executions),
    }

    if args.trace:
        traced = [ex for ex in executions if ex["traced"]]
        values = layer_metrics([ex["layers"] for ex in traced])
        values["cli.import_s"] = statistics.median(import_times)
        values["trace.overhead_s"] = (
            statistics.median(ex["wall_s"] for ex in traced) - statistics.median(plain)
        )
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in values.items()}
    else:
        metrics = {
            "case_s": {"value": summary["case_s"]["median"], "unit": "s"},
            "setup_s": {"value": summary["setup_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }

    report = {
        "provenance": provenance(args, cases),
        "summary": summary,
        "metrics": metrics,
        "setup_walls_s": setup_walls,
        "executions": executions,
        "spans": result["spans"],
    }
    (out_dir / "result.json").write_text(json.dumps(report, indent=1))
    (out_dir / "job.json").unlink()
    (out_dir / "worker.json").unlink()
    for ex in executions:
        if ex["problems"]:
            print(f"FAILED {cases[ex['case']].name}: {'; '.join(ex['problems'])}", file=sys.stderr)
    print(json.dumps({"provenance": report["provenance"], "summary": summary}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(executions),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
