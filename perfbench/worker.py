"""The benchmark's single client: runs `fy` cases in-process, one at a time.

Usage: python3 perfbench/worker.py JOB.json RESULT.json

The job names the cases (argv lists for ``fykit.cli.main``), the measuring
time and whether to trace. Load is a closed loop with one client: the next
case starts only after the previous one returned. The cases run in rounds,
each case once per round, until a round ends after the time is up (at least
one round). Traced, each case in a round runs once untraced and once traced,
so the difference between the two gives the tracing overhead.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def run_case(main, argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except Exception:  # a crash is a failed case, and the loop goes on
            rc = -1
            err.write(traceback.format_exc())
        wall = time.perf_counter() - start
    return {"wall_s": wall, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    import fykit.cli

    src = Path(job["src"]).resolve()
    if src not in Path(fykit.cli.__file__).resolve().parents:
        print(f"fykit imported from {fykit.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    cases, seconds = job["cases"], job["seconds"]
    executions = []
    spans = []
    tracer = None
    if job["trace"]:
        from tracing import Hooks, Tracer, case_metrics

        tracer = Tracer()
    # Whole rounds only, so every run measures each case equally often.
    start = time.perf_counter()
    while not executions or time.perf_counter() - start < seconds:
        for index, argv in enumerate(cases):
            executions.append({"case": index, "traced": False,
                               **run_case(fykit.cli.main, argv)})
            if tracer is None:
                continue
            tracer.spans = []
            tracer.case = len(executions)
            hooks = Hooks(tracer)
            hooks.install()
            try:
                record = run_case(fykit.cli.main, argv)
            finally:
                hooks.remove()
            executions.append({"case": index, "traced": True, **record,
                               "layers": case_metrics(tracer.spans)})
            spans.extend(dataclasses.asdict(s) for s in tracer.spans)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(result_path).write_text(json.dumps(
        {"executions": executions, "spans": spans, "peak_rss_mb": peak_kb / 1024.0}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
