"""Tests of the benchmark itself: the gate, the span bookkeeping, the counts.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import threading
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from tracing import Hooks, Tracer, case_metrics, self_times  # noqa: E402


def run_fy(argv):
    import fykit.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = fykit.cli.main(argv)
    return rc, out.getvalue()


def small_case(tmp_path):
    model = workloads.Model(3, 6, "gaussian", (-4.0, 1.0))
    case = workloads.Case("small", "solve3", model, target=None)
    case.references = {"none": workloads.ground_energy(model)}
    path = tmp_path / "small.cfg"
    path.write_text(case.config_text())
    return case, case.argv(str(path))


def test_reference_matches_preset_ground_states():
    # Ground truths quoted in the packaged tiny3/tiny4 presets.
    assert workloads.ground_energy(workloads.Model(3, 6, "gaussian", (-4.0, 1.0))) == \
        pytest.approx(-7.464396364388, abs=1e-11)
    assert workloads.ground_energy(workloads.Model(4, 4, "onsite", (-6.0,))) == \
        pytest.approx(-28.448373683565, abs=1e-11)


def test_gate_counts_a_perturbed_eigenvalue_as_failure(tmp_path):
    case, argv = small_case(tmp_path)
    rc, stdout = run_fy(argv)
    assert workloads.check(case, rc, stdout) == []

    lines = stdout.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("{") and json.loads(line)["record"] == "solution":
            rec = json.loads(line)
            rec["eigenvalue"] += 1e-6
            lines[i] = json.dumps(rec, sort_keys=True)
    problems = workloads.check(case, rc, "\n".join(lines))
    assert len(problems) == 1 and "eigenvalue" in problems[0]
    assert workloads.check(case, 1, stdout) == ["exit code 1"]


def test_gate_rejects_non_physical_hardcore_row():
    model = workloads.Model(3, 4, "gaussian", (-4.0, 1.0))
    case = workloads.Case("hc", "hardcore3", model, target=None)
    case.references = {tok: 0.0 for tok in workloads.HARDCORE_SWEEP}
    rows = [json.dumps({"record": "core_point", "core": tok, "pencil_eigenvalue": 0.0,
                        "physical": tok != "1", "restricted_residual": 1e-13})
            for tok in workloads.HARDCORE_SWEEP]
    assert workloads.check(case, 0, "\n".join(rows)) == ["core 1: physical=False"]


def test_spans_on_two_threads_attach_to_their_own_parents():
    tracer = Tracer()
    barrier = threading.Barrier(2)
    opened = {}

    def client(tag):
        outer = tracer.open(f"outer.{tag}")
        barrier.wait()  # both outer spans are open before either inner one
        inner = tracer.open(f"inner.{tag}")
        time.sleep(0.02)
        tracer.close(inner)
        time.sleep(0.01)
        tracer.close(outer)
        opened[tag] = (outer, inner)

    root = tracer.open("root")
    threads = [threading.Thread(target=client, args=(tag,)) for tag in "ab"]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    tracer.close(root)

    for outer, inner in opened.values():
        assert outer.parent == root.id
        assert inner.parent == outer.id
        assert inner.thread == outer.thread != root.thread
    own = self_times(tracer.spans)
    for span in tracer.spans:
        assert 0.0 <= own[span.id] <= span.duration
    # The two clients overlap, so the root's covered time is their union.
    union = max(o.end for o, _ in opened.values()) - min(o.start for o, _ in opened.values())
    assert own[root.id] == pytest.approx(root.duration - union, abs=1e-3)


def test_hooks_restore_every_binding():
    import fykit.cli
    import fykit.yakubovsky
    import scipy.linalg

    before = (fykit.cli.main, fykit.yakubovsky.shift_invert_eigenpair, scipy.linalg.eigh)
    hooks = Hooks(Tracer())
    hooks.install()
    assert fykit.cli.main is not before[0]
    assert fykit.yakubovsky.shift_invert_eigenpair is not before[1]
    hooks.remove()
    assert (fykit.cli.main, fykit.yakubovsky.shift_invert_eigenpair, scipy.linalg.eigh) == before


def traced_counts(argv):
    tracer = Tracer()
    hooks = Hooks(tracer)
    hooks.install()
    try:
        rc, stdout = run_fy(argv)
    finally:
        hooks.remove()
    assert rc == 0
    metrics = case_metrics(tracer.spans)
    splu = [(s.counts["input_nnz"], s.counts["fill_nnz"])
            for s in tracer.spans if s.name == "kernel.splu"]
    exact = {k: v for k, v in metrics.items() if not k.endswith(("_s", ".s"))}
    return splu, exact, stdout


def test_tiny4_counts_repeat_and_match_the_baseline(tmp_path):
    case = workloads.make_cases("fourbody", seed=0)[0]
    assert case.name == "tiny4"
    path = tmp_path / "tiny4.cfg"
    path.write_text(case.config_text())
    first = traced_counts(case.argv(str(path)))
    second = traced_counts(case.argv(str(path)))
    assert first[:2] == second[:2]
    splu, exact, stdout = first
    assert workloads.check(case, 0, stdout) == []
    assert splu == [(38016, 8155227), (38016, 8155227)]
    assert exact["blockops.shift_invert_eigenpair.factorizations"] == 2
    assert exact["blockops.flatten.dim_max"] == 4608
    assert exact["blockops.flatten.sparse_calls"] == 1
