"""Golden CLI bytes, and determinism of the hard-core sweep on every path.

``tests/golden`` holds the stdout of the acceptance criterion-8 command
battery in both formats, with the ``# config:`` line cut down to the file
name (``<name>.out`` in the format criterion 8 runs, ``<name>.<format>.out``
in the other), the stdout of
``oracle`` on a core model, of ``hardcore3 --dump-matrix`` and of
``hardcore4-check --core 0`` (in table and machine format), the stdout of
a hard-core sweep whose explicit target lands on an auxiliary pencil root
(the warning path), the stdout of ``solve3`` and ``solve4`` at targets next
to σ(H0) (their warning paths, in table and machine format), the stdout of
``solve3`` at an eigenvalue where the Lippmann–Schwinger residual is undefined
and of ``solve4`` at one where the Faddeev components are (their
skipped-check paths, in both formats), and the stderr of the hard-core
sweep with ``max_iter = 1`` (the error path).
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fykit import cli
from fykit.hardcore import assemble_hardcore3_pencil
from fykit.lattice import LatticeModel, PairPotential

GOLDEN = Path(__file__).parent / "golden"
CLI = [sys.executable, "-m", "fykit.cli"]
GAUSS4 = (
    "[model]\nN = 4\nL = 3\nt = 1.0\npotential.kind = gaussian\n"
    "potential.params = -3.0, 1.0\n\n[solver]\ntol = 1e-10\n"
)
WARNING_SWEEP = ("--sweep", "none,0,1,none,0,1", "--target", "3.0")
# tiny4 with its target 1e-9 above min σ(H0), and a three-body ring whose target
# lands next to the σ(H0) point 0: both solves end on an auxiliary root
TINY4_NEAR_H0 = (
    "[model]\nN = 4\nL = 4\nboundary = box\nt = 1.0\npotential.kind = onsite\n"
    "potential.params = -6.0\ncore_radius = none\n\n"
    "[solver]\ntarget = 1.5278640460004205\ntol = 1e-10\nmax_iter = 200\n"
)
RING3_NEAR_H0 = (
    "[model]\nN = 3\nL = 4\nboundary = ring\nt = 1.0\npotential.kind = onsite\n"
    "potential.params = -4.0\n\n[solver]\ntarget = 1e-06\n"
)
SOLVE_WARNINGS = [("solve4-warning", "solve4", TINY4_NEAR_H0),
                  ("solve3-warning", "solve3", RING3_NEAR_H0)]
# a vanishing on-site well: the auto target, E0, lies 9e-7 from σ(H0), where
# the Lippmann–Schwinger resolvent (H0 − z)⁻¹ is singular to working precision
NEAR_FREE3 = (
    "[model]\nN = 3\nL = 4\nboundary = box\nt = 1.0\npotential.kind = onsite\n"
    "potential.params = -1e-6\n"
)
# its four-body twin: E0 lies 1.8e-6 from σ(H0), where the Faddeev components
# the chain-sum check reconstructs are undefined
NEAR_FREE4 = NEAR_FREE3.replace("N = 3", "N = 4")

# tiny3 with a core of radius 1, for the oracle's restricted-space path
CORE3 = (
    "[model]\nN = 3\nL = 6\nboundary = box\nt = 1.0\npotential.kind = gaussian\n"
    "potential.params = -4.0, 1.0\ncore_radius = 1\n"
)

# (golden name, arguments, the format criterion 8 runs the command in)
BATTERY = [
    ("chains", ("chains", "--n", "4"), "table"),
    ("yak-pattern", ("yak-pattern",), "table"),
    ("spectrum-check", ("spectrum-check", "--n", "3", "--dim", "4", "--seeds", "5"), "table"),
    ("oracle", ("oracle", "--config", "tiny3", "--k", "4"), "table"),
    ("solve3", ("solve3", "--config", "tiny3"), "table"),
    ("solve4", ("solve4", "--config", "gauss4.cfg"), "table"),
    ("hardcore3", ("hardcore3", "--config", "tiny3", "--sweep", "none,0,1"), "table"),
    ("hardcore4-check", ("hardcore4-check", "--config", "tiny4"), "machine"),
]

# every battery command in both formats, as (golden stem, arguments, format):
# the stem is the name in the format criterion 8 runs and "<name>.<format>" in the other
BATTERY_RUNS = [(name if fmt == native else f"{name}.{fmt}", args, fmt)
                for name, args, native in BATTERY for fmt in ("table", "machine")]


def run(*args, env=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, timeout=300, env=env)


def normalized(stdout):
    return re.sub(r"^# config: .*/", "# config: ", stdout, flags=re.M)


@pytest.mark.parametrize("stem,args,fmt", BATTERY_RUNS, ids=[stem for stem, _, _ in BATTERY_RUNS])
def test_battery_reproduces_golden_stdout(stem, args, fmt, tmp_path):
    cfg = tmp_path / "gauss4.cfg"
    cfg.write_text(GAUSS4)
    proc = run(*(str(cfg) if a == "gauss4.cfg" else a for a in args), "--format", fmt)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert normalized(proc.stdout) == (GOLDEN / f"{stem}.out").read_text()


@pytest.mark.parametrize("fmt", ["table", "machine"])
def test_oracle_on_a_core_model_reproduces_golden_stdout(fmt, tmp_path):
    cfg = tmp_path / "core3.cfg"
    cfg.write_text(CORE3)
    proc = run("oracle", "--config", str(cfg), "--k", "4", "--format", fmt)
    assert proc.returncode == 0 and proc.stderr == ""
    golden = GOLDEN / ("oracle-core.out" if fmt == "table" else "oracle-core.machine.out")
    assert normalized(proc.stdout) == golden.read_text()
    assert "\n# hard core c=1: restricted dimension 24 of 216\n" in proc.stdout


@pytest.mark.parametrize("fmt", ["table", "machine"])
def test_hardcore3_dumps_the_pencil_a_matrix(fmt, tmp_path):
    dump = tmp_path / "pencil-a.txt"
    proc = run("hardcore3", "--config", "tiny3", "--core", "1", "--dump-matrix", str(dump),
               "--format", fmt)
    assert proc.returncode == 0 and proc.stderr == ""
    golden = GOLDEN / ("hardcore3-dump.out" if fmt == "table" else "hardcore3-dump.machine.out")
    assert normalized(proc.stdout) == golden.read_text()
    model = LatticeModel(N=3, L=6, potential=PairPotential("gaussian", (-4.0, 1.0)),
                         core_radius=1)
    want = assemble_hardcore3_pencil(model).a.flatten().materialize()
    header, *rows = dump.read_text().splitlines()
    assert header == f"# {want.shape[0]} {want.shape[1]}"
    got = np.array([[float(x) for x in row.split(" ")] for row in rows])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("fmt", ["table", "machine"])
def test_hardcore4_check_with_a_core_override_reproduces_golden_stdout(fmt):
    proc = run("hardcore4-check", "--config", "tiny4", "--core", "0", "--format", fmt)
    assert proc.returncode == 0 and proc.stderr == ""
    golden = GOLDEN / ("hardcore4-check-core0.out" if fmt == "table"
                       else "hardcore4-check-core0.machine.out")
    assert normalized(proc.stdout) == golden.read_text()


def test_cli_ignores_the_environment():
    proc = run("oracle", "--config", "tiny3", "--k", "4",
               env=dict(os.environ, FY_DENSE_LIMIT="4"))
    assert proc.returncode == 0 and proc.stderr == ""
    assert normalized(proc.stdout) == (GOLDEN / "oracle.out").read_text()


def test_hardcore3_warning_path_is_deterministic():
    runs = [run("hardcore3", "--config", "tiny3", *WARNING_SWEEP) for _ in range(5)]
    assert all(p.returncode == 3 and p.stderr == "" for p in runs)
    assert len({p.stdout for p in runs}) == 1
    golden = (GOLDEN / "hardcore3-warning.out").read_text()
    assert normalized(runs[0].stdout) == golden
    lines = golden.splitlines()
    warnings = [i for i, line in enumerate(lines) if line.startswith("# warning:")]
    assert len(warnings) == 2
    for i in warnings:
        # the row right after a warning carries the eigenvalue the warning names
        value = float(re.search(r"pencil eigenvalue (\S+)", lines[i]).group(1))
        assert lines[i + 1].split()[2] == f"{value:.12e}"


@pytest.mark.parametrize("fmt", ["table", "machine"])
@pytest.mark.parametrize("name,command,text", SOLVE_WARNINGS, ids=[n for n, _, _ in SOLVE_WARNINGS])
def test_solve_warning_paths_reproduce_golden_stdout(name, command, text, fmt, tmp_path):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    proc = run(command, "--config", str(cfg), "--format", fmt)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    golden = GOLDEN / (f"{name}.out" if fmt == "table" else f"{name}.machine.out")
    assert normalized(proc.stdout) == golden.read_text()
    assert "\n# warning: eigenvalue " in proc.stdout


@pytest.mark.parametrize("fmt", ["table", "machine"])
def test_solve3_skips_an_undefined_lippmann_schwinger_residual(fmt, tmp_path):
    cfg = tmp_path / "near-free3.cfg"
    cfg.write_text(NEAR_FREE3)
    proc = run("solve3", "--config", str(cfg), "--format", fmt)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    golden = GOLDEN / ("solve3-ls-undefined.out" if fmt == "table"
                       else "solve3-ls-undefined.machine.out")
    assert normalized(proc.stdout) == golden.read_text()
    assert "\n# lippmann-schwinger residual undefined: z = " in proc.stdout


@pytest.mark.parametrize("fmt", ["table", "machine"])
def test_solve4_skips_the_chain_sum_check_when_the_components_are_undefined(fmt, tmp_path):
    cfg = tmp_path / "near-free4.cfg"
    cfg.write_text(NEAR_FREE4)
    proc = run("solve4", "--config", str(cfg), "--format", fmt)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    golden = GOLDEN / ("solve4-components-undefined.out" if fmt == "table"
                       else "solve4-components-undefined.machine.out")
    assert normalized(proc.stdout) == golden.read_text()
    assert "\n# faddeev components undefined: z = " in proc.stdout
    assert '"chain_sum"' not in proc.stdout and "total reconstruction defect" not in proc.stdout


def test_hardcore3_error_path_is_deterministic(tmp_path):
    cfg = tmp_path / "iter1.cfg"
    cfg.write_text(
        "[model]\nN = 3\nL = 6\nt = 1.0\npotential.kind = gaussian\n"
        "potential.params = -4.0, 1.0\n\n[solver]\nmax_iter = 1\n"
    )
    runs = [run("hardcore3", "--config", str(cfg), *WARNING_SWEEP) for _ in range(5)]
    assert all(p.returncode == 1 and p.stdout == "" for p in runs)
    assert {p.stderr for p in runs} == {(GOLDEN / "hardcore3-error.err").read_text()}


def test_hardcore3_keeps_superlu_noise_off_the_streams(tmp_path):
    # the target 6.0, the ground state of core 1, is an exact pencil eigenvalue,
    # so SuperLU fails on the start shift; the BLAS prints its complaint to fd 1 then
    cfg = tmp_path / "onsite.cfg"
    cfg.write_text(
        "[model]\nN = 3\nL = 5\nboundary = box\nt = 1.0\npotential.kind = onsite\n"
        "potential.params = -3.0\ncore_radius = 1\n"
    )
    runs = [run("hardcore3", "--config", str(cfg), "--sweep", "none,0,1", "--format", "machine",
                "--target", "6.0") for _ in range(2)]
    assert all(p.returncode == 3 and p.stderr == "" for p in runs)
    assert runs[0].stdout == runs[1].stdout
    lines = runs[0].stdout.splitlines()
    assert all(line.startswith(("#", "{")) for line in lines)
    assert not any("illegal value" in line for line in lines)


def test_hardcore3_forwards_the_seed(monkeypatch, capsys):
    seen = []
    real = cli.solve_hardcore3

    def spy(*args, **kwargs):
        seen.append(kwargs.get("seed"))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_hardcore3", spy)
    assert cli.main(["hardcore3", "--config", "tiny3", "--seed", "99999"]) == 0
    capsys.readouterr()
    assert seen == [99999]


def test_hardcore3_seeds_agree_on_the_sweep(capsys):
    values = {}
    for seed in ("1", "99999"):
        argv = ["hardcore3", "--config", "tiny3", "--sweep", "none,0,1",
                "--format", "machine", "--seed", seed]
        assert cli.main(argv) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()
                   if not line.startswith("#")]
        values[seed] = [r["pencil_eigenvalue"] for r in records if r["record"] == "core_point"]
    assert len(values["1"]) == 3
    assert values["1"] == pytest.approx(values["99999"], abs=1e-8)
