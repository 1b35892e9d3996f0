"""Golden CLI bytes, and determinism of the hard-core sweep on every path.

``tests/golden`` holds the stdout of the acceptance criterion-8 command
battery with the ``# config:`` line cut down to the file name, the stdout of
a hard-core sweep whose explicit target lands on an auxiliary pencil root
(the warning path), the stdout of ``solve3`` and ``solve4`` at targets next
to σ(H0) (their warning paths, in table and machine format), and the stderr
of the hard-core sweep with ``max_iter = 1`` (the error path).
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fykit import cli

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

BATTERY = [
    ("chains", ("chains", "--n", "4")),
    ("yak-pattern", ("yak-pattern",)),
    ("spectrum-check", ("spectrum-check", "--n", "3", "--dim", "4", "--seeds", "5")),
    ("oracle", ("oracle", "--config", "tiny3", "--k", "4")),
    ("solve3", ("solve3", "--config", "tiny3")),
    ("solve4", ("solve4", "--config", "gauss4.cfg")),
    ("hardcore3", ("hardcore3", "--config", "tiny3", "--sweep", "none,0,1")),
    ("hardcore4-check", ("hardcore4-check", "--config", "tiny4", "--format", "machine")),
]


def run(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, timeout=300)


def normalized(stdout):
    return re.sub(r"^# config: .*/", "# config: ", stdout, flags=re.M)


@pytest.mark.parametrize("name,args", BATTERY, ids=[name for name, _ in BATTERY])
def test_battery_reproduces_golden_stdout(name, args, tmp_path):
    cfg = tmp_path / "gauss4.cfg"
    cfg.write_text(GAUSS4)
    proc = run(*(str(cfg) if a == "gauss4.cfg" else a for a in args))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert normalized(proc.stdout) == (GOLDEN / f"{name}.out").read_text()


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
    # the oracle target 6.0 of core 1 is an exact pencil eigenvalue, so SuperLU
    # fails on the start shift; the BLAS prints its complaint to fd 1 then
    cfg = tmp_path / "onsite.cfg"
    cfg.write_text(
        "[model]\nN = 3\nL = 5\nboundary = box\nt = 1.0\npotential.kind = onsite\n"
        "potential.params = -3.0\ncore_radius = 1\n"
    )
    runs = [run("hardcore3", "--config", str(cfg), "--sweep", "none,0,1", "--format", "machine")
            for _ in range(2)]
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
