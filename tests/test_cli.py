"""End-to-end command-line tests: output shape, exit codes, determinism."""

import json
import subprocess
import sys
from importlib import resources

import dataclasses

import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fykit import blockops, cli, hardcore, lattice, yakubovsky
from fykit.cli import _ALLOWED_KEYS, RunConfig, load_config
from fykit.errors import ConfigError
from fykit.faddeev import FewBodySplit
from fykit.lattice import PairPotential

CLI = [sys.executable, "-m", "fykit.cli"]

# frozen oracle values for the packaged presets
TINY3_GS = -7.464396364388277
TINY4_GS = -28.448373683564892


def run_cli(*args, check=True):
    proc = subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=300
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"fy {' '.join(args)} exited {proc.returncode}\n"
            f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
        )
    return proc


def data_lines(stdout):
    return [line for line in stdout.splitlines() if not line.startswith("#")]


@pytest.fixture(scope="module")
def gaussian4_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "gauss4.cfg"
    path.write_text(
        "[model]\n"
        "N = 4\n"
        "L = 3\n"
        "boundary = box\n"
        "t = 1.0\n"
        "potential.kind = gaussian\n"
        "potential.params = -3.0, 1.0\n"
        "core_radius = none\n"
        "\n"
        "[solver]\n"
        "tol = 1e-10\n"
        "max_iter = 200\n"
    )
    return str(path)


def test_chains_lists_census():
    proc = run_cli("chains", "--n", "4")
    rows = data_lines(proc.stdout)
    assert len(rows) == 19  # header + 18 chains
    assert any("identity passed=True" in line for line in proc.stdout.splitlines())


def test_yak_pattern_census_row():
    proc = run_cli("yak-pattern")
    rows = data_lines(proc.stdout)
    assert rows[-1] == "census  blocks=90  row_3p1=6  row_2p2=3"


def test_machine_format_is_json_lines():
    proc = run_cli("chains", "--n", "3", "--format", "machine", "--quiet")
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    kinds = [r["record"] for r in records]
    assert kinds[0] == "columns"
    assert kinds.count("chain") == 3
    assert records[1]["chain"] == "12|3,12"


def test_spectrum_check_passes_and_fails_by_exit_code():
    ok = run_cli("spectrum-check", "--n", "3", "--dim", "4", "--seeds", "5")
    assert ok.stdout.splitlines()[-1].endswith("PASS")
    bad = run_cli(
        "spectrum-check", "--n", "3", "--dim", "4", "--seeds", "2",
        "--tol", "1e-300", check=False,
    )
    assert bad.returncode == 3
    assert bad.stdout.splitlines()[-1].endswith("FAIL")


def test_oracle_reports_preset_ground_state():
    proc = run_cli("oracle", "--config", "tiny3", "--k", "1", "--format", "machine")
    rec = [json.loads(l) for l in data_lines(proc.stdout) if "eigenpair" in l]
    assert len(rec) == 1
    assert abs(rec[0]["eigenvalue"] - TINY3_GS) <= 1e-9
    assert rec[0]["residual"] <= 1e-10


def test_solve3_recovers_ground_state():
    proc = run_cli("solve3", "--config", "tiny3", "--format", "machine")
    records = [json.loads(l) for l in data_lines(proc.stdout)]
    sol = next(r for r in records if r["record"] == "solution")
    assert abs(sol["eigenvalue"] - TINY3_GS) <= 1e-8
    assert sol["residual"] <= 1e-8
    comps = [r for r in records if r["record"] == "component"]
    assert len(comps) == 3
    assert all(c["fe_residual"] <= 1e-8 for c in comps)
    recon = next(r for r in records if r["record"] == "reconstruction")
    assert recon["lippmann_schwinger_residual"] <= 1e-8


def test_solve4_small_model(gaussian4_cfg):
    proc = run_cli("solve4", "--config", gaussian4_cfg, "--format", "machine")
    records = [json.loads(l) for l in data_lines(proc.stdout)]
    sol = next(r for r in records if r["record"] == "solution")
    oracle = run_cli("oracle", "--config", gaussian4_cfg, "--k", "1", "--format", "machine")
    gs = json.loads(data_lines(oracle.stdout)[1])["eigenvalue"]
    assert abs(sol["eigenvalue"] - gs) <= 1e-8
    chain_rows = [r for r in records if r["record"] == "component"]
    assert len(chain_rows) == 18
    assert all(r["ye_residual"] <= 1e-8 for r in chain_rows)
    sums = [r for r in records if r["record"] == "chain_sum"]
    assert len(sums) == 6
    assert all(r["chain_sum_defect"] <= 1e-8 for r in sums)


def test_hardcore3_sweep_matches_oracle():
    proc = run_cli(
        "hardcore3", "--config", "tiny3", "--sweep", "none,0,1", "--format", "machine"
    )
    rows = [json.loads(l) for l in data_lines(proc.stdout) if "core_point" in l]
    assert [r["core"] for r in rows] == ["none", "0", "1"]
    assert [r["dim"] for r in rows] == [216, 120, 24]
    for r in rows:
        assert r["difference"] <= 1e-8
        assert r["core_vanishing"] <= 1e-10
        assert r["physical"] is True
    energies = [r["pencil_eigenvalue"] for r in rows]
    assert energies[0] <= energies[1] <= energies[2]


def test_hardcore3_flags_bad_target():
    proc = run_cli(
        "hardcore3", "--config", "tiny3", "--core", "1", "--target", "0.5",
        "--format", "machine", check=False,
    )
    assert proc.returncode == 3
    rows = [json.loads(l) for l in data_lines(proc.stdout) if "core_point" in l]
    assert rows[0]["physical"] is False


def test_hardcore4_check_trivial_zero():
    proc = run_cli("hardcore4-check", "--config", "tiny4", "--format", "machine")
    records = [json.loads(l) for l in data_lines(proc.stdout)]
    summary = next(r for r in records if r["record"] == "summary")
    assert summary["sites"] == 0
    assert summary["max_defect"] == 0.0


def test_config_errors_exit_2(tmp_path):
    missing = run_cli("oracle", "--config", "/no/such/file.cfg", check=False)
    assert missing.returncode == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("[model]\nN = 3\nL = 6\nunknown_key = 1\n")
    unknown = run_cli("oracle", "--config", str(bad), check=False)
    assert unknown.returncode == 2
    assert "unknown key" in unknown.stderr
    n4 = tmp_path / "n4.cfg"
    n4.write_text("[model]\nN = 4\nL = 3\n")
    wrong = run_cli("solve3", "--config", str(n4), check=False)
    assert wrong.returncode == 2


def test_check_section_is_unknown(tmp_path):
    cfg = tmp_path / "check.cfg"
    cfg.write_text("[model]\nN = 3\nL = 6\n\n[check]\nseeds = 3\n")
    proc = run_cli("oracle", "--config", str(cfg), check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: unknown config section [check]")


def test_non_utf8_config_exits_2(tmp_path):
    cfg = tmp_path / "bytes.cfg"
    cfg.write_bytes(b"\xff\xfe[model]\nN = 3\nL = 6\n")
    proc = run_cli("oracle", "--config", str(cfg), check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: cannot parse config")
    assert "Traceback" not in proc.stderr


def _loads_or_config_error(path, data):
    path.write_bytes(data)
    try:
        assert isinstance(load_config(str(path)), RunConfig)
    except ConfigError:
        pass


_FUZZ = settings(max_examples=200, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])
_VALUES = st.one_of(
    st.integers(-3, 30).map(str),
    st.floats().map(repr),
    st.sampled_from(["none", "auto", "box", "ring", "onsite", "gaussian", "square", "table",
                     "machine", "-4.0, 1.0", ""]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)


@_FUZZ
@given(data=st.binary(max_size=200))
def test_load_config_on_arbitrary_bytes(tmp_path, data):
    _loads_or_config_error(tmp_path / "fuzz.cfg", data)


@_FUZZ
@given(data=st.data())
def test_load_config_on_random_entries(tmp_path, data):
    lines = []
    for section in data.draw(st.lists(st.sampled_from(sorted(_ALLOWED_KEYS)), unique=True)):
        lines.append(f"[{section}]")
        keys = st.one_of(st.sampled_from(sorted(_ALLOWED_KEYS[section])),
                         st.text("abcdefghijklmnopqrstuvwxyz._", min_size=1, max_size=8))
        for key, value in data.draw(st.dictionaries(keys, _VALUES, max_size=8)).items():
            lines.append(f"{key} = {value}")
    _loads_or_config_error(tmp_path / "fuzz.cfg", "\n".join(lines).encode("utf-8"))


def test_output_file_matches_stdout(tmp_path):
    out = tmp_path / "capture.txt"
    proc = run_cli("chains", "--n", "4", "--output", str(out))
    assert out.read_text() == proc.stdout


def test_dump_matrix_writes_header(tmp_path):
    dump = tmp_path / "flat.txt"
    run_cli("solve3", "--config", "tiny3", "--dump-matrix", str(dump))
    first = dump.read_text().splitlines()[0]
    assert first == "# 648 648"


def test_dump_matrix_refuses_beyond_the_dense_limit(tmp_path):
    dump = tmp_path / "flat.txt"
    proc = run_cli("solve4", "--config", "tiny4", "--dump-matrix", str(dump), check=False)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "input error: matrix dump refused: dim 4608 exceeds limit 4096\n"
    assert not dump.exists()


@pytest.mark.parametrize(
    "args",
    [
        ("chains", "--n", "4"),
        ("yak-pattern", "--format", "machine"),
        ("spectrum-check", "--n", "3", "--dim", "4", "--seeds", "6"),
        ("oracle", "--config", "tiny3", "--k", "4"),
        ("solve3", "--config", "tiny3"),
        ("hardcore3", "--config", "tiny3", "--sweep", "none,0,1"),
        ("hardcore4-check", "--config", "tiny4"),
    ],
    ids=lambda a: a[0],
)
def test_repeat_runs_are_byte_identical(args):
    first = run_cli(*args, check=False)
    second = run_cli(*args, check=False)
    assert first.returncode == second.returncode
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr


def _preset_with_target(tmp_path, name, target):
    text = resources.files("fykit").joinpath("configs", f"{name}.cfg").read_text()
    lines = [f"target = {target}" if line.startswith("target = ") else line
             for line in text.splitlines()]
    path = tmp_path / f"{name}-{target}.cfg"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _spy_on_assembly(monkeypatch):
    """Record every H that FewBodySplit.total returns, and every assembly of H's terms."""
    seen = {"totals": [], "terms": 0, "hamiltonians": 0}
    real_total, real_terms = FewBodySplit.total, lattice.hamiltonian_terms

    def total(self):
        seen["totals"].append(real_total(self))
        return seen["totals"][-1]

    def terms(model):
        seen["terms"] += 1
        return real_terms(model)

    def hamiltonian(model):
        seen["hamiltonians"] += 1
        return lattice.build_hamiltonian(model)

    monkeypatch.setattr(FewBodySplit, "total", total)
    monkeypatch.setattr(lattice, "hamiltonian_terms", terms)
    monkeypatch.setattr(hardcore, "build_hamiltonian", hamiltonian)
    return seen


@pytest.mark.parametrize("target", ["-28.6", "auto"])
def test_solve4_sums_h_once_per_run(monkeypatch, capsys, tmp_path, target):
    cfg = _preset_with_target(tmp_path, "tiny4", target)
    seen = _spy_on_assembly(monkeypatch)
    assert cli.main(["solve4", "--config", cfg]) == 0
    capsys.readouterr()
    # every shift, the chain-sum check and an auto target all read one H
    assert len(seen["totals"]) >= 3
    assert len({id(h) for h in seen["totals"]}) == 1
    assert seen["terms"] == 1 and seen["hamiltonians"] == 0


def test_solve3_auto_target_builds_no_second_hamiltonian(monkeypatch, capsys, tmp_path):
    cfg = _preset_with_target(tmp_path, "tiny3", "auto")
    seen = _spy_on_assembly(monkeypatch)
    assert cli.main(["solve3", "--config", cfg]) == 0
    assert "# auto target from lanczos oracle: " in capsys.readouterr().out
    assert seen["terms"] == 1 and seen["hamiltonians"] == 0
    assert len({id(h) for h in seen["totals"]}) == 1


def test_every_cli_factorization_uses_the_symmetric_ordering(monkeypatch, capsys):
    # one factorization path: every matrix these solves factor has a
    # zero-free diagonal, for which blockops._splu orders by minimum degree
    # on Aᵀ + A; a SuperLU call made beside _splu would not carry it
    calls = []
    real = spla.splu

    def splu(mat, **kwargs):
        calls.append(kwargs)
        return real(mat, **kwargs)

    monkeypatch.setattr(spla, "splu", splu)
    for argv in (["solve3", "--config", "tiny3"], ["solve4", "--config", "tiny4"],
                 ["hardcore3", "--config", "tiny3", "--sweep", "none,0,1"]):
        before = len(calls)
        assert cli.main(argv) == 0
        assert len(calls) > before, argv[0]
    capsys.readouterr()
    want = {"permc_spec": "MMD_AT_PLUS_A", "options": {"SymmetricMode": True}}
    assert all(kwargs == want for kwargs in calls)


def _main_runs(capsys, argvs):
    runs = []
    for argv in argvs:
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # usage errors and --help exit from argparse
            rc = ("exit", exc.code)
        captured = capsys.readouterr()
        runs.append((rc, captured.out, captured.err))
    return runs


def test_one_parser_serves_every_main_call(monkeypatch, capsys):
    argvs = [
        ["chains", "--n", "3"],
        ["solve3", "--seed", "x"],  # usage error: no --config, bad --seed
        ["yak-pattern", "--format", "machine"],
        ["solve4", "--help"],
        ["oracle", "--config", "tiny3", "--k", "2"],
    ]
    cached = _main_runs(capsys, argvs)
    assert cli._build_parser() is cli._build_parser()
    assert [rc for rc, _, _ in cached] == [0, ("exit", 2), 0, ("exit", 0), 0]
    assert "usage: fy solve3" in cached[1][2]
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert cli._build_parser() is not cli._build_parser()
    assert _main_runs(capsys, argvs) == cached


def _spy_on_factorizations(monkeypatch, solver_name):
    """Record, for every SuperLU factorization, whether it ran inside ``cli.<solver_name>``."""
    calls, inside = [], []
    real_splu, real_solver = blockops._splu, getattr(cli, solver_name)

    def solver(*args, **kwargs):
        inside.append(True)
        try:
            return real_solver(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(blockops, "_splu", lambda m: calls.append(bool(inside)) or real_splu(m))
    monkeypatch.setattr(cli, solver_name, solver)
    return calls


def test_solve3_factors_only_h_minus_z(monkeypatch, capsys, tmp_path):
    # the Lippmann–Schwinger check solves H0 − z by conjugate gradients
    calls = _spy_on_factorizations(monkeypatch, "shift_invert_eigenpair")
    assert cli.main(["solve3", "--config", _preset_with_target(tmp_path, "tiny3", "auto")]) == 0
    capsys.readouterr()
    assert calls == [True]


def _spy_on_eigh(monkeypatch):
    """Record the order of every matrix ``scipy.linalg.eigh`` diagonalizes."""
    sizes, real = [], sla.eigh
    monkeypatch.setattr(sla, "eigh", lambda a, *args, **kw: sizes.append(a.shape[0]) or real(
        a, *args, **kw))
    return sizes


@pytest.mark.parametrize("argv, sizes", [
    (["hardcore3", "--sweep", "none,0,1"], [6, 6, 6]),
    (["solve3"], [6]),
], ids=["hardcore3", "solve3"])
def test_three_body_commands_diagonalize_no_pair_channel(monkeypatch, capsys, argv, sizes):
    # neither command reads a pair channel, so only H0's L×L factor (L = 6)
    # is diagonalized, once per model, and never the L²×L² pair factor
    cfg = str(resources.files("fykit").joinpath("configs", "tiny3.cfg"))
    seen = _spy_on_eigh(monkeypatch)
    assert cli.main(argv + ["--config", cfg]) == 0
    capsys.readouterr()
    assert seen == sizes


@pytest.mark.parametrize("per_pair, pair_factors", [
    (None, 1),
    ({(1, 2): PairPotential.onsite(-5.0), (2, 4): PairPotential.gaussian(-3.0, 1.0),
      (3, 4): PairPotential.onsite(-5.0)}, 3),
], ids=["identical", "per_pair"])
def test_solve4_diagonalizes_each_distinct_pair_factor_once(monkeypatch, capsys, tmp_path,
                                                             per_pair, pair_factors):
    # tiny4 (L = 4): one 4×4 factor for H0, and one 16×16 pair factor per
    # distinct potential, shared by every pair that carries it
    real_split = cli.build_split
    monkeypatch.setattr(cli, "build_split", lambda model: real_split(
        dataclasses.replace(model, per_pair=per_pair)))
    seen = _spy_on_eigh(monkeypatch)
    assert cli.main(["solve4", "--config", _preset_with_target(tmp_path, "tiny4", "-28.6")]) == 0
    assert "total reconstruction defect" in capsys.readouterr().out
    assert sorted(seen) == [4] + [16] * pair_factors


def test_solve4_factors_only_inside_the_solve(monkeypatch, capsys, gaussian4_cfg):
    # the chain-sum check's faddeev_components solves H0 − z by conjugate gradients
    calls = _spy_on_factorizations(monkeypatch, "solve_fourbody_ground_state")
    assert cli.main(["solve4", "--config", gaussian4_cfg]) == 0
    assert "total reconstruction defect" in capsys.readouterr().out
    assert calls and all(calls)


def test_shift_invert_factorizations_build_no_certificate(monkeypatch, capsys):
    # the Gershgorin certificate is built for certified solves and estimates
    # only; inverse iteration's factorizations take the bare LU solve
    inside, built, solves = [], [], []
    real_solve, real_certificate = blockops.shift_invert_eigenpair, blockops._gershgorin_positive

    def solve(*args, **kwargs):
        inside.append(True)
        solves.append(True)
        try:
            return real_solve(*args, **kwargs)
        finally:
            inside.pop()

    for module in (cli, yakubovsky, hardcore):  # each caller's own binding
        monkeypatch.setattr(module, "shift_invert_eigenpair", solve)
    monkeypatch.setattr(blockops, "_gershgorin_positive",
                        lambda m: built.append(bool(inside)) or real_certificate(m))
    for argv, checks in ((["solve3", "--config", "tiny3"], True),
                         (["solve4", "--config", "tiny4"], True),
                         (["hardcore3", "--config", "tiny3", "--sweep", "none,0,1"], False)):
        del built[:], solves[:]
        assert cli.main(argv) == 0
        assert solves, argv[0]
        assert True not in built, argv[0]
        # the post-hoc checks of solve3 and solve4 do build one, outside the solve
        assert (False in built) == checks, argv[0]
    capsys.readouterr()


def test_output_path_key_writes_the_stdout_bytes(tmp_path):
    keyed, flagged = tmp_path / "keyed.txt", tmp_path / "flagged.txt"
    text = resources.files("fykit").joinpath("configs", "tiny3.cfg").read_text()
    cfg = tmp_path / "tiny3-path.cfg"
    cfg.write_text(text + f"path = {keyed}\n")  # [output] is the preset's last section
    argv = CLI + ["oracle", "--config", str(cfg), "--k", "2"]
    proc = subprocess.run(argv, capture_output=True, timeout=300, check=True)
    assert proc.stdout and keyed.read_bytes() == proc.stdout
    keyed.unlink()
    proc = subprocess.run(argv + ["--output", str(flagged)], capture_output=True, timeout=300,
                          check=True)
    assert flagged.read_bytes() == proc.stdout
    assert not keyed.exists()  # --output takes precedence over [output] path


def test_solve4_skips_the_chain_sum_check_off_an_eigenvector(tmp_path):
    # tol = 1e-3 stops the solve at residual 5.8e-4, above the 1e-6 eigenpair
    # precondition of the chain-sum check's faddeev_components
    cfg = tmp_path / "gauss4-loose.cfg"
    cfg.write_text(
        "[model]\nN = 4\nL = 3\nboundary = box\nt = 1.0\npotential.kind = gaussian\n"
        "potential.params = -3.0, 1.0\ncore_radius = none\n\n"
        "[solver]\ntarget = -11.0\ntol = 1e-3\nmax_iter = 200\n"
    )
    runs = [run_cli("solve4", "--config", str(cfg), "--format", "machine", check=False)
            for _ in range(2)]
    assert [p.returncode for p in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    # the comment states the measured eigenpair residual and the bound, not a cause
    skipped = [line for line in runs[0].stdout.splitlines()
               if line.startswith("# reconstructed state is not an eigenvector")]
    assert len(skipped) == 1
    measured = float(skipped[0].split("eigenpair residual ")[1].split()[0])
    assert skipped[0].endswith("exceeds 1e-06; chain-sum check skipped")
    assert 1e-6 < measured <= 1e-3
    assert "auxiliary" not in runs[0].stdout
    records = [json.loads(line) for line in data_lines(runs[0].stdout)]
    sol = next(r for r in records if r["record"] == "solution")
    assert f"{sol['eigenvalue']:.11f}" == "-10.73159577624"
    assert 1e-6 < sol["residual"] <= 1e-3
    assert not {r["record"] for r in records} & {"chain_sum", "totals"}
