"""The oracles, each self-certified: lowest k by subset ``eigh``, ground state by Lanczos."""

import json
from importlib import resources

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import _PAIR_KEYS, POTENTIALS
from fykit import blockops, cli, hardcore
from fykit.blockops import Operator
from fykit.errors import InvalidInputError, SolverFailureError, TooLargeError
from fykit.hardcore import ground_state, restricted_oracle, restricted_space
from fykit.lattice import (
    _LANCZOS_RESIDUAL_TOL,
    LatticeModel,
    PairPotential,
    _lanczos_ground_state,
    _orbit_basis,
    _symmetry_maps,
    build_hamiltonian,
    dense_oracle_spectrum,
    hamiltonian_terms,
    symmetry_orbits,
)


@st.composite
def models(draw, max_n=3, max_dim=343, min_n=1):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    largest = max(L for L in range(2, max_dim + 1) if L ** n <= max_dim)
    return LatticeModel(
        N=n,
        L=draw(st.integers(min_value=2, max_value=largest)),
        boundary=draw(st.sampled_from(["box", "ring"])),
        t=draw(st.floats(min_value=0.0, max_value=2.0)),
        potential=draw(POTENTIALS),
        core_radius=draw(st.sampled_from([None, 0, 1])),
    )


def _in_core(model, kept):
    mask = np.ones(model.dimension, dtype=bool)
    mask[kept] = False
    return mask


@settings(max_examples=150, deadline=None)
@given(model=models(), data=st.data())
def test_oracles_certify_the_lowest_k(model, data):
    kept = restricted_space(model)
    if kept.shape[0] == 0:
        with pytest.raises(InvalidInputError):
            restricted_oracle(model, 1)
        return
    k = data.draw(st.integers(min_value=1, max_value=min(kept.shape[0], 6)), label="k")
    oracle = restricted_oracle if model.has_core else dense_oracle_spectrum
    results = oracle(model, k)
    want = np.linalg.eigvalsh(build_hamiltonian(model).materialize()[np.ix_(kept, kept)])[:k]
    in_core = _in_core(model, kept)
    assert len(results) == k
    for r, lam in zip(results, want):
        assert r.method == ("restricted-eigh" if model.has_core else "dense-eigh")
        assert abs(r.value - lam) <= 1e-12 * (1.0 + abs(lam))
        assert r.residual_norm <= 1e-10
        assert r.vector.shape == (model.dimension,)
        assert abs(np.linalg.norm(r.vector) - 1.0) <= 1e-12
        assert np.all(r.vector[in_core] == 0.0)


def _spy_on_eigh(monkeypatch):
    calls = []
    real = sla.eigh

    def spy(*args, **kwargs):
        calls.append((args[0].shape[0], kwargs.get("subset_by_index")))
        return real(*args, **kwargs)

    monkeypatch.setattr(sla, "eigh", spy)
    return calls


def _spy_on_eigsh(monkeypatch):
    calls = []
    real = spla.eigsh

    def spy(*args, **kwargs):
        calls.append((kwargs.get("k"), kwargs.get("ncv")))
        return real(*args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", spy)
    return calls


@settings(max_examples=150, deadline=None)
@given(model=models(max_n=4, max_dim=512))
@example(model=LatticeModel(N=3, L=5, t=0.0, potential=PairPotential.gaussian(-2.0, 1.0)))
@example(model=LatticeModel(N=3, L=5, potential=PairPotential.onsite(-3.0), core_radius=1))
@example(model=LatticeModel(N=2, L=2, t=0.0, potential=PairPotential.onsite(-1.0), core_radius=0))
@example(model=LatticeModel(N=3, L=3, core_radius=1))
@example(model=LatticeModel(N=3, L=3, t=2.2250738585072e-309, potential=PairPotential.onsite(1.0)))
@example(model=LatticeModel(N=3, L=5, t=1e-6, potential=PairPotential.table([3.0])))
def test_lanczos_ground_state_matches_eigvalsh(model):
    kept = restricted_space(model)
    if kept.shape[0] == 0:
        with pytest.raises(InvalidInputError, match="no configuration survives"):
            ground_state(model)
        return
    r = ground_state(model)
    lam = np.linalg.eigvalsh(build_hamiltonian(model).materialize()[np.ix_(kept, kept)])[0]
    assert r.method == ("restricted-lanczos" if model.has_core else "lanczos")
    assert abs(r.value - lam) <= 1e-12 * (1.0 + abs(lam))
    assert r.residual_norm <= 1e-10
    assert r.vector.shape == (model.dimension,)
    assert abs(np.linalg.norm(r.vector) - 1.0) <= 1e-12
    assert np.all(r.vector[_in_core(model, kept)] == 0.0)


@settings(max_examples=100, deadline=None)
@given(model=models(min_n=3))
def test_lanczos_stopped_short_of_machine_precision_still_meets_its_certificate(model):
    kept = restricted_space(model)
    if kept.shape[0] == 0:
        return
    r = ground_state(model)
    lam = restricted_oracle(model, 1)[0].value
    assert abs(r.value - lam) <= 1e-12 * (1.0 + abs(lam))
    # the certificate: the recomputed residual against the Ritz value of h + σI
    h = build_hamiltonian(model).to_sparse()[kept][:, kept]
    diag = h.diagonal()
    sigma = 1.0 - np.min(diag + abs(diag) - abs(h).sum(axis=1).A1)
    vec = r.vector[kept]
    assert np.linalg.norm(h @ vec - r.value * vec) <= _LANCZOS_RESIDUAL_TOL * (r.value + sigma)


@pytest.mark.parametrize("h", [sp.csr_matrix([[2.5]]), sp.csr_matrix((4, 4)),
                               sp.diags([3.0, -1.0, -1.0, 0.5], format="csr")],
                         ids=["one-by-one", "zero", "diagonal"])
def test_lanczos_reads_a_diagonal_hamiltonian_without_arpack(monkeypatch, h):
    # ARPACK raises TypeError at n = 1 and error -9 on the zero matrix
    calls = _spy_on_eigsh(monkeypatch)
    r = _lanczos_ground_state(h, "lanczos", np.arange(h.shape[0]))
    diag = h.diagonal()
    assert calls == []
    assert r.value == diag.min()
    assert r.residual_norm == 0.0
    assert r.vector[np.argmin(diag)] == 1.0 and np.linalg.norm(r.vector) == 1.0


def test_lanczos_finds_an_isolated_zero_energy_state():
    # unshifted ARPACK returns the lowest level of the chain, 2.0079, not the 0.0
    chain = sp.diags([np.full(23, -0.5), np.ones(24), np.full(23, -0.5)], [-1, 0, 1])
    h = sp.block_diag([sp.csr_matrix([[0.0]]), 2.0 * sp.identity(24) + chain], format="csr")
    r = _lanczos_ground_state(h, "lanczos", np.arange(h.shape[0]))
    assert abs(r.value) <= 1e-14
    assert abs(abs(r.vector[0]) - 1.0) <= 1e-14
    assert r.residual_norm <= 1e-14


def test_lanczos_retries_a_tight_cluster_on_a_larger_basis(monkeypatch):
    # hopping 1e-6 against an on-site 3.0: the 120 configurations with no two
    # particles on one site form a ground cluster about 1e-5 wide. The three
    # pairs carry that potential written three ways, so H is the identical
    # model's bit for bit but no relabeling is a symmetry: only the reflection
    # is, and its sector (108 of 216) still stalls 20 Lanczos vectors
    same = (PairPotential.onsite(3.0), PairPotential.square(3.0, 0.0))
    model = LatticeModel(N=3, L=6, t=1e-6, potential=PairPotential.table([3.0]),
                         per_pair={(1, 2): same[0], (1, 3): same[1]})
    identical = LatticeModel(N=3, L=6, t=1e-6, potential=PairPotential.table([3.0]))
    h = build_hamiltonian(model).materialize()
    assert np.array_equal(h, build_hamiltonian(identical).materialize())
    assert np.unique(symmetry_orbits(model)).size == 108
    calls = _spy_on_eigsh(monkeypatch)
    r = ground_state(model)
    lam = np.linalg.eigvalsh(h)[0]
    assert calls == [(1, 20), (1, 108)]
    assert abs(r.value - lam) <= 1e-12 * (1.0 + abs(lam))
    assert r.residual_norm <= 1e-10


def test_lanczos_turns_no_convergence_into_a_solver_failure(monkeypatch):
    calls = []

    def stall(*args, **kwargs):
        calls.append(kwargs["ncv"])
        raise spla.ArpackNoConvergence("stalled", np.empty(0), np.empty((6, 0)))

    monkeypatch.setattr(spla, "eigsh", stall)
    # the 16 configurations fall into 6 orbits of the reflection and the swap
    with pytest.raises(SolverFailureError, match="not certified at dim 6"):
        ground_state(LatticeModel(N=2, L=4))
    assert calls == [6, 6, 6]


@pytest.mark.parametrize("core", [None, 0])
def test_lanczos_oracle_refuses_an_asymmetric_hamiltonian(monkeypatch, core):
    model = LatticeModel(N=3, L=4, core_radius=core)
    h = build_hamiltonian(model).to_sparse().tolil()
    kept = restricted_space(model)
    h[kept[0], kept[1]] += 1e-15
    monkeypatch.setattr(hardcore, "build_hamiltonian", lambda m: Operator.sparse(h.tocsr()))
    calls = _spy_on_eigsh(monkeypatch)
    with pytest.raises(InvalidInputError, match="not exactly symmetric"):
        ground_state(model)
    assert calls == []


@pytest.mark.parametrize("core", [None, 0])
def test_lanczos_oracle_refuses_a_positive_off_diagonal_entry(monkeypatch, core):
    # Perron–Frobenius no longer puts the ground state in the symmetric sector
    model = LatticeModel(N=3, L=4, core_radius=core)
    h = build_hamiltonian(model).to_sparse().tolil()
    kept = restricted_space(model)
    h[kept[0], kept[1]] = h[kept[1], kept[0]] = 0.5
    monkeypatch.setattr(hardcore, "build_hamiltonian", lambda m: Operator.sparse(h.tocsr()))
    calls = _spy_on_eigsh(monkeypatch)
    with pytest.raises(InvalidInputError, match="positive off-diagonal entry"):
        ground_state(model)
    assert calls == []


@st.composite
def sector_models(draw):
    """Models of N 1-4 (L^N ≤ 256) of every kind the ground-state finder takes."""
    n = draw(st.integers(min_value=1, max_value=4))
    L = draw(st.integers(min_value=2, max_value=max(L for L in range(2, 17) if L ** n <= 256)))
    keys = [key for key in _PAIR_KEYS if max(key) <= n]
    per_pair = draw(st.dictionaries(st.sampled_from(keys), POTENTIALS, max_size=3)) if keys else None
    return LatticeModel(
        N=n,
        L=L,
        boundary=draw(st.sampled_from(["box", "ring"])),
        t=draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0))),
        potential=draw(POTENTIALS),
        core_radius=draw(st.sampled_from([None, 0, 1, 2]).filter(lambda c: c is None or c < L)),
        per_pair=per_pair or None,
    )


@settings(max_examples=150, deadline=None)
@given(model=sector_models())
@example(model=LatticeModel(N=4, L=3, boundary="ring", potential=PairPotential.onsite(-2.0),
                            per_pair={(1, 2): PairPotential.onsite(-1.0)}, core_radius=0))
@example(model=LatticeModel(N=1, L=2))
def test_the_symmetric_sector_holds_the_ground_state(model):
    h0, _, pots = hamiltonian_terms(model)
    h0, pots = h0.materialize(), [v.diagonal_data for v in pots]
    h = build_hamiltonian(model).materialize()
    maps = list(_symmetry_maps(model))
    for g in maps:
        # each element fixes H0 and permutes the pair potentials, bit for bit; H,
        # their floating-point sum, only up to the order of the additions
        assert np.array_equal(h0[np.ix_(g, g)], h0)
        assert sorted(v[g].tobytes() for v in pots) == sorted(v.tobytes() for v in pots)
        assert np.allclose(h[np.ix_(g, g)], h, rtol=0.0, atol=8 * np.finfo(float).eps * np.abs(h).max())
    kept = restricted_space(model)
    if kept.shape[0] == 0:
        return
    orbits = symmetry_orbits(model)
    assert all(np.array_equal(orbits[g], orbits) for g in maps)
    p = _orbit_basis(orbits[kept]).toarray()
    assert np.allclose(p.T @ p, np.eye(p.shape[1]), rtol=0.0, atol=1e-15)
    hr = h[np.ix_(kept, kept)]
    lam = np.linalg.eigvalsh(hr)[0]
    assert abs(np.linalg.eigvalsh(p.T @ hr @ p)[0] - lam) <= 1e-12 * (1.0 + abs(lam))
    r = ground_state(model)
    assert abs(r.value - lam) <= 1e-12 * (1.0 + abs(lam))
    assert r.residual_norm <= 1e-10


def test_auto_target_runs_lanczos_on_the_symmetric_sector(monkeypatch, capsys, tmp_path, tiny3):
    tiny3_cfg = resources.files("fykit").joinpath("configs", "tiny3.cfg").read_text()
    cfg = tmp_path / "tiny3-auto.cfg"
    cfg.write_text(tiny3_cfg.replace("target = -7.6", "target = auto"))
    dims = []
    real = spla.eigsh

    def spy(a, **kwargs):
        dims.append(a.shape[0])
        return real(a, **kwargs)

    monkeypatch.setattr(spla, "eigsh", spy)
    assert len(_auto_target_line(capsys, cfg, "1")) == 1
    # 216 configurations, 28 orbits of the reflection × S_3
    assert tiny3.dimension == 216 and dims == [np.unique(symmetry_orbits(tiny3)).size] == [28]


def _auto_target_line(capsys, cfg, seed):
    assert cli.main(["solve3", "--config", str(cfg), "--seed", seed]) == 0
    lines = capsys.readouterr().out.splitlines()
    return [line for line in lines if line.startswith("# auto target")]


def test_auto_target_diagonalizes_only_the_ground_state(monkeypatch, capsys, tmp_path):
    tiny3 = resources.files("fykit").joinpath("configs", "tiny3.cfg").read_text()
    cfg = tmp_path / "tiny3-auto.cfg"
    cfg.write_text(tiny3.replace("target = -7.6", "target = auto"))
    eigh_calls = _spy_on_eigh(monkeypatch)
    eigsh_calls = _spy_on_eigsh(monkeypatch)
    line = _auto_target_line(capsys, cfg, "1")
    # only the one-particle factor of H0's channel (L = 6): never H, and
    # solve3 reads no pair channel, so the L² = 36 factor never runs
    assert eigh_calls == [(6, None)]
    assert eigsh_calls == [(1, 20)]
    assert len(line) == 1 and line[0].startswith("# auto target from lanczos oracle: ")
    # the oracle's start vector is its own, not the solver's seed
    assert _auto_target_line(capsys, cfg, "99999") == line


def test_solve4_auto_target_lands_on_the_ground_state_of_a_bound_cluster(tmp_path, capsys):
    # N=4 L=6 on-site −8: E1 − E0 = 1.4e-3, and a target 0.1 below E0 returns
    # E1 = −40.334578513; the Lanczos auto target returns E0
    cfg = tmp_path / "n4l6.cfg"
    cfg.write_text(
        "[model]\nN = 4\nL = 6\nt = 1.0\npotential.kind = onsite\npotential.params = -8.0\n"
        "\n[solver]\ntarget = auto\n"
    )
    assert cli.main(["solve4", "--config", str(cfg), "--format", "machine"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()
               if not line.startswith("#")]
    solution = next(r for r in records if r["record"] == "solution")
    e0 = dense_oracle_spectrum(LatticeModel(N=4, L=6, potential=PairPotential.onsite(-8.0)), 1)[0]
    assert abs(solution["eigenvalue"] - e0.value) <= 1e-8
    assert solution["residual"] <= 1e-10


def test_restricted_oracle_is_gated_on_the_restricted_dimension(monkeypatch, tiny3):
    monkeypatch.setattr(blockops, "DENSE_LIMIT", 100)
    core1 = LatticeModel(N=3, L=6, potential=tiny3.potential, core_radius=1)
    assert core1.dimension == 216 and restricted_space(core1).shape[0] == 24
    assert restricted_oracle(core1, 1)[0].value == pytest.approx(ground_state(core1).value)
    core0 = LatticeModel(N=3, L=6, potential=tiny3.potential, core_radius=0)
    assert restricted_space(core0).shape[0] == 120
    with pytest.raises(TooLargeError, match="dim 120 exceeds limit 100"):
        restricted_oracle(core0, 1)


@pytest.mark.parametrize("core", [None, 1])
@pytest.mark.parametrize("k", [0, 10_000])
def test_oracles_reject_k_before_eigh(monkeypatch, tiny3, core, k):
    model = LatticeModel(N=3, L=6, potential=tiny3.potential, core_radius=core)
    calls = _spy_on_eigh(monkeypatch)
    with pytest.raises(InvalidInputError, match="eigenpair count"):
        restricted_oracle(model, k)
    assert calls == []


def test_restricted_oracle_refuses_an_asymmetric_hamiltonian(monkeypatch):
    model = LatticeModel(N=3, L=4, core_radius=0)
    h = build_hamiltonian(model).to_sparse().tolil()
    kept = restricted_space(model)
    h[kept[0], kept[1]] += 1e-15
    monkeypatch.setattr(hardcore, "build_hamiltonian", lambda m: Operator.sparse(h.tocsr()))
    calls = _spy_on_eigh(monkeypatch)
    with pytest.raises(InvalidInputError, match="not exactly symmetric"):
        restricted_oracle(model, 1)
    assert calls == []
