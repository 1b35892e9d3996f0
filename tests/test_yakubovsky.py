"""Chain components: construction, residuals, chain sums, solver, symmetry."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from fykit import blockops
from fykit.combinatorics import all_permutations
from fykit.errors import InvalidInputError
from fykit.faddeev import (
    AUXILIARY_ROOT_WINDOW,
    FaddeevComponents,
    faddeev_components,
    random_split,
)
from fykit.lattice import build_permutation, dense_oracle_spectrum, h0_spectrum
from fykit.yakubovsky import (
    YakubovskyComponents,
    YakubovskySystem,
    assemble_yakubovsky_operator,
    chain_sum_consistency,
    component_symmetry_check,
    coupling_pattern,
    faddeev_symmetry_check,
    solve_fourbody_ground_state,
    yakubovsky_components,
    yakubovsky_residual,
)

# ground-state energy of the tiny4 preset, frozen from the dense oracle
TINY4_GS = -28.448373683564892


@pytest.fixture(scope="module")
def tiny4_system(tiny4_split):
    split, pairs = tiny4_split
    return YakubovskySystem(split=split)


@pytest.fixture(scope="module")
def tiny4_ground(tiny4, tiny4_system):
    gs = dense_oracle_spectrum(tiny4, 1)[0]
    fc = faddeev_components(tiny4_system.split, gs.value, gs.vector)
    yc = yakubovsky_components(tiny4_system, gs.value, fc)
    return gs, fc, yc


def test_system_requires_six_potentials():
    with pytest.raises(InvalidInputError):
        YakubovskySystem(split=random_split(3, 4, seed=0))


def test_coupling_pattern_census(tiny4_system):
    chains = tiny4_system.chains
    mask = coupling_pattern(chains)
    assert mask.shape == (18, 18)
    assert not mask.diagonal().any()
    assert int(mask.sum()) == 90
    for i, chain in enumerate(chains):
        row_count = int(mask[i].sum())
        assert row_count == (6 if chain.partition.kind == "3+1" else 3)


def test_assembled_operator_matches_pattern(tiny4_system):
    block = assemble_yakubovsky_operator(tiny4_system)
    mask = coupling_pattern(tiny4_system.chains)
    for i in range(18):
        for j in range(18):
            entry = block.entries[i][j]
            if i == j:
                assert entry is not None
            elif mask[i, j]:
                assert entry is not None
            else:
                assert entry is None


def test_assembled_operator_builds_each_channel_once(tiny4_system):
    block = assemble_yakubovsky_operator(tiny4_system)
    split, pairs = tiny4_system.split, tiny4_system.pairs
    by_pair = {}
    for i, chain in enumerate(tiny4_system.chains):
        entry = block.entries[i][i]
        assert by_pair.setdefault(chain.pair, entry) is entry  # one object per pair
        want = split.h0 + split.potentials[pairs.index(chain.pair)]
        assert np.array_equal(entry.materialize(), want.materialize())
    assert len({id(e) for e in by_pair.values()}) == 6


def test_chain_components_solve_coupled_equations(tiny4_ground, tiny4_system):
    gs, fc, yc = tiny4_ground
    res = yakubovsky_residual(tiny4_system, yc)
    assert res.shape == (18,)
    assert np.max(res) <= 1e-9


def test_chain_components_solve_each_channel_once(monkeypatch, tiny4_ground, tiny4_system):
    # one block solve per distinct channel H0 + Vα, with the pair's three chains
    # as its columns; the channel's Kronecker solve certifies them, so nothing is factored
    gs, fc, yc = tiny4_ground
    blocks, calls = [], []
    real_solve, real_splu = blockops._Resolvent.solve, spla.splu
    monkeypatch.setattr(blockops._Resolvent, "solve",
                        lambda self, b: blocks.append(np.shape(b)) or real_solve(self, b))
    monkeypatch.setattr(spla, "splu", lambda *a, **k: calls.append(1) or real_splu(*a, **k))
    again = yakubovsky_components(tiny4_system, gs.value, fc)
    assert blocks == [(tiny4_system.dim, 3)] * 6
    assert calls == []
    for got, want in zip(again.components, yc.components):
        assert np.array_equal(got, want)
    # a fully populated split takes the LU path: one factorization per channel
    split = random_split(6, 5, seed=3)
    vals, vecs = np.linalg.eigh(split.total().materialize())
    fc = faddeev_components(split, vals[0], vecs[:, 0])
    del calls[:]
    yakubovsky_components(YakubovskySystem(split=split), vals[0], fc)
    assert len(calls) == 6


def test_chain_sums_collapse_to_pair_components(tiny4_ground, tiny4_system):
    gs, fc, yc = tiny4_ground
    rep = chain_sum_consistency(tiny4_system, yc, fc)
    assert rep.per_pair.shape == (6,)
    assert np.max(rep.per_pair) <= 1e-9
    assert rep.total_defect <= 1e-9


def test_assembled_operator_annihilates_stacked_components(tiny4_ground, tiny4_system):
    gs, fc, yc = tiny4_ground
    flat = assemble_yakubovsky_operator(tiny4_system).flatten()
    x = np.concatenate(yc.components)
    defect = np.linalg.norm(flat.apply(x) - gs.value * x) / np.linalg.norm(x)
    assert defect <= 1e-9


def test_components_validate_count():
    with pytest.raises(InvalidInputError):
        YakubovskyComponents(z=0.0, components=tuple(np.zeros((6, 4))))


def test_shift_invert_recovers_ground_state(tiny4_system):
    res = solve_fourbody_ground_state(tiny4_system, target=-28.6, tol=1e-10)
    assert np.real(res.value) == pytest.approx(TINY4_GS, abs=1e-8)
    assert res.residual_norm <= 1e-8


def auxiliary_distance(sysy, res):
    """The distance ``fy solve4`` reports its auxiliary-root comment from."""
    return sysy.split.auxiliary_distance(res.value, range(sysy.split.n))


def test_solver_flags_roots_near_unperturbed_spectrum(tiny4_system):
    lam0 = sla.eigvalsh(tiny4_system.split.h0.materialize())
    res = solve_fourbody_ground_state(tiny4_system, target=lam0[0] + 1e-9, tol=1e-10)
    assert auxiliary_distance(tiny4_system, res) <= AUXILIARY_ROOT_WINDOW


def test_auxiliary_root_check_ignores_the_dense_limit_on_lattice_splits(
    monkeypatch, tiny4, tiny4_system
):
    # the Kronecker channels give every channel spectrum without a dense eigensolver
    monkeypatch.setattr(blockops, "DENSE_LIMIT", 100)
    assert tiny4_system.dim > 100
    res = solve_fourbody_ground_state(tiny4_system, target=h0_spectrum(tiny4)[0] + 1e-9)
    assert auxiliary_distance(tiny4_system, res) <= AUXILIARY_ROOT_WINDOW


def test_auxiliary_root_check_skips_splits_without_channels_beyond_the_dense_limit(
    monkeypatch,
):
    sysy = YakubovskySystem(split=random_split(6, 5, seed=0, hermitian=True))
    target = sla.eigvalsh(sysy.split.h0.materialize())[0] + 1e-9
    res = solve_fourbody_ground_state(sysy, target=target)
    assert auxiliary_distance(sysy, res) <= AUXILIARY_ROOT_WINDOW
    monkeypatch.setattr(blockops, "DENSE_LIMIT", 4)
    res = solve_fourbody_ground_state(sysy, target=target)
    assert auxiliary_distance(sysy, res) is None


def test_component_symmetry_transport(tiny4, tiny4_ground, tiny4_system):
    gs, fc, yc = tiny4_ground
    perm_ops = [build_permutation(tiny4, p) for p in all_permutations(4)]
    oracle_vals = [r.value for r in dense_oracle_spectrum(tiny4, 3)]
    rep = component_symmetry_check(
        tiny4_system, yc, fc, perm_ops, oracle_values=oracle_vals
    )
    assert not rep.skipped
    assert rep.covariance_defect == 0.0
    assert rep.commutation_defect <= 1e-12
    assert rep.max_deviation <= 1e-10
    # a symmetric (bosonic) ground state: every measured sign is +1
    assert set(rep.sign_table.values()) == {1}


def test_faddeev_symmetry_transport(tiny3, tiny3_split):
    split, pairs = tiny3_split
    gs = dense_oracle_spectrum(tiny3, 1)[0]
    fc = faddeev_components(split, gs.value, gs.vector)
    perm_ops = [build_permutation(tiny3, p) for p in all_permutations(3)]
    oracle_vals = [r.value for r in dense_oracle_spectrum(tiny3, 3)]
    rep = faddeev_symmetry_check(split, pairs, fc, perm_ops, oracle_values=oracle_vals)
    assert not rep.skipped
    assert rep.max_deviation <= 1e-10
    assert set(rep.sign_table.values()) == {1}


def test_symmetry_check_skips_degenerate_levels(tiny3, tiny3_split):
    split, pairs = tiny3_split
    gs = dense_oracle_spectrum(tiny3, 1)[0]
    fc = faddeev_components(split, gs.value, gs.vector)
    perm_ops = [build_permutation(tiny3, p) for p in all_permutations(3)]
    # an artificial oracle that claims the level is degenerate
    fake_vals = [gs.value, gs.value + 1e-12]
    rep = faddeev_symmetry_check(split, pairs, fc, perm_ops, oracle_values=fake_vals)
    assert rep.skipped
    assert rep.notice != ""


def test_symmetry_check_skips_a_state_that_is_no_sign_eigenvector(tiny3, tiny3_split):
    # without oracle values the skip rests on Ψ alone, here a sum of random vectors
    split, pairs = tiny3_split
    rng = np.random.default_rng(47)
    fc = FaddeevComponents(z=-7.0, components=tuple(rng.standard_normal((3, split.dim))))
    perm_ops = [build_permutation(tiny3, p) for p in all_permutations(3)]
    rep = faddeev_symmetry_check(split, pairs, fc, perm_ops)
    assert rep.skipped
    assert np.isnan(rep.max_deviation)
    assert "is not a sign eigenvector of permutation" in rep.notice
