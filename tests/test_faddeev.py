"""Component construction, coupled-equation residuals, spectrum identity."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from fykit import blockops
from fykit.blockops import Operator, dense_eigenvalues, linear_solve, shift_invert_eigenpair
from fykit.errors import (
    ChannelEnergyError,
    InvalidInputError,
    PreconditionError,
    SpuriousEnergyError,
)
from fykit.faddeev import (
    AUXILIARY_ROOT_WINDOW,
    FewBodySplit,
    assemble_faddeev_operator,
    faddeev_components,
    faddeev_integral_map,
    faddeev_residual,
    lippmann_schwinger_residual,
    random_split,
    spectrum_union_check,
)


def eigenpair_of(split, index=0):
    """Ground-truth eigenpair of H = H0 + ΣVα by dense diagonalization."""
    h = split.total().materialize()
    vals, vecs = np.linalg.eigh(h)
    return vals[index], vecs[:, index]


def test_random_split_is_seeded_and_shaped():
    s1 = random_split(3, 5, seed=4)
    s2 = random_split(3, 5, seed=4)
    s3 = random_split(3, 5, seed=5)
    assert s1.n == 3
    assert s1.total().dim == 5
    assert np.array_equal(s1.h0.materialize(), s2.h0.materialize())
    assert not np.array_equal(s1.h0.materialize(), s3.h0.materialize())
    m = s1.h0.materialize()
    assert np.allclose(m, m.T)
    g = random_split(2, 4, seed=1, hermitian=False).h0.materialize()
    assert not np.allclose(g, g.T)


def test_split_validates_inputs():
    with pytest.raises(InvalidInputError):
        FewBodySplit(h0=Operator.identity(3), potentials=(Operator.identity(3),))
    with pytest.raises(InvalidInputError):
        FewBodySplit(
            h0=Operator.identity(3),
            potentials=(Operator.identity(3), Operator.identity(4)),
        )


def test_split_total_is_assembled_once_per_split():
    def summed(s):
        out = s.h0.materialize()
        for v in s.potentials:
            out = out + v.materialize()
        return out

    split = random_split(3, 5, seed=2)
    h = split.total()
    assert split.total() is h
    assert np.array_equal(h.materialize(), summed(split))
    # a replaced split sums its own parts, not the H cached on the original
    pots = (split.potentials[0] * 2.0,) + split.potentials[1:]
    other = dataclasses.replace(split, potentials=pots)
    assert other.total() is not h
    assert np.array_equal(other.total().materialize(), summed(other))
    assert not np.array_equal(other.total().materialize(), h.materialize())
    assert split.total() is h


def test_auxiliary_distance_is_that_of_the_first_spectrum_within_the_window():
    # σ(H0) = {1, 2}, σ(H0 + V0) ∋ 1 + 4e-7, σ(H0 + V1) ∋ 1 + 3e-6
    split = FewBodySplit(h0=Operator.diagonal([1.0, 2.0]), potentials=(
        Operator.diagonal([4e-7, 0.0]), Operator.diagonal([3e-6, 0.0])))
    # σ(H0) is checked first, though channel 0 is nearer
    assert split.auxiliary_distance(1.0 + 5e-7, range(2)) == pytest.approx(5e-7, rel=1e-6)
    # beyond the window of σ(H0) and channel 0, within that of channel 1
    z = 1.0 + 2.5e-6
    assert split.auxiliary_distance(z) is None
    assert split.auxiliary_distance(z, [0]) is None
    assert split.auxiliary_distance(z, range(2)) == pytest.approx(5e-7, rel=1e-6)
    assert split.auxiliary_distance(1.0 - 2 * AUXILIARY_ROOT_WINDOW, range(2)) is None


def test_components_sum_to_eigenvector():
    split = random_split(3, 6, seed=0)
    z, psi = eigenpair_of(split)
    comps = faddeev_components(split, z, psi)
    total = comps.total()
    # the component sum reproduces Ψ up to normalization of the resolvent identity
    defect = np.linalg.norm(total - psi) / np.linalg.norm(psi)
    assert defect <= 1e-10
    assert comps.n == 3


def test_components_factor_h0_once(monkeypatch):
    # one SuperLU factorization of H0 - z serves all n solves
    split = random_split(4, 6, seed=7)
    z, psi = eigenpair_of(split)
    calls = []
    real = blockops._splu
    monkeypatch.setattr(blockops, "_splu", lambda m: calls.append(m.shape) or real(m))
    comps = faddeev_components(split, z, psi)
    assert calls == [(6, 6)]
    assert np.allclose(comps.total(), psi, atol=1e-9)


def test_random_splits_never_reach_the_lapack_lu(monkeypatch):
    # random splits are stored sparse, so every factorization is a SuperLU one
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK LU called")

    monkeypatch.setattr(sla, "lu_factor", refuse)
    monkeypatch.setattr(sla, "lu_solve", refuse)
    for hermitian in (True, False):
        split = random_split(3, 5, seed=21, hermitian=hermitian)
        assert spectrum_union_check(split).passed
        rhs = np.ones(split.dim)
        x = linear_solve(split.h0, 0.37, rhs)
        assert np.linalg.norm(split.h0.apply(x) - 0.37 * x - rhs) <= 1e-12 * np.linalg.norm(rhs)
    split = random_split(3, 5, seed=21)
    z, psi = eigenpair_of(split)
    comps = faddeev_components(split, z, psi)
    mapped = faddeev_integral_map(split, z, comps.components)
    assert np.allclose(np.sum(mapped.components, axis=0), psi, atol=1e-9)
    assert lippmann_schwinger_residual(split, z, psi) <= 1e-10
    res = shift_invert_eigenpair(assemble_faddeev_operator(split).flatten(), z - 1e-3)
    assert res.residual_norm <= 1e-10


def test_components_need_an_eigenpair():
    split = random_split(3, 6, seed=1)
    z, psi = eigenpair_of(split)
    rng = np.random.default_rng(8)
    with pytest.raises(PreconditionError) as exc_info:
        faddeev_components(split, z, rng.standard_normal(6))
    assert exc_info.value.measured > 1e-8
    # explicit opt-out still builds the definition-level components
    loose = faddeev_components(split, z, rng.standard_normal(6), eigenpair_tol=np.inf)
    assert loose.n == 3


def test_components_satisfy_coupled_equations():
    split = random_split(4, 5, seed=2)
    z, psi = eigenpair_of(split)
    comps = faddeev_components(split, z, psi)
    res = faddeev_residual(split, comps)
    assert res.shape == (4,)
    assert np.max(res) <= 1e-10


def test_lippmann_schwinger_residual_detects_eigenvectors():
    split = random_split(3, 7, seed=3)
    z, psi = eigenpair_of(split)
    assert lippmann_schwinger_residual(split, z, psi) <= 1e-10
    rng = np.random.default_rng(9)
    junk = rng.standard_normal(7)
    assert lippmann_schwinger_residual(split, z, junk) > 1e-3


def test_lippmann_schwinger_rejects_unperturbed_energies():
    split = random_split(2, 5, seed=6)
    lam0 = np.real(dense_eigenvalues(split.h0, hermitian=True))[0]
    with pytest.raises(SpuriousEnergyError):
        lippmann_schwinger_residual(split, lam0, np.ones(5))


def test_integral_map_fixes_true_components():
    split = random_split(3, 6, seed=7)
    z, psi = eigenpair_of(split)
    comps = faddeev_components(split, z, psi)
    mapped = faddeev_integral_map(split, z, comps.components)
    for before, after in zip(comps.components, mapped.components):
        assert np.linalg.norm(after - before) / max(np.linalg.norm(before), 1e-300) <= 1e-9


def test_integral_map_reports_singular_channel():
    split = random_split(2, 5, seed=10)
    channel0 = (split.h0 + split.potentials[0]).materialize()
    bad_z = np.linalg.eigvalsh(channel0)[0]
    with pytest.raises(ChannelEnergyError) as exc_info:
        faddeev_integral_map(split, bad_z, [np.ones(5), np.ones(5)])
    assert exc_info.value.pair == 0


def test_block_operator_layout():
    split = random_split(3, 4, seed=11)
    flat = assemble_faddeev_operator(split).flatten().materialize()
    assert flat.shape == (12, 12)
    h0 = split.h0.materialize()
    v = [p.materialize() for p in split.potentials]
    for i in range(3):
        for j in range(3):
            block = flat[4 * i : 4 * (i + 1), 4 * j : 4 * (j + 1)]
            want = h0 + v[i] if i == j else v[i]
            assert np.allclose(block, want)


def test_spectrum_union_hermitian():
    split = random_split(3, 5, seed=12)
    rep = spectrum_union_check(split, tol=1e-8)
    assert rep.passed
    assert rep.max_matching_distance <= 1e-8


def test_spectrum_union_general_matrices():
    split = random_split(4, 3, seed=13, hermitian=False)
    rep = spectrum_union_check(split, tol=1e-7)
    assert rep.passed


def test_spectrum_union_reports_failure_instead_of_raising():
    split = random_split(2, 4, seed=14)
    rep = spectrum_union_check(split, tol=1e-300)
    assert not rep.passed
    assert rep.max_matching_distance > 0.0


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 6),
    dim=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
    hermitian=st.booleans(),
)
def test_spectrum_union_holds_on_random_splits(n, dim, seed, hermitian):
    assert spectrum_union_check(random_split(n, dim, seed, hermitian), tol=1e-8).passed


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 6),
    dim=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_splits_meet_the_threebody_equivalences(n, dim, seed):
    # criterion 2's checks at its 1e-9, on the lowest eigenpair of any Hermitian split
    split = random_split(n, dim, seed)
    z, psi = eigenpair_of(split)
    comps = faddeev_components(split, z, psi)
    assert np.linalg.norm(comps.total() - psi) <= 1e-9 * np.linalg.norm(psi)
    assert np.max(faddeev_residual(split, comps)) <= 1e-9
    mapped = faddeev_integral_map(split, z, comps.components)
    for before, after in zip(comps.components, mapped.components):
        assert np.linalg.norm(after - before) <= 1e-9 * max(np.linalg.norm(before), 1e-300)
    assert lippmann_schwinger_residual(split, z, psi) <= 1e-9
