"""Shifted solves through H − z and H0 − z, and the four-body pair-sum reduction."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fykit import cli
from fykit.faddeev import (
    FewBodySplit,
    _FaddeevShiftedFactor,
    assemble_faddeev_operator,
    random_split,
)
from fykit.lattice import LatticeModel, PairPotential, dense_oracle_spectrum, hamiltonian_terms
from fykit.yakubovsky import (
    YakubovskySystem,
    _PairSumFactor,
    assemble_yakubovsky_operator,
    solve_fourbody_ground_state,
)

# Two backward-stable solves of one system agree to about cond·eps, so the
# comparisons below are made only where every shifted operator involved is
# reasonably conditioned: the flatten, and each operator the reduced solve
# factors.
_MAX_COND = 1e6


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    d=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
    hermitian=st.booleans(),
    z=st.floats(min_value=-12.0, max_value=12.0),
)
def test_faddeev_shifted_factor_matches_dense_solve(n, d, seed, hermitian, z):
    split = random_split(n, d, seed, hermitian=hermitian)
    flat = assemble_faddeev_operator(split).flatten().materialize()
    shifted = [flat, split.total().materialize(), split.h0.materialize()]
    assume(all(np.linalg.cond(m - z * np.eye(m.shape[0])) <= _MAX_COND for m in shifted))

    b = np.random.default_rng(seed).standard_normal(n * d)
    x = _FaddeevShiftedFactor(split, z).solve(b)
    ref = np.linalg.solve(flat - z * np.eye(n * d), b)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**16),
    hermitian=st.booleans(),
    z=st.floats(min_value=-12.0, max_value=12.0),
)
def test_pair_sum_factor_matches_dense_solve(d, seed, hermitian, z):
    sysy = YakubovskySystem(split=random_split(6, d, seed, hermitian=hermitian))
    flat = assemble_yakubovsky_operator(sysy).flatten().materialize()
    faddeev = assemble_faddeev_operator(sysy.split).flatten()
    shifted = [flat, faddeev.materialize()] + [
        (sysy.split.h0 + v).materialize() for v in sysy.split.potentials
    ]
    assume(all(np.linalg.cond(m - z * np.eye(m.shape[0])) <= _MAX_COND for m in shifted))

    b = np.random.default_rng(seed).standard_normal(18 * d)
    x = _PairSumFactor(sysy, z).solve(b)
    ref = np.linalg.solve(flat - z * np.eye(18 * d), b)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.fixture
def factored_dims(monkeypatch):
    """Dimensions of every matrix handed to a dense or sparse LU."""
    dims = []

    def spy(kernel):
        def wrapped(mat, *args, **kwargs):
            dims.append(mat.shape[0])
            return kernel(mat, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(sla, "lu_factor", spy(sla.lu_factor))
    monkeypatch.setattr(spla, "splu", spy(spla.splu))
    return dims


def test_fourbody_solve_factors_nothing_larger_than_the_faddeev_operator(
    tiny4_split, factored_dims
):
    split, _ = tiny4_split
    res = solve_fourbody_ground_state(YakubovskySystem(split=split), target=-28.6)
    assert res.factorizations >= 1
    assert factored_dims
    assert max(factored_dims) <= 6 * split.dim


def test_shifted_solves_factor_nothing_larger_than_the_model(
    tiny3_split, tiny4_split, factored_dims, capsys
):
    assert cli.main(["solve3", "--config", "tiny3"]) == 0
    capsys.readouterr()
    assert factored_dims
    assert max(factored_dims) <= tiny3_split[0].dim

    factored_dims.clear()
    split, _ = tiny4_split
    solve_fourbody_ground_state(YakubovskySystem(split=split), target=-28.6)
    assert factored_dims
    assert max(factored_dims) <= split.dim


@pytest.fixture(scope="module")
def small4():
    model = LatticeModel(
        N=4, L=3, boundary="box", t=1.0, potential=PairPotential("onsite", (-5.0,))
    )
    h0, _, pots = hamiltonian_terms(model)
    return model, YakubovskySystem(split=FewBodySplit(h0=h0, potentials=tuple(pots)))


@pytest.mark.parametrize("seed", [1, 99999])
def test_fourbody_seeds_agree_with_the_oracle(small4, seed):
    model, sysy = small4
    gs = dense_oracle_spectrum(model, 1)[0].value
    res = solve_fourbody_ground_state(sysy, target=gs - 0.1, seed=seed)
    assert res.value == pytest.approx(gs, abs=1e-8)
    assert res.residual_norm <= 1e-10


def test_solve4_forwards_the_seed(monkeypatch, capsys):
    seen = []
    real = cli.solve_fourbody_ground_state

    def spy(*args, **kwargs):
        seen.append(kwargs.get("seed"))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_fourbody_ground_state", spy)
    assert cli.main(["solve4", "--config", "tiny4", "--seed", "99999"]) == 0
    capsys.readouterr()
    assert seen == [99999]
