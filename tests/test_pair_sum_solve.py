"""Shifted solves through H − z and H0 − z, and the four-body pair-sum reduction."""

import functools

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import fourbody_models
from fykit import cli, lattice, yakubovsky
from fykit.combinatorics import TwoClusterPartition, enumerate_chains, enumerate_pairs
from fykit.faddeev import (
    FewBodySplit,
    _FaddeevShiftedFactor,
    assemble_faddeev_operator,
    random_split,
)
from fykit.hardcore import ground_state
from fykit.lattice import (
    LatticeModel,
    PairPotential,
    build_split,
    dense_oracle_spectrum,
    hamiltonian_terms,
)
from fykit.yakubovsky import (
    YakubovskyComponents,
    YakubovskySystem,
    _PairSumFactor,
    assemble_yakubovsky_operator,
    solve_fourbody_ground_state,
    yakubovsky_residual,
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


@pytest.mark.parametrize("hermitian", [True, False])
def test_faddeev_shifted_factor_solves_a_complex_rhs_at_a_real_shift(hermitian):
    # H − z and H0 − z are real LU factors; each solves a complex right-hand
    # side as its real and imaginary parts
    split, z = random_split(3, 5, seed=0, hermitian=hermitian), 0.37
    factor = _FaddeevShiftedFactor(split, z)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(15) + 1j * rng.standard_normal(15)
    x = factor.solve(b)
    assert np.array_equal(x, factor.solve(b.real) + 1j * factor.solve(b.imag))
    flat = assemble_faddeev_operator(split).flatten().materialize()
    ref = np.linalg.solve(flat - z * np.eye(15), b)
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


def _transposed_channel_solve(channel, z, b):
    """One Kronecker channel's (H0 + Vα − z)⁻¹ b, its columns moved to the
    pair-first axis order and back by axis transposes."""
    weights = 1.0 / (channel.eigenvalues - z)
    n = len(channel.axes)
    x = b.reshape(channel.axes + (-1,)).transpose(channel.order + (n,))
    for u in channel.bases:
        x = x.reshape(u.shape[0], -1).T @ u
    x = x.reshape(-1, weights.size) * weights.ravel()
    for u in reversed(channel.bases):
        x = u @ x.reshape(-1, u.shape[0]).T
    x = x.reshape(channel.axes + (-1,)).transpose(tuple(np.argsort(channel.order)) + (n,))
    return x.reshape(b.shape)


def _per_chain_solve(sysy, z, b):
    """(A − z)⁻¹ b through the pair sums, one chain and one channel at a time."""
    split, pairs, chains = sysy.split, sysy.pairs, sysy.chains
    pair_rows = [[i for i, c in enumerate(chains) if c.pair == p] for p in pairs]
    chain_others = [[pairs.index(q) for q in c.partition.internal_pairs() if q != c.pair]
                    for c in chains]
    blocks = b.reshape(len(chains), -1)
    sums = _FaddeevShiftedFactor(split, z).solve(
        np.stack([blocks[rows].sum(axis=0) for rows in pair_rows]))
    out = np.empty(blocks.shape, dtype=np.result_type(blocks, sums))
    for rows, channel, v in zip(pair_rows, split.channels[1:], split.potentials):
        rhs = np.stack(
            [blocks[i] - v.apply(sums[chain_others[i]].sum(axis=0)) for i in rows], axis=1)
        out[rows] = _transposed_channel_solve(channel, z, rhs).T
    return out.ravel()


@settings(max_examples=40, deadline=None)
@given(model=fourbody_models(), data=st.data())
def test_batched_pair_sum_solve_is_the_per_chain_loop_bit_for_bit(model, data):
    sysy = YakubovskySystem(split=build_split(model))
    split = sysy.split
    spectra = np.concatenate([np.linalg.eigvalsh(split.total().materialize())]
                             + [split.channel_spectrum(part) for part in (None, *range(6))])
    z = data.draw(st.floats(min_value=float(spectra.min()) - 1.0,
                            max_value=float(spectra.max()) + 1.0), label="z")
    assume(np.min(np.abs(spectra - z)) >= 1e-2)
    b = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed")).standard_normal(
        18 * split.dim)
    got = _PairSumFactor(sysy, z).solve(b)
    assert got.tobytes() == _per_chain_solve(sysy, z, b).tobytes()
    flat = assemble_yakubovsky_operator(sysy).flatten().materialize()
    want = np.linalg.solve(flat - z * np.eye(flat.shape[0]), b)
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


@pytest.fixture
def channel_passes(monkeypatch):
    """The number of channels in every pass of a Kronecker change of basis."""
    passes = []
    real = lattice._KroneckerSolver.solve

    def spy(self, b):
        passes.append(len(self.channels))
        return real(self, b)

    monkeypatch.setattr(lattice._KroneckerSolver, "solve", spy)
    return passes


def test_one_pair_sum_solve_makes_one_pass_per_shared_pair_eigenbasis(tiny4_split,
                                                                      channel_passes):
    split, _ = tiny4_split
    factor = _PairSumFactor(YakubovskySystem(split=split), -28.6)
    factor.solve(np.ones(18 * split.dim))
    assert sorted(channel_passes) == [1, 6]  # H0 for the pair sums, then all six pairs

    # three distinct potentials: the default on four pairs, one each on (1, 2) and (3, 4)
    model = LatticeModel(N=4, L=3, potential=PairPotential.onsite(-4.0),
                         per_pair={(1, 2): PairPotential.onsite(-2.0),
                                   (3, 4): PairPotential.gaussian(-1.0, 1.0)})
    factor = _PairSumFactor(YakubovskySystem(split=build_split(model)), -40.0)
    channel_passes.clear()
    factor.solve(np.ones(18 * model.dimension))
    assert sorted(channel_passes) == [1, 1, 1, 4]


def test_index_tables_are_built_once_per_system(tiny4_split, monkeypatch):
    # once per process, in fact: a fresh cache builds them for the first
    # system, and a second system reads the first one's
    split, _ = tiny4_split
    monkeypatch.setattr(yakubovsky, "_canonical_tables",
                        functools.cache(yakubovsky._canonical_tables.__wrapped__))
    sysy = YakubovskySystem(split=split)
    calls = []
    real = TwoClusterPartition.internal_pairs
    monkeypatch.setattr(TwoClusterPartition, "internal_pairs",
                        lambda self: calls.append(self) or real(self))
    first = _PairSumFactor(sysy, -28.6)
    built = len(calls)
    assert built
    second = _PairSumFactor(YakubovskySystem(split=split), -28.5)
    second.solve(np.ones(18 * split.dim))
    assert len(calls) == built
    assert first.pair_rows is second.pair_rows is sysy.pair_rows


def _per_system_tables():
    """The tables as each system built them for itself before they were shared."""
    pairs, chains = enumerate_pairs(4), enumerate_chains(4)
    pair_rows = np.array([[i for i, c in enumerate(chains) if c.pair == p] for p in pairs])
    others = [[pairs.index(b) for b in c.partition.internal_pairs() if b != c.pair]
              for c in chains]
    return pairs, chains, pair_rows, np.array([row + [6] * (2 - len(row)) for row in others])


@pytest.mark.parametrize("kind", ["lattice", "random"])
def test_four_body_tables_are_shared_read_only_and_change_no_result(tiny4_split, monkeypatch,
                                                                    kind):
    split = tiny4_split[0] if kind == "lattice" else random_split(6, 4, seed=5)
    one, two = YakubovskySystem(split=split), YakubovskySystem(split=random_split(6, 3, seed=1))
    for name, table in zip(("pairs", "chains", "pair_rows", "chain_others"), _per_system_tables()):
        got = getattr(one, name)
        assert got is getattr(two, name)
        if isinstance(table, list):
            assert got == tuple(table)
        else:
            assert got.dtype == table.dtype and np.array_equal(got, table)
    for table in (one.pair_rows, one.chain_others):
        with pytest.raises(ValueError):
            table[0, 0] = 1
    for table in (one.pairs, one.chains):
        with pytest.raises(TypeError):
            table[0] = table[1]
    rng = np.random.default_rng(3)
    comps = YakubovskyComponents(z=-29.0, components=tuple(rng.standard_normal((18, split.dim))))
    b = rng.standard_normal(18 * split.dim)

    def results():
        return (yakubovsky_residual(one, comps).tobytes(),
                _PairSumFactor(one, -29.0).solve(b).tobytes())

    shared = results()
    monkeypatch.setattr(yakubovsky, "_canonical_tables", _per_system_tables)
    assert results() == shared


@pytest.fixture
def factored_dims(monkeypatch):
    """Dimensions of every matrix handed to SuperLU."""
    dims = []

    def spy(kernel):
        def wrapped(mat, *args, **kwargs):
            dims.append(mat.shape[0])
            return kernel(mat, *args, **kwargs)
        return wrapped

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


def test_solve4_at_l6_factors_only_h_minus_z_once_per_shift(factored_dims):
    # N=4 L=6 on-site −8 from the Lanczos auto target: every channel solve and
    # the auxiliary-root check go through the Kronecker channels
    model = LatticeModel(N=4, L=6, potential=PairPotential.onsite(-8.0))
    sysy = YakubovskySystem(split=build_split(model))
    target = ground_state(model).value
    res = solve_fourbody_ground_state(sysy, target)
    assert sysy.split.auxiliary_distance(res.value, range(sysy.split.n)) is None
    assert factored_dims == [model.dimension] * res.factorizations
    e0 = dense_oracle_spectrum(model, 1)[0].value
    assert abs(res.value - e0) <= 1e-8
    assert res.residual_norm <= 1e-10


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
