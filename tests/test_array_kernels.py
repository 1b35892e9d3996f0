"""Whole-array kernels against per-vector transcriptions of the same arithmetic.

The four-body residual, the coupling pattern and the stacked potential multiply
of both shifted solves are each compared with a loop that computes the same
sums in the same order, one chain, pair or potential at a time. The
comparisons are bit for bit.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import fourbody_models, pencil_models
from fykit.blockops import _Resolvent
from fykit.combinatorics import Chain, enumerate_chains
from fykit.faddeev import _FaddeevShiftedFactor, random_split
from fykit.hardcore import assemble_hardcore3_pencil
from fykit.lattice import build_split
from fykit.yakubovsky import (
    YakubovskyComponents,
    YakubovskySystem,
    _PairSumFactor,
    coupling_pattern,
    yakubovsky_residual,
)

def _bits(x) -> bytes:
    return np.ascontiguousarray(x).tobytes()


# ----------------------------------------------------------------------
# per-chain transcriptions


def _per_chain_residual(sys, comps):
    """The four-body residual, one chain at a time with its sums built term by term."""
    z = comps.z
    by_chain = comps.by_chain(sys.chains)
    out = np.empty(18)
    for i, chain in enumerate(sys.chains):
        a, alpha = chain.partition, chain.pair
        psi = by_chain[chain]
        v = sys.potential(alpha)
        same = np.zeros(sys.dim)
        for beta in a.internal_pairs():
            if beta != alpha:
                same = same + by_chain[Chain(a, beta)]
        cross = np.zeros(sys.dim)
        for other, vec in by_chain.items():
            if other.partition != a and other.pair != alpha and a.contains_pair(other.pair):
                cross = cross + vec
        defect = sys.split.h0.apply(psi) + v.apply(psi) - z * psi + v.apply(same) + v.apply(cross)
        out[i] = np.linalg.norm(defect) / max(np.linalg.norm(psi), 1e-300)
    return out


def _per_block_pattern(chains):
    mask = np.zeros((len(chains), len(chains)), dtype=bool)
    for i, row in enumerate(chains):
        for j, col in enumerate(chains):
            if i != j and col.pair != row.pair and row.partition.contains_pair(col.pair):
                mask[i, j] = True
    return mask


def _random_components(sys, rng, complex_z):
    comps = tuple(rng.standard_normal(sys.dim) for _ in range(18))
    z = complex(rng.standard_normal(), rng.standard_normal()) if complex_z else rng.standard_normal()
    return YakubovskyComponents(z=z, components=comps)


@settings(max_examples=40, deadline=None)
@given(model=fourbody_models(), seed=st.integers(0, 2**32 - 1), complex_z=st.booleans())
def test_residual_is_the_per_chain_loop_bit_for_bit(model, seed, complex_z):
    sys = YakubovskySystem(split=build_split(model))
    comps = _random_components(sys, np.random.default_rng(seed), complex_z)
    assert _bits(yakubovsky_residual(sys, comps)) == _bits(_per_chain_residual(sys, comps))


@settings(max_examples=20, deadline=None)
@given(d=st.integers(1, 5), seed=st.integers(0, 2**16), complex_z=st.booleans())
def test_residual_of_a_sparse_split_is_the_per_chain_loop_bit_for_bit(d, seed, complex_z):
    sys = YakubovskySystem(split=random_split(6, d, seed))
    comps = _random_components(sys, np.random.default_rng(seed), complex_z)
    assert _bits(yakubovsky_residual(sys, comps)) == _bits(_per_chain_residual(sys, comps))


@given(order=st.permutations(range(18)))
def test_coupling_pattern_is_the_per_block_loop(order):
    chains = [enumerate_chains(4)[i] for i in order]
    assert np.array_equal(coupling_pattern(chains), _per_block_pattern(chains))


# ----------------------------------------------------------------------
# the shifted solves with one apply per potential


def _per_potential_faddeev_solve(factor, b):
    """``_FaddeevShiftedFactor.solve`` with each potential applied on its own."""
    blocks = np.asarray(b).reshape(factor.split.n, -1)
    psi = blocks.sum(axis=0)
    if factor.core.size:
        psi = psi.astype(np.result_type(psi, factor.z), copy=False)
        psi[factor.core] = blocks[factor.core_rows, factor.core]
        psi[factor.free] = factor.h.solve(psi[factor.free] - factor.coupling @ psi[factor.core])
    else:
        psi = factor.h.solve(psi)
    rhs = np.stack([r - v.apply(psi) for r, v in zip(blocks, factor.split.potentials)], axis=1)
    if factor.core.size:
        rhs[factor.core, factor.core_rows] = 0.0
        mu = factor.h0_op.apply(psi) - factor.z * psi - rhs.sum(axis=1)
        rhs[factor.core, factor.core_rows] = mu[factor.core]
    return factor.h0.solve(rhs).T.reshape(np.shape(b))


def _per_potential_pair_sum_solve(factor, b):
    """``_PairSumFactor.solve`` with each potential applied on its own."""
    blocks = np.asarray(b).reshape(factor.pair_rows.size, -1)
    by_pair = blocks[factor.pair_rows]
    sums = _per_potential_faddeev_solve(factor.faddeev, by_pair.sum(axis=1))
    padded = np.concatenate([sums, np.full((1, sums.shape[1]), -0.0)])
    coupled = padded[factor.others].sum(axis=2)
    rhs = by_pair - np.stack([v.apply(c.T).T for v, c in zip(factor.split.potentials, coupled)])
    out = np.empty(blocks.shape, dtype=rhs.dtype)
    for parts, solver in factor.groups:
        rows = factor.pair_rows[parts]
        out[rows] = solver.solve(rhs[parts].reshape(rows.size, -1).T).T.reshape(rows.shape + (-1,))
    return out.ravel()


def _shift(data, spectra, complex_z):
    """A shift at least 1e-2 from every listed eigenvalue, or off the real axis."""
    spectra = np.real(spectra)
    lo, hi = float(spectra.min()) - 1.0, float(spectra.max()) + 1.0
    z = data.draw(st.floats(min_value=lo, max_value=hi), label="z")
    if complex_z:
        return complex(z, data.draw(st.floats(min_value=0.1, max_value=2.0), label="im"))
    assume(np.min(np.abs(spectra - z)) >= 1e-2)
    return z


@settings(max_examples=40, deadline=None)
@given(model=fourbody_models(), complex_z=st.booleans(), data=st.data())
def test_stacked_potentials_in_both_shifted_solves_are_per_potential_bit_for_bit(
    model, complex_z, data
):
    sys = YakubovskySystem(split=build_split(model))
    split = sys.split
    spectra = np.concatenate([np.linalg.eigvalsh(split.total().materialize())]
                             + [split.channel_spectrum(part) for part in (None, *range(6))])
    z = _shift(data, spectra, complex_z)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    stack = rng.standard_normal((6, 3, split.dim))
    assert _bits(split.potential_rows_apply(stack)) == _bits(
        np.stack([v.apply(r.T).T for v, r in zip(split.potentials, stack)]))
    factor = _PairSumFactor(sys, z)
    b = rng.standard_normal(18 * split.dim)
    assert _bits(factor.solve(b)) == _bits(_per_potential_pair_sum_solve(factor, b))
    b = rng.standard_normal(6 * split.dim)
    assert _bits(factor.faddeev.solve(b)) == _bits(_per_potential_faddeev_solve(factor.faddeev, b))


@settings(max_examples=20, deadline=None)
@given(d=st.integers(1, 5), seed=st.integers(0, 2**16), complex_z=st.booleans(), data=st.data())
def test_sparse_potentials_in_both_shifted_solves_are_per_potential_bit_for_bit(
    d, seed, complex_z, data
):
    sys = YakubovskySystem(split=random_split(6, d, seed))
    split = sys.split
    assert split._diagonal_potentials is None  # the per-potential side of the helper
    spectra = np.concatenate([np.linalg.eigvalsh(split.total().materialize())]
                             + [split.channel_spectrum(part) for part in (None, *range(6))])
    z = _shift(data, spectra, complex_z)
    b = np.random.default_rng(seed).standard_normal(18 * d)
    factor = _PairSumFactor(sys, z)
    assert _bits(factor.solve(b)) == _bits(_per_potential_pair_sum_solve(factor, b))


@settings(max_examples=30, deadline=None)
@given(model=pencil_models(), surface_only=st.booleans(), complex_z=st.booleans(),
       data=st.data())
def test_stacked_potentials_on_the_hardcore_path_are_per_potential_bit_for_bit(
    model, surface_only, complex_z, data
):
    pencil = assemble_hardcore3_pencil(model, surface_only)
    split, owner = pencil.split, pencil.owner
    free = owner < 0
    assume(free.any())
    h = split.total().materialize()
    spectra = np.concatenate([np.linalg.eigvalsh(h[np.ix_(free, free)]), split.channel_spectrum()])
    z = _shift(data, spectra, complex_z)
    factor = _FaddeevShiftedFactor(split, z, owner=owner)
    b = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed")).standard_normal(
        3 * split.dim)
    got = factor.solve(b)
    assert _bits(got) == _bits(_per_potential_faddeev_solve(factor, b))
    shifted = pencil.a.flatten().materialize() - z * pencil.b.flatten().materialize()
    assert np.linalg.norm(shifted @ got - b) <= 1e-12 * (
        np.linalg.norm(shifted, 2) * np.linalg.norm(got) + np.linalg.norm(b))


# ----------------------------------------------------------------------
# the resolvent's right-hand-side layout


@pytest.mark.parametrize("z, positive", [(-28.4, True), (5.123, False)])
def test_resolvent_solve_does_not_depend_on_the_memory_order(tiny4_split, z, positive):
    split, _ = tiny4_split
    resolvent = _Resolvent(split.h0, z)
    assert (resolvent.positive is not None) == positive
    cols = np.random.default_rng(7).standard_normal((split.dim, 3))
    fortran = np.asfortranarray(cols)
    assert not fortran.flags.c_contiguous
    assert _bits(resolvent.solve(fortran)) == _bits(resolvent.solve(cols))
