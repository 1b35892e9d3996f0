"""Hard-core constraint surgery: pencil assembly, oracle, physicality filters."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import pencil_models
from fykit import blockops, lattice
from fykit.combinatorics import Pair
from fykit.errors import InvalidInputError
from fykit.faddeev import (
    FewBodySplit,
    _FaddeevShiftedFactor,
    assemble_faddeev_operator,
    faddeev_components,
)
from fykit.hardcore import (
    Hardcore4Evaluator,
    assemble_hardcore3_pencil,
    core_region,
    restricted_oracle,
    restricted_space,
    solve_hardcore3,
)
from fykit.lattice import (
    KroneckerChannel,
    LatticeModel,
    PairPotential,
    dense_oracle_spectrum,
    h0_spectrum,
    hamiltonian_terms,
    separations,
)
from fykit.yakubovsky import (
    YakubovskyComponents,
    YakubovskySystem,
    yakubovsky_components,
)

# frozen from the restricted-space oracle on the tiny3 preset
TINY3_GS_CORE0 = 1.2388954179343479
TINY3_GS_CORE1 = 4.287616334749442
TINY3_GS_NOCORE = -7.464396364388277


def with_core(model, c):
    return dataclasses.replace(model, core_radius=c)


def test_core_region_counts(tiny3):
    m0 = with_core(tiny3, 0)
    m1 = with_core(tiny3, 1)
    for model, want_per_pair in ((m0, 36), (m1, 96)):
        for pair in model.pairs():
            region = core_region(model, pair)
            assert region.dtype == np.int64 and region.shape[0] == want_per_pair
            r = separations(model, pair)
            assert np.array_equal(region, np.nonzero(r <= model.core_radius)[0])
    empty = core_region(tiny3, Pair.of(1, 2))
    assert empty.shape[0] == 0


def test_restricted_space_dimensions(tiny3):
    assert restricted_space(tiny3).shape[0] == 216
    assert restricted_space(with_core(tiny3, 0)).shape[0] == 120
    assert restricted_space(with_core(tiny3, 1)).shape[0] == 24


def test_restricted_oracle_matches_frozen_values(tiny3):
    gs0 = restricted_oracle(with_core(tiny3, 0), 1)[0]
    gs1 = restricted_oracle(with_core(tiny3, 1), 1)[0]
    assert gs0.value == pytest.approx(TINY3_GS_CORE0, abs=1e-10)
    assert gs1.value == pytest.approx(TINY3_GS_CORE1, abs=1e-10)
    assert gs0.residual_norm <= 1e-10
    assert gs1.residual_norm <= 1e-10


def test_restricted_oracle_embeds_vectors(tiny3):
    model = with_core(tiny3, 0)
    gs = restricted_oracle(model, 1)[0]
    assert gs.vector.shape[0] == model.dimension
    kept = restricted_space(model)
    mask = np.ones(model.dimension, dtype=bool)
    mask[kept] = False
    assert np.all(gs.vector[mask] == 0.0)
    assert gs.method == "restricted-eigh"


def test_restricted_oracle_without_core_is_dense_oracle(tiny3):
    a = restricted_oracle(tiny3, 2)
    b = dense_oracle_spectrum(tiny3, 2)
    assert a[0].value == pytest.approx(b[0].value, abs=1e-12)
    assert a[1].value == pytest.approx(b[1].value, abs=1e-12)


def test_restricted_oracle_rejects_empty_space():
    # four particles on three sites cannot all sit apart
    model = LatticeModel(N=4, L=3, potential=PairPotential.onsite(-1.0), core_radius=0)
    with pytest.raises(InvalidInputError):
        restricted_oracle(model, 1)


def test_pencil_without_core_degenerates(tiny3):
    pencil = assemble_hardcore3_pencil(tiny3)
    h0, pairs, pots = hamiltonian_terms(tiny3)
    split = FewBodySplit(h0=h0, potentials=tuple(pots))
    want = assemble_faddeev_operator(split).flatten().materialize()
    assert np.allclose(pencil.a.flatten().materialize(), want)
    b = pencil.b.flatten().materialize()
    assert np.allclose(b, np.eye(b.shape[0]))
    assert np.all(pencil.owner == -1)


def test_pencil_owner_rows_and_mass_zeros(tiny3):
    model = with_core(tiny3, 0)
    pencil = assemble_hardcore3_pencil(model)
    d = model.dimension
    a = pencil.a.flatten().materialize()
    b = np.diag(pencil.b.flatten().materialize())
    # one constraint per core site, on row i·d + s of its owning pair i
    owned_sites = np.flatnonzero(pencil.owner >= 0)
    assert owned_sites.size > 0
    assert np.array_equal(owned_sites, np.setdiff1d(np.arange(d), restricted_space(model)))
    replaced = pencil.owner[owned_sites] * d + owned_sites
    for site, row in zip(owned_sites, replaced):
        # the surgered row encodes Σβ ψβ(site) = 0 with unit weights
        want = np.zeros(3 * d)
        for block in range(3):
            want[block * d + site] = 1.0
        assert np.array_equal(a[row], want)
        assert b[row] == 0.0
    # unreplaced rows keep unit mass
    free = np.setdiff1d(np.arange(3 * d), replaced)
    for row in free:
        if pencil.owner[row % d] >= 0:
            continue  # duplicate-core rows of non-owner components also carry zero mass
        assert b[row] in (0.0, 1.0)


def test_solve_hardcore3_matches_restricted_oracle(tiny3):
    for c, want in ((None, TINY3_GS_NOCORE), (0, TINY3_GS_CORE0), (1, TINY3_GS_CORE1)):
        result = solve_hardcore3(with_core(tiny3, c))
        assert np.real(result.eigen.value) == pytest.approx(want, abs=1e-10)
        assert result.physical
        assert result.core_vanishing <= 1e-10
        assert result.restricted_residual <= 1e-8


@pytest.mark.parametrize("core", [None, 1])
def test_solve_hardcore3_factors_the_sparse_pencil(monkeypatch, core):
    # each shift factors only H − z on the unconstrained sites, sparse and at
    # most d wide (H0 − z goes through the Kronecker channel), so neither the
    # 3d pencil nor an n×n array is ever factored
    factored = []
    real_splu = blockops._splu

    def splu_spy(mat):
        factored.append(mat.shape[0])
        return real_splu(mat)

    monkeypatch.setattr(blockops, "_splu", splu_spy)
    model = LatticeModel(N=3, L=8, potential=PairPotential("gaussian", (-4.0, 1.0)),
                         core_radius=core)
    n = 3 * model.dimension
    tracemalloc.start()
    try:
        result = solve_hardcore3(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert factored and max(factored) <= model.dimension
    assert result.physical
    assert peak < 0.5 * n * n * 8


def test_solve_hardcore3_factors_the_pencil_on_the_free_spectrum():
    # on-site potential zeroed by core 0: free fermions, whose E0 = 5 − √3
    # lies in σ(H0), where the reduced solve loses backward stability; the
    # σ(H0) guard factors A − zB whole there instead
    model = LatticeModel(N=3, L=5, boundary="box", potential=PairPotential.onsite(-3.0),
                         core_radius=0)
    result = solve_hardcore3(model)
    assert result.physical
    assert result.eigen.value == pytest.approx(3.2679491924311215, abs=1e-10)
    assert result.ground_state.value == pytest.approx(3.2679491924311215, abs=1e-10)


def _dense_pencil(model, surface_only):
    pencil = assemble_hardcore3_pencil(model, surface_only)
    split, owner = pencil.split, pencil.owner
    a = pencil.a.flatten().materialize()
    b = pencil.b.flatten().materialize()
    h = split.total().materialize()
    free = owner < 0
    sigma_rr = np.linalg.eigvalsh(h[np.ix_(free, free)]) if free.any() else np.empty(0)
    return pencil, split, owner, a, b, np.concatenate([sigma_rr, h0_spectrum(model)])


@settings(max_examples=40, deadline=None)
@given(model=pencil_models(), surface_only=st.booleans(), data=st.data())
def test_reduced_pencil_solve_matches_a_dense_solve(model, surface_only, data):
    pencil, split, owner, a, b, union = _dense_pencil(model, surface_only)
    assume(np.any(owner < 0))  # no unconstrained site: solve_hardcore3 refuses first
    z = data.draw(st.floats(min_value=float(union.min()) - 1.0,
                            max_value=float(union.max()) + 1.0), label="z")
    assume(np.min(np.abs(union - z)) >= 1e-3)
    rhs = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed")).standard_normal(
        a.shape[0])
    got = _FaddeevShiftedFactor(split, z, owner=owner).solve(rhs)
    shifted = a - z * b
    want = np.linalg.solve(shifted, rhs)
    # both solves are backward stable, so they differ by about cond·u; the
    # defective free-fermion roots make cond large even 1e-3 off the spectrum
    assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.cond(shifted) * 1e-4) * (
        np.linalg.norm(want))
    backward = np.linalg.norm(shifted @ got - rhs) / (
        np.linalg.norm(shifted, 2) * np.linalg.norm(got) + np.linalg.norm(rhs))
    assert backward <= 1e-14


@settings(max_examples=40, deadline=None)
@given(model=pencil_models(), surface_only=st.booleans(), data=st.data())
def test_one_pass_pencil_and_lazy_channels_match_their_references(model, surface_only, data):
    pencil = assemble_hardcore3_pencil(model, surface_only)
    split, owner = pencil.split, pencil.owner
    # each block row i of A is K_i·F + (I − K_i), K_i zero on the sites i owns
    want = []
    for i, row in enumerate(assemble_faddeev_operator(split).entries):
        keep = (owner != i).astype(np.float64)
        want.append([keep[:, None] * f.materialize() + np.diag(1.0 - keep) for f in row])
    assert pencil.a.flatten().materialize().tobytes() == np.block(want).tobytes()
    # the split's channels defer the pair factors' eigh; eager ones hold them from the start
    one = lattice._one_particle_eigh(model)
    eager = [KroneckerChannel(model, one)]
    for pair in model.pairs():
        two = lattice._two_particle_eigh(model, model.potential_for(pair))
        eager.append(KroneckerChannel(model, one, pair, lambda two=two: two))
    b = np.random.default_rng(model.dimension).standard_normal((model.dimension, 2))
    for lazy, ref in zip(split.channels, eager):
        spectrum = ref.spectrum()
        assert lazy.spectrum().tobytes() == spectrum.tobytes()
        z = float(spectrum[0]) - data.draw(st.floats(min_value=0.1, max_value=2.0), label="gap")
        assert lazy.solver(z).solve(b).tobytes() == ref.solver(z).solve(b).tobytes()


@settings(max_examples=60, deadline=None)
@given(model=pencil_models())
def test_solve_hardcore3_at_the_auto_target_finds_the_restricted_ground_state(model):
    assume(restricted_space(model).size)
    oracle = restricted_oracle(model, 1)[0].value
    gap = np.min(np.abs(h0_spectrum(model) - oracle))
    # an E0 in σ(H0) is a defective pencil root (free hard-core particles),
    # which the inverse iteration need not reach
    assume(gap > 1e-6)
    result = solve_hardcore3(model)
    # a root accepted as physical is always E0; a nearly free model, whose E0
    # lies within about 1e-4 relative of a defective root, may land off it
    # but is then flagged
    assert result.physical or gap <= 1e-3 * (1.0 + abs(oracle))
    if result.physical:
        assert abs(np.real(result.eigen.value) - oracle) <= 1e-8


@pytest.mark.parametrize("boundary, L, core, pot, surface_only, tol", [
    ("box", 4, None, PairPotential.gaussian(-4.0, 1.0), False, 1e-12),
    ("ring", 4, 0, PairPotential.gaussian(-4.0, 1.0), False, 1e-12),
    ("box", 4, 1, PairPotential.onsite(-3.0), False, 1e-12),
    ("ring", 4, 1, PairPotential.onsite(-3.0), True, 1e-6),
    # free fermions: defective roots, perturbed to about u^(1/3)
    ("box", 5, 0, PairPotential.onsite(-3.0), False, 1e-6),
])
def test_pencil_spectrum_is_sigma_h_rr_union_sigma_h0(boundary, L, core, pot, surface_only, tol):
    model = LatticeModel(N=3, L=L, boundary=boundary, potential=pot, core_radius=core)
    pencil, _, _, a, b, union = _dense_pencil(model, surface_only)
    alpha, beta = scipy.linalg.eigvals(a, b, homogeneous_eigvals=True)
    finite = np.abs(beta) > 1e-8 * np.abs(alpha)
    values = alpha[finite] / beta[finite]
    # one infinite root per constraint row; the finite ones are the union, as a set
    assert finite.sum() == a.shape[0] - np.count_nonzero(pencil.owner >= 0)
    assert max(np.min(np.abs(union - v)) for v in values) <= tol
    assert max(np.min(np.abs(values - u)) for u in union) <= tol


def test_hardcore_ground_state_is_monotone_in_core(tiny3):
    energies = [
        np.real(solve_hardcore3(with_core(tiny3, c)).eigen.value) for c in (None, 0, 1)
    ]
    assert energies[0] <= energies[1] <= energies[2]


def test_solver_flags_auxiliary_roots(tiny3):
    # shifting far below the physical ground state lands on a free-kinetic
    # pencil root; the filters must refuse it, as data and without a warning
    model = with_core(tiny3, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = solve_hardcore3(model, target=0.5)
    assert not result.physical
    assert result.core_vanishing > 1e-2


def test_surface_only_variant_still_physical(tiny3):
    result = solve_hardcore3(with_core(tiny3, 1), surface_only=True)
    assert result.physical
    assert np.real(result.eigen.value) == pytest.approx(TINY3_GS_CORE1, abs=1e-8)


def test_hardcore4_trivial_cases_are_exactly_zero(tiny4, tiny4_split):
    split, pairs = tiny4_split
    sys = YakubovskySystem(split=split)
    evaluator = Hardcore4Evaluator(sys, tiny4)
    zeros = tuple(np.zeros(tiny4.dimension) for _ in range(18))
    rep = evaluator.evaluate(YakubovskyComponents(z=0.0, components=zeros))
    assert rep.site_count == 0
    assert rep.max_defect == 0.0
    assert rep.relative_defect == 0.0
    assert np.all(rep.per_chain == 0.0)


def test_hardcore4_defect_is_finite_and_deterministic():
    model = LatticeModel(
        N=4, L=4, t=1.0, potential=PairPotential.gaussian(-5.0, 1.2), core_radius=0
    )
    h0, pairs, pots = hamiltonian_terms(model)
    split = FewBodySplit(h0=h0, potentials=tuple(pots))
    sys = YakubovskySystem(split=split)
    gs = restricted_oracle(model, 1)[0]
    fc = faddeev_components(split, gs.value, gs.vector, eigenpair_tol=np.inf)
    yc = yakubovsky_components(sys, gs.value, fc)
    evaluator = Hardcore4Evaluator(sys, model)
    rep1 = evaluator.evaluate(yc)
    rep2 = evaluator.evaluate(yc)
    assert rep1.site_count == 18 * 64
    assert np.isfinite(rep1.max_defect)
    assert rep1.max_defect > 0.0  # a genuine measurement, not an identity
    assert rep1.max_defect == rep2.max_defect
    assert np.array_equal(rep1.per_chain, rep2.per_chain)


def test_hardcore4_evaluator_validates_model(tiny3, tiny4_split):
    split, pairs = tiny4_split
    sys = YakubovskySystem(split=split)
    with pytest.raises(InvalidInputError):
        Hardcore4Evaluator(sys, tiny3)
