"""Configuration-space builders: kinetic terms, potentials, oracle, relabeling."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from conftest import POTENTIALS
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fykit.errors import InvalidInputError, ShiftSingularError, TooLargeError
from fykit.combinatorics import Pair, all_permutations, permute_pair
from fykit.lattice import (
    LatticeModel,
    PairPotential,
    build_h0,
    build_hamiltonian,
    build_pair_potential,
    build_permutation,
    coordinate_table,
    dense_oracle_spectrum,
    h0_spectrum,
    hamiltonian_terms,
    kronecker_channels,
    separations,
)

# ground-state energy of the tiny3 preset, frozen from the dense oracle
TINY3_GS = -7.464396364388277
# ground-state energy of the tiny4 preset, frozen from the dense oracle
TINY4_GS = -28.448373683564892


def test_potential_kinds_evaluate():
    r = np.arange(5)
    onsite = PairPotential.onsite(-3.0)
    assert np.allclose(onsite.evaluate(r), [-3.0, 0, 0, 0, 0])
    square = PairPotential.square(-2.0, 1.5)
    assert np.allclose(square.evaluate(r), [-2.0, -2.0, 0, 0, 0])
    gauss = PairPotential.gaussian(-1.0, 2.0)
    assert np.allclose(gauss.evaluate(r), -np.exp(-((r / 2.0) ** 2)))
    table = PairPotential.table([-5.0, -1.0])
    assert np.allclose(table.evaluate(r), [-5.0, -1.0, 0, 0, 0])


def test_potential_validation():
    with pytest.raises(InvalidInputError):
        PairPotential("polynomial", (1.0,))
    with pytest.raises(InvalidInputError):
        PairPotential.onsite(np.inf)
    with pytest.raises(InvalidInputError):
        PairPotential("gaussian", (-1.0,))
    with pytest.raises(InvalidInputError):
        PairPotential.gaussian(-1.0, 0.0)
    with pytest.raises(InvalidInputError):
        PairPotential.table([])


def test_model_validation():
    good = LatticeModel(N=2, L=3)
    assert good.dimension == 9
    with pytest.raises(InvalidInputError):
        LatticeModel(N=5, L=3)
    with pytest.raises(InvalidInputError):
        LatticeModel(N=2, L=1)
    with pytest.raises(InvalidInputError):
        LatticeModel(N=2, L=3, boundary="torus")
    with pytest.raises(InvalidInputError):
        LatticeModel(N=2, L=3, t=-1.0)
    with pytest.raises(InvalidInputError):
        LatticeModel(N=2, L=3, core_radius=3)
    with pytest.raises(InvalidInputError):
        LatticeModel(N=2, L=3, core_radius=-1)
    with pytest.raises(TooLargeError):
        LatticeModel(N=4, L=13)


def test_coordinate_table_layout():
    model = LatticeModel(N=2, L=3)
    coords = coordinate_table(model)
    assert coords.shape == (2, 9)
    # index n = x1*L + x2: particle 1 most significant
    assert np.array_equal(coords[0], np.repeat(np.arange(3), 3))
    assert np.array_equal(coords[1], np.tile(np.arange(3), 3))


def test_separations_box_and_ring():
    box = LatticeModel(N=2, L=5, boundary="box")
    ring = LatticeModel(N=2, L=5, boundary="ring")
    pair = Pair.of(1, 2)
    coords = coordinate_table(box)
    raw = np.abs(coords[0] - coords[1])
    assert np.array_equal(separations(box, pair), raw)
    wrapped = np.minimum(raw, 5 - raw)
    assert np.array_equal(separations(ring, pair), wrapped)
    assert separations(ring, pair).max() == 2


def test_one_particle_kinetic_box_matrix():
    model = LatticeModel(N=1, L=4, t=1.0)
    h0 = build_h0(model).materialize()
    want = np.array(
        [
            [2.0, -1.0, 0.0, 0.0],
            [-1.0, 2.0, -1.0, 0.0],
            [0.0, -1.0, 2.0, -1.0],
            [0.0, 0.0, -1.0, 2.0],
        ]
    )
    assert np.allclose(h0, want)


def test_one_particle_kinetic_ring_wraps():
    model = LatticeModel(N=1, L=4, boundary="ring", t=2.0)
    h0 = build_h0(model).materialize()
    assert np.allclose(np.diag(h0), 4.0)
    assert h0[0, 3] == -2.0 and h0[3, 0] == -2.0
    # L=2 ring must not double the single bond
    tiny = LatticeModel(N=1, L=2, boundary="ring", t=1.0)
    h2 = build_h0(tiny).materialize()
    assert np.allclose(h2, [[2.0, -1.0], [-1.0, 2.0]])


def test_kinetic_kronecker_sum_spectrum():
    one = LatticeModel(N=1, L=4, t=0.7)
    two = LatticeModel(N=2, L=4, t=0.7)
    lam = np.linalg.eigvalsh(build_h0(one).materialize())
    want = np.sort((lam[:, None] + lam[None, :]).ravel())
    got = sla.eigvalsh(build_h0(two).materialize())
    assert np.allclose(got, want, atol=1e-12)


def _kronecker_sum_h0(model):
    """H0 as N Kronecker products I ⊗ … ⊗ k1 ⊗ … ⊗ I summed in CSR, the
    reference build_h0's stride arithmetic must reproduce byte for byte."""
    L, N, t = model.L, model.N, model.t
    ones = np.ones(L - 1)
    hop = sp.diags([ones, ones], offsets=[-1, 1], shape=(L, L), format="lil")
    if model.boundary == "ring" and L > 2:
        hop[0, L - 1] = 1.0
        hop[L - 1, 0] = 1.0
    k1 = (t * (2.0 * sp.identity(L) - hop)).tocsr()
    total = sp.csr_matrix((model.dimension, model.dimension))
    for i in range(N):
        left = sp.identity(L ** i, format="csr")
        right = sp.identity(L ** (N - i - 1), format="csr")
        total = total + sp.kron(sp.kron(left, k1), right, format="csr")
    return total


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    size=st.integers(min_value=2, max_value=12),
    boundary=st.sampled_from(["box", "ring"]),
    t=st.floats(min_value=0.0, max_value=3.0),
)
@example(n=3, size=5, boundary="ring", t=0.0)
@example(n=4, size=2, boundary="ring", t=0.7)
def test_build_h0_is_the_kronecker_sum(n, size, boundary, t):
    L = min(size, int(20736 ** (1.0 / n) + 1e-9))
    model = LatticeModel(N=n, L=L, boundary=boundary, t=t)
    got, want = build_h0(model).to_sparse(), _kronecker_sum_h0(model)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    if t == 0.0:
        assert got.nnz == 0  # exact zeros are not stored


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    size=st.integers(min_value=2, max_value=9),
    boundary=st.sampled_from(["box", "ring"]),
    t=st.floats(min_value=0.0, max_value=3.0),
)
def test_h0_spectrum_is_the_dense_spectrum(n, size, boundary, t):
    # keep L^N at most 512 so the dense reference stays cheap
    L = min(size, int(round(512 ** (1.0 / n))))
    model = LatticeModel(N=n, L=L, boundary=boundary, t=t)
    want = sla.eigvalsh(build_h0(model).materialize())
    got = h0_spectrum(model)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))


@st.composite
def channel_models(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    L = draw(st.integers(min_value=2, max_value={2: 12, 3: 6, 4: 4}[n]))
    overrides = st.fixed_dictionaries({(draw(st.integers(1, n - 1)), n): POTENTIALS})
    return LatticeModel(
        N=n,
        L=L,
        boundary=draw(st.sampled_from(["box", "ring"])),
        t=draw(st.floats(min_value=0.1, max_value=2.0)),
        potential=draw(POTENTIALS),
        core_radius=draw(st.sampled_from([c for c in (None, 0, 1) if c is None or c < L])),
        per_pair=draw(st.one_of(st.none(), overrides)),
    )


@settings(max_examples=60, deadline=None)
@given(model=channel_models(), data=st.data())
def test_kronecker_channels_match_the_assembled_operators(model, data):
    h0, _, pots = hamiltonian_terms(model)
    channels = kronecker_channels(model)
    assert len(channels) == 1 + len(pots)
    d = model.dimension
    columns = data.draw(st.sampled_from([(), (1,), (3,)]), label="columns")
    b = np.random.default_rng(d).standard_normal((d,) + columns)
    for channel, op in zip(channels, [h0] + [h0 + v for v in pots]):
        want = sla.eigvalsh(op.materialize())
        got = channel.spectrum()
        assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))
        # a real shift off the spectrum, so both solves are well conditioned
        z = data.draw(st.floats(min_value=want[0] - 2.0, max_value=want[-1] + 2.0), label="z")
        assume(np.min(np.abs(want - z)) >= 1e-3 * (1.0 + np.max(np.abs(want))))
        ref = spla.spsolve(sp.csc_matrix(op.to_sparse() - z * sp.identity(d)), b)
        x = channel.solver(z).solve(b)
        assert x.shape == b.shape
        assert np.linalg.norm(x - np.reshape(ref, b.shape)) <= 1e-12 * np.linalg.norm(ref)


def test_kronecker_channel_refuses_a_shift_on_its_spectrum(tiny3):
    channel = kronecker_channels(tiny3)[1]
    with pytest.raises(ShiftSingularError):
        channel.solver(channel.spectrum()[3])


def test_pair_potential_is_diagonal_and_symmetric_under_swap():
    model = LatticeModel(N=2, L=4, potential=PairPotential.gaussian(-2.0, 1.5))
    pot = build_pair_potential(model, Pair.of(1, 2)).materialize()
    assert np.allclose(pot, np.diag(np.diag(pot)))
    r = separations(model, Pair.of(1, 2))
    assert np.allclose(np.diag(pot), model.potential.evaluate(r))


def test_core_zeroes_potential_inside_radius():
    base = PairPotential.gaussian(-4.0, 2.0)
    model = LatticeModel(N=2, L=5, potential=base, core_radius=1)
    diag = np.diag(build_pair_potential(model, Pair.of(1, 2)).materialize())
    r = separations(model, Pair.of(1, 2))
    assert np.all(diag[r <= 1] == 0.0)
    assert np.allclose(diag[r > 1], base.evaluate(r[r > 1]))


def test_per_pair_override():
    strong = PairPotential.onsite(-9.0)
    model = LatticeModel(
        N=3, L=3, potential=PairPotential.onsite(-1.0), per_pair={(1, 2): strong}
    )
    assert model.potential_for(Pair.of(1, 2)) is strong
    assert model.potential_for(Pair.of(1, 3)).params == (-1.0,)
    d12 = np.diag(build_pair_potential(model, Pair.of(1, 2)).materialize())
    assert d12.min() == -9.0


def test_hamiltonian_terms_compose():
    model = LatticeModel(N=2, L=4, potential=PairPotential.onsite(-3.0))
    h0, pairs, pots = hamiltonian_terms(model)
    assert [str(p) for p in pairs] == ["12"]
    total = build_hamiltonian(model).materialize()
    assert np.allclose(total, h0.materialize() + pots[0].materialize())


def test_dense_oracle_self_certifies(tiny3):
    results = dense_oracle_spectrum(tiny3, 3)
    assert len(results) == 3
    for r in results:
        assert r.residual_norm <= 1e-10
        assert r.method == "dense-eigh"
    assert results[0].value == pytest.approx(TINY3_GS, abs=1e-9)
    assert results[0].value <= results[1].value <= results[2].value


def test_dense_oracle_tiny4_ground_state(tiny4):
    gs = dense_oracle_spectrum(tiny4, 1)[0]
    assert gs.value == pytest.approx(TINY4_GS, abs=1e-9)
    assert gs.residual_norm <= 1e-10


def _permutation_matrix(u):
    """The 0/1 matrix of U, whose row n reads entry index_map[n]."""
    d = u.dim
    return sp.csr_matrix((np.ones(d), (np.arange(d), u.index_map)), shape=(d, d))


def test_permutation_operators_form_a_group():
    model = LatticeModel(N=3, L=3)
    perms = all_permutations(3)
    ops = {p: build_permutation(model, p) for p in perms}
    swap12 = ops[(2, 1, 3)]
    cycle = ops[(2, 3, 1)]
    # image-tuple composition: (swap12 after cycle)(i)
    want = tuple(swap12.perm[cycle.perm[i - 1] - 1] for i in (1, 2, 3))
    # the operators satisfy the same group law, U_swap12 U_cycle = U_want
    x = np.random.default_rng(4).standard_normal(model.dimension)
    assert np.array_equal(swap12.apply(cycle.apply(x)), ops[want].apply(x))
    product = _permutation_matrix(swap12) @ _permutation_matrix(cycle)
    assert (product != _permutation_matrix(ops[want])).nnz == 0


def test_permutation_acts_on_configurations():
    model = LatticeModel(N=2, L=3)
    coords = coordinate_table(model)
    u = build_permutation(model, (2, 1))
    rng = np.random.default_rng(2)
    x = rng.standard_normal(model.dimension)
    ux = u.apply(x)
    # (U x)(x1, x2) = x(x2, x1)
    for n in range(model.dimension):
        x1, x2 = coords[0][n], coords[1][n]
        m = x2 * 3 + x1
        assert ux[n] == x[m]


def test_permutation_conjugates_pair_potentials():
    model = LatticeModel(N=3, L=3, potential=PairPotential.gaussian(-1.0, 1.0))
    u = build_permutation(model, (2, 3, 1))
    v12 = build_pair_potential(model, Pair.of(1, 2)).materialize()
    v23 = build_pair_potential(model, Pair.of(2, 3)).materialize()
    um = _permutation_matrix(u).toarray()
    # relabeling 1->2, 2->3 sends the (1,2) interaction to (2,3)
    assert np.allclose(um @ v12 @ um.T, v23)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=4),
    size=st.integers(min_value=2, max_value=8),
    boundary=st.sampled_from(["box", "ring"]),
    t=st.floats(min_value=0.0, max_value=3.0),
    potential=POTENTIALS,
    core=st.sampled_from([None, 0, 1]),
    perm=st.permutations(range(1, 5)),
)
def test_relabelings_permute_the_pair_potentials_and_commute_with_h0(
    n, size, boundary, t, potential, core, perm
):
    # U_π Vα U_π⁻¹ = V_π(α) and U_π H0 = H0 U_π, exactly, on identical models
    L = min(size, {2: 8, 3: 6, 4: 4}[n])
    assume(core is None or core < L)
    model = LatticeModel(N=n, L=L, boundary=boundary, t=t, potential=potential,
                         core_radius=core)
    perm = tuple(p for p in perm if p <= n)
    u = _permutation_matrix(build_permutation(model, perm))
    h0, pairs, pots = hamiltonian_terms(model)
    by_pair = dict(zip(pairs, pots))
    for pair, v in by_pair.items():
        image = by_pair[permute_pair(perm, pair)].to_sparse()
        assert (u @ v.to_sparse() @ u.T != image).nnz == 0
    h0 = h0.to_sparse()
    assert (u @ h0 != h0 @ u).nnz == 0
