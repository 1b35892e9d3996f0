"""Operator containers, dense kernels, SuperLU solves, shift-invert, spectrum matching."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import structural_rank
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fykit import blockops, lattice
from fykit.blockops import (
    BlockOperator,
    Operator,
    _Resolvent,
    _splu,
    dense_eigenvalues,
    dump_matrix_text,
    linear_solve,
    match_into,
    shift_invert_eigenpair,
)
from fykit.errors import (
    InvalidInputError,
    ShiftSingularError,
    ChannelEnergyError,
    SingularMatrixError,
    SolverFailureError,
    SpuriousEnergyError,
    TooLargeError,
)

from fykit.faddeev import (
    FaddeevComponents,
    FewBodySplit,
    assemble_faddeev_operator,
    faddeev_components,
    faddeev_integral_map,
    lippmann_schwinger_residual,
    random_split,
)
from fykit.hardcore import assemble_hardcore3_pencil
from fykit.lattice import (
    LatticeModel,
    PairPotential,
    build_hamiltonian,
    build_split,
    hamiltonian_terms,
    kronecker_channels,
)
from fykit.yakubovsky import YakubovskySystem, yakubovsky_components

from conftest import POTENTIALS, random_symmetric


def test_operator_kinds_agree_on_apply():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 5))
    d = rng.standard_normal(5)
    x = rng.standard_normal(5)
    for op, m in ((Operator.sparse(a), a), (Operator.sparse(sp.csr_matrix(a)), a),
                  (Operator.diagonal(d), np.diag(d)), (Operator.sparse(np.diag(d)), np.diag(d))):
        assert np.allclose(op.apply(x), m @ x)
        assert np.array_equal(op.materialize(), m)


@pytest.mark.parametrize("bad", [np.array([["a", "b"], ["c", "d"]]), np.eye(2, dtype=bool),
                                 np.zeros((2, 3)), np.zeros((2, 2, 2)), np.zeros(3)])
def test_sparse_operator_rejects_non_numeric_or_non_square_arrays(bad):
    with pytest.raises(InvalidInputError):
        Operator.sparse(bad)


@pytest.mark.parametrize("entries, dtype", [(np.arange(4).reshape(2, 2), np.float64),
                                            ([[1, 0], [0, 2]], np.float64),
                                            (np.eye(2, dtype=np.complex64), np.complex128)])
def test_sparse_operator_stores_arrays_as_double_precision(entries, dtype):
    op = Operator.sparse(entries)
    assert op.to_sparse().dtype == dtype
    assert np.array_equal(op.materialize(), np.asarray(entries))


def test_diagonal_operator():
    d = np.array([1.0, -2.0, 3.0])
    op = Operator.diagonal(d)
    assert np.allclose(op.apply(np.ones(3)), d)
    assert np.allclose(op.materialize(), np.diag(d))
    assert np.allclose(op.diagonal_data, d)


def test_operator_arithmetic_matches_matrices():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4))
    d = rng.standard_normal(4)
    combo = Operator.sparse(a) + Operator.diagonal(d) + Operator.sparse(b)
    want = a + np.diag(d) + b
    assert combo.kind == "sparse"
    assert np.allclose(combo.materialize(), want)
    assert (Operator.diagonal(d) + Operator.diagonal(np.ones(4))).kind == "diagonal"


def test_operator_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        Operator.sparse(np.eye(3)) + Operator.sparse(np.eye(4))
    with pytest.raises(InvalidInputError):
        Operator.sparse(np.eye(3)).apply(np.ones(4))


def test_block_operator_flatten_matches_manual_assembly():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    grid = [
        [Operator.sparse(a), Operator.sparse(b)],
        [None, Operator.diagonal(np.ones(3))],
    ]
    block = BlockOperator(grid)
    assert block.dim == 6
    flat = block.flatten().materialize()
    want = np.block([[a, b], [np.zeros((3, 3)), np.eye(3)]])
    assert np.allclose(flat, want)


def _random_block(rng, kind, d):
    # "dense" and "complex" are fully populated sparse blocks
    if kind == "dense":
        return Operator.sparse(rng.standard_normal((d, d)))
    if kind == "diagonal":
        return Operator.diagonal(rng.standard_normal(d))
    if kind == "complex":
        return Operator.sparse(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    # COO triplets, possibly with duplicates and explicitly stored -0.0
    nnz = int(rng.integers(0, 2 * d + 1))
    vals = rng.standard_normal(nnz)
    vals[rng.random(nnz) < 0.2] = -0.0
    rows, cols = rng.integers(0, d, nnz), rng.integers(0, d, nnz)
    return Operator.sparse(sp.csr_matrix((vals, (rows, cols)), shape=(d, d)))


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=3),
    d=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kinds=st.lists(st.sampled_from([None, "dense", "diagonal", "sparse", "complex"]),
                   min_size=9, max_size=9),
    block_diagonal=st.booleans(),
)
# a lone block whose block row and column are otherwise empty
@example(m=3, d=1, seed=0, kinds=[None] * 8 + ["sparse"], block_diagonal=False)
@example(m=2, d=2, seed=0, kinds=[None, "sparse"] + [None] * 7, block_diagonal=False)
# an all-absent grid: the empty matrix of the grid's shape
@example(m=1, d=1, seed=0, kinds=[None] * 9, block_diagonal=False)
def test_flatten_is_bytewise_the_block_of_materialized_blocks(m, d, seed, kinds, block_diagonal):
    rng = np.random.default_rng(seed)
    grid = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            kind = kinds[i * 3 + j]
            if kind is not None and (i == j or not block_diagonal):
                grid[i][j] = _random_block(rng, kind, d)
    block = BlockOperator(grid, block_dim=d)
    want = np.block([[np.zeros((d, d)) if e is None else e.materialize() for e in row]
                     for row in grid])
    flat = block.flatten()
    assert flat.kind == "sparse"
    got = flat.materialize()
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _diagonal_with_zeros(rng, d):
    """A diagonal block holding exact 0.0 and -0.0, which a sparse flatten drops."""
    vals = rng.standard_normal(d)
    vals[rng.random(d) < 0.3] = 0.0
    vals[rng.random(d) < 0.3] = -0.0
    return Operator.diagonal(vals)


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=3),
    d=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    pool_kinds=st.lists(st.sampled_from(["dense", "diagonal", "sparse", "complex"]),
                        min_size=1, max_size=3),
    slots=st.lists(st.one_of(st.none(), st.integers(min_value=0, max_value=2)),
                   min_size=9, max_size=9),
)
def test_sparse_flatten_keeps_the_csr_layout_of_per_block_triplets(m, d, seed, pool_kinds,
                                                                   slots):
    # a few operator objects, each reused in several slots
    rng = np.random.default_rng(seed)
    pool = [_diagonal_with_zeros(rng, d) if kind == "diagonal" else _random_block(rng, kind, d)
            for kind in pool_kinds]
    grid = [[None if slots[i * 3 + j] is None else pool[slots[i * 3 + j] % len(pool)]
             for j in range(m)] for i in range(m)]
    present = [(i, j, e) for i, row in enumerate(grid) for j, e in enumerate(row) if e is not None]
    assume(m * d > 1 and present)
    flat = BlockOperator(grid, block_dim=d).flatten()
    assert flat.kind == "sparse"
    # the layout as built block by block: each block's own to_sparse().tocoo() triplets
    coos = [(i, j, e.to_sparse().tocoo()) for i, j, e in present]
    dtype = np.result_type(np.float64, *(e.to_sparse().dtype for _, _, e in present))
    want = sp.csr_matrix(
        (np.concatenate([c.data for _, _, c in coos]),
         (np.concatenate([i * d + c.row for i, _, c in coos]),
          np.concatenate([j * d + c.col for _, j, c in coos]))),
        shape=(m * d, m * d), dtype=dtype,
    )
    got = flat.to_sparse()
    for name in ("indptr", "indices", "data"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_block_operator_rejects_ragged_grids():
    with pytest.raises(InvalidInputError):
        BlockOperator([[Operator.diagonal(np.ones(2))], [Operator.diagonal(np.ones(2)), None]])
    with pytest.raises(InvalidInputError):
        BlockOperator([[None, None], [None, None]])


def test_dense_eigenvalues_sorted_and_correct():
    rng = np.random.default_rng(5)
    m = random_symmetric(rng, 8)
    vals = dense_eigenvalues(m)
    want = np.linalg.eigvalsh(m)
    assert np.allclose(np.real(vals), want, atol=1e-12)
    assert np.all(np.diff(np.real(vals)) >= -1e-14)
    g = rng.standard_normal((6, 6))
    vals_g = dense_eigenvalues(g)
    want_g = np.sort_complex(np.linalg.eigvals(g))
    assert np.allclose(sorted(vals_g.real), sorted(want_g.real), atol=1e-10)


def test_dense_eigenvalues_respects_size_cap(monkeypatch):
    monkeypatch.setattr(blockops, "DENSE_LIMIT", 4)
    with pytest.raises(TooLargeError):
        dense_eigenvalues(np.eye(5))


def test_dense_kernels_refuse_before_densifying():
    # one past the cap, a dense copy of the sparse identity would take d²·8 bytes
    d = blockops.DENSE_LIMIT + 1
    eye = Operator.sparse(sp.identity(d, format="csr"))
    split = FewBodySplit(h0=eye, potentials=(eye, eye))  # no channels: σ(H0) by dense eigenvalues
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError,
                           match=f"^dense eigenvalues refused: dim {d} exceeds limit {d - 1}$"):
            dense_eigenvalues(eye)
        assert split.auxiliary_distance(0.0, range(2)) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * d * d * 8


def test_linear_solve_refines_to_high_accuracy():
    rng = np.random.default_rng(17)
    a = random_symmetric(rng, 30)
    rhs = rng.standard_normal(30)
    z = -3.7
    x = linear_solve(a, z, rhs)
    res = np.linalg.norm((a - z * np.eye(30)) @ x - rhs) / np.linalg.norm(rhs)
    assert res <= 1e-12


def test_linear_solve_detects_singular_shift():
    a = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(SingularMatrixError):
        linear_solve(a, 2.0, np.ones(3))


def test_sparse_resolvent_matches_the_dense_one():
    rng = np.random.default_rng(23)
    a = random_symmetric(rng, 30)
    a[np.abs(a) < 0.8] = 0.0
    rhs = rng.standard_normal(30)
    z = -3.7
    sparse = _Resolvent(sp.csr_matrix(a), z)
    x = sparse.solve(rhs)
    shifted = a - z * np.eye(30)
    assert np.linalg.norm(shifted @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)
    assert np.linalg.norm(x - np.linalg.solve(shifted, rhs)) <= 1e-10 * np.linalg.norm(x)
    assert np.allclose(sparse.solve(1j * rhs), 1j * x, rtol=0, atol=1e-12 * np.linalg.norm(x))


def test_splu_ordering_fills_less_than_colamd():
    # a lattice H − z has a symmetric pattern; minimum degree on Aᵀ + A
    # orders it for about half the fill of scipy's default COLAMD
    model = LatticeModel(N=3, L=10, potential=PairPotential.gaussian(-4.0, 1.0))
    h = build_hamiltonian(model).to_sparse()
    shifted = sp.csc_matrix(h + 8.0 * sp.identity(h.shape[0]))
    ours, colamd = _splu(shifted), spla.splu(shifted)
    assert ours.L.nnz + ours.U.nnz < 0.75 * (colamd.L.nnz + colamd.U.nnz)
    rhs = np.ones(h.shape[0])
    assert np.linalg.norm(shifted @ ours.solve(rhs) - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_splu_keeps_colamd_without_a_zero_free_diagonal(monkeypatch):
    # three free hard-core particles on three sites: at z = 6t the pencil
    # A − zB is structurally singular, and minimum degree on Aᵀ + A made
    # SuperLU corrupt its heap there; one shift away the diagonal is zero-free
    model = LatticeModel(N=3, L=3, potential=PairPotential.onsite(-4.0), core_radius=0)
    pencil = assemble_hardcore3_pencil(model)
    a, b = pencil.a.flatten().to_sparse(), pencil.b.flatten().to_sparse()
    calls = []
    real = spla.splu
    monkeypatch.setattr(spla, "splu", lambda m, **kw: calls.append(kw) or real(m, **kw))
    singular = sp.csc_matrix(a - 6.0 * b)
    assert structural_rank(singular) < singular.shape[0]
    with pytest.raises(RuntimeError):
        _splu(singular)
    _splu(sp.csc_matrix(a - 5.5 * b))
    assert calls == [{}, {"permc_spec": "MMD_AT_PLUS_A", "options": {"SymmetricMode": True}}]


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    complex_entries=st.booleans(),
    hermitian=st.booleans(),
    complex_z=st.booleans(),
    complex_rhs=st.booleans(),
)
def test_superlu_solves_fully_populated_matrices(d, seed, complex_entries, hermitian, complex_z,
                                                 complex_rhs):
    # the matrices random splits and raw arrays hand to SuperLU: no stored zeros
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    if complex_entries:
        a = a + 1j * rng.standard_normal((d, d))
    if hermitian:
        a = 0.5 * (a + a.conj().T)
    z = rng.uniform(-3.0, 3.0) + (1j * rng.uniform(-1.0, 1.0) if complex_z else 0.0)
    assume(np.min(np.abs(np.linalg.eigvals(a) - z)) >= 0.05)  # z away from σ(A)
    rhs = rng.standard_normal(d) + (1j * rng.standard_normal(d) if complex_rhs else 0.0)
    shifted = a - z * np.eye(d)
    kappa = np.linalg.cond(shifted, 1)
    x = linear_solve(a, z, rhs)
    backward = np.linalg.norm(shifted @ x - rhs) / (
        np.linalg.norm(shifted, 2) * np.linalg.norm(x) + np.linalg.norm(rhs))
    assert backward <= 1e-12
    want = np.linalg.solve(shifted, rhs)
    assert np.linalg.norm(x - want) <= 2e-12 * d * kappa * np.linalg.norm(want)


def test_sparse_linear_solve_detects_singular_shift():
    with pytest.raises(SingularMatrixError):
        linear_solve(Operator.diagonal(np.array([1.0, 2.0, 3.0])), 2.0, np.ones(3))


def test_linear_solve_zero_rhs_is_zero():
    x = linear_solve(np.eye(3), 0.5, np.zeros(3))
    assert np.allclose(x, 0.0)


def _gershgorin_lower(m):
    """min_i (m_ii − Σ_{j≠i} |m_ij|) of a sparse matrix, computed densely."""
    dense = m.toarray()
    diag = np.diag(dense)
    return float(np.min(diag - (np.abs(dense).sum(axis=1) - np.abs(diag))))


def _lattice_split(model):
    """``build_split(model)``; for N = 2, whose one pair makes no split, H0 + V12 + 0,
    the zero part's channel being H0's own."""
    if model.N > 2:
        return build_split(model)
    h0, _, (v,) = hamiltonian_terms(model)
    free, pair = kronecker_channels(model)
    return FewBodySplit(h0=h0, potentials=(v, Operator.diagonal(np.zeros(h0.dim))),
                        channels=(free, pair, free))


@st.composite
def channel_resolvent_cases(draw):
    """A lattice split, one of its parts (None for H0), a shift 0.5–10 below the
    channel operator's Gershgorin bound or 0.5–5 off the real axis, and one
    or several right-hand sides."""
    n = draw(st.integers(min_value=2, max_value=4))
    L = draw(st.integers(min_value=2, max_value={2: 10, 3: 5, 4: 3}[n]))
    pair_key = (draw(st.integers(min_value=1, max_value=n - 1)), n)
    model = LatticeModel(
        N=n,
        L=L,
        boundary=draw(st.sampled_from(["box", "ring"])),
        t=draw(st.floats(min_value=0.1, max_value=2.0)),
        potential=draw(POTENTIALS),
        core_radius=draw(st.sampled_from([c for c in (None, 0, 1) if c is None or c < L])),
        per_pair=draw(st.one_of(st.none(), st.fixed_dictionaries({pair_key: POTENTIALS}))),
    )
    split = _lattice_split(model)
    part = draw(st.sampled_from([None, *range(split.n)]))
    channel = split.h0 if part is None else split.h0 + split.potentials[part]
    if draw(st.booleans()):
        z = _gershgorin_lower(channel.to_sparse()) - draw(st.floats(min_value=0.5, max_value=10.0))
    else:
        z = complex(draw(st.floats(min_value=-10.0, max_value=20.0)),
                    draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(min_value=0.5, max_value=5.0)))
    shape = draw(st.sampled_from([(split.dim,), (split.dim, 1), (split.dim, 4)]))
    rhs = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(shape)
    return split, part, channel, z, rhs


@settings(max_examples=80, deadline=None)
@given(case=channel_resolvent_cases())
def test_channel_resolvents_certify_the_kronecker_solve(case):
    split, part, channel, z, rhs = case
    resolvent = split.resolvent(z, part)
    x = resolvent.solve(rhs)
    assert "lu" not in resolvent.__dict__  # the Kronecker solve certified every column
    shifted = channel.to_sparse() - z * sp.identity(channel.dim)
    want = _Resolvent(channel, z).solve(rhs)  # the LU path
    assert x.shape == want.shape == rhs.shape
    cols, x, want = (a.reshape(channel.dim, -1) for a in (rhs, x, want))
    for j in range(cols.shape[1]):
        assert np.linalg.norm(shifted @ x[:, j] - cols[:, j]) <= 1e-12 * np.linalg.norm(cols[:, j])
        assert np.linalg.norm(x[:, j] - want[:, j]) <= 1e-12 * np.linalg.norm(want[:, j])


def test_uncertified_columns_fall_back_to_the_lu_path(monkeypatch):
    split = build_split(LatticeModel(N=3, L=4, potential=PairPotential.gaussian(-3.0, 1.0)))
    rhs = np.random.default_rng(5).standard_normal((split.dim, 3))
    real_solve, factored = lattice._KroneckerSolver.solve, []
    for part, z in ((None, -9.5), (1, -9.5), (2, 2.5 + 0.5j)):
        kronecker = real_solve(split.channels[0 if part is None else part + 1].solver(z), rhs)

        def spoiled(self, b):  # column 1 misses the residual target
            x = real_solve(self, b)
            x[:, 1] *= 1.0 + 1e-6
            return x

        monkeypatch.setattr(lattice._KroneckerSolver, "solve", spoiled)
        monkeypatch.setattr(blockops, "_splu",
                            lambda m, real=blockops._splu: factored.append(1) or real(m))
        del factored[:]
        x = split.resolvent(z, part).solve(rhs)
        assert factored == [1]
        monkeypatch.undo()
        channel = split.h0 if part is None else split.h0 + split.potentials[part]
        assert x[:, 1].tobytes() == _Resolvent(channel, z).solve(rhs)[:, 1].tobytes()
        assert x[:, [0, 2]].tobytes() == kronecker[:, [0, 2]].tobytes()


def test_a_singular_channel_still_raises_its_energy_error():
    split = build_split(LatticeModel(N=3, L=4, potential=PairPotential.onsite(-4.0)))
    psi = np.ones(split.dim)
    bottom = float(split.channel_spectrum()[0])
    with pytest.raises(SingularMatrixError):
        split.resolvent(bottom).solve(psi)
    with pytest.raises(SpuriousEnergyError):
        lippmann_schwinger_residual(split, bottom, psi)
    with pytest.raises(SpuriousEnergyError):
        faddeev_components(split, bottom, psi, eigenpair_tol=np.inf)
    ring = build_split(LatticeModel(N=3, L=4, boundary="ring", potential=PairPotential.onsite(-4.0)))
    with pytest.raises(SingularMatrixError):
        ring.resolvent(0.0).solve(psi)  # the ring's constant mode
    # pairs 12 and 13 share their channel spectrum; pair 23's is its own
    split = build_split(LatticeModel(N=3, L=4, potential=PairPotential.onsite(-4.0),
                                     per_pair={(2, 3): PairPotential.onsite(-7.0)}))
    for part in (0, 2):
        z = float(split.channel_spectrum(part)[0])
        with pytest.raises(ChannelEnergyError) as exc_info:
            faddeev_integral_map(split, z, [psi] * split.n)
        assert exc_info.value.pair == part
    system = YakubovskySystem(
        split=build_split(LatticeModel(N=4, L=3, potential=PairPotential.onsite(-3.0))))
    z = float(system.split.channel_spectrum(0)[0])
    faddeev = FaddeevComponents(z=z, components=tuple(np.ones((6, system.dim))))
    with pytest.raises(ChannelEnergyError) as exc_info:
        yakubovsky_components(system, z, faddeev)
    assert exc_info.value.pair == system.pairs[0]
    # without channels every solve is the LU path's, as before
    skew = sp.diags([-1.0, 4.0, -0.5], [-1, 0, 1], shape=(30, 30), format="csr")
    x = linear_solve(skew, -1.0, np.ones(30))
    assert np.linalg.norm(skew @ x + x - 1.0) <= 1e-12 * np.sqrt(30)


def test_shift_invert_standard_problem():
    rng = np.random.default_rng(23)
    m = random_symmetric(rng, 40)
    want = np.linalg.eigvalsh(m)
    target = want[0] - 0.05
    res = shift_invert_eigenpair(Operator.sparse(m), target, tol=1e-12)
    assert abs(np.real(res.value) - want[0]) <= 1e-9
    assert res.residual_norm <= 1e-10
    assert res.iterations >= 1
    assert res.factorizations >= 1


def test_shift_invert_interior_eigenvalue():
    rng = np.random.default_rng(29)
    m = random_symmetric(rng, 25)
    want = np.linalg.eigvalsh(m)
    target = 0.5 * (want[10] + 0.7 * want[10] + 0.3 * want[11])  # biased toward want[10]
    res = shift_invert_eigenpair(Operator.sparse(m), want[10] + 1e-3, tol=1e-12)
    d = np.min(np.abs(want - np.real(res.value)))
    assert d <= 1e-9


def test_shift_invert_is_deterministic():
    rng = np.random.default_rng(31)
    m = random_symmetric(rng, 20)
    r1 = shift_invert_eigenpair(Operator.sparse(m), -1.0, seed=99)
    r2 = shift_invert_eigenpair(Operator.sparse(m), -1.0, seed=99)
    assert r1.value == r2.value
    assert np.array_equal(r1.vector, r2.vector)


@pytest.mark.parametrize("complex_matrix", [True, False],
                         ids=["complex-hermitian", "real-symmetric-complex-target"])
def test_shift_invert_complex_problems_match_eigvalsh(complex_matrix):
    # a complex matrix, or a complex target on a real one, iterates from a complex start vector
    rng = np.random.default_rng(41)
    m = random_symmetric(rng, 12)
    if complex_matrix:
        im = rng.standard_normal((12, 12))
        m = m + 0.5j * (im - im.T)
    want = np.linalg.eigvalsh(m)
    target = want[3] + 0.01 + (0.0 if complex_matrix else 0.01j)
    tol = 1e-10
    res, again = (shift_invert_eigenpair(Operator.sparse(m), target, tol=tol) for _ in range(2))
    assert np.iscomplexobj(res.vector)
    assert abs(res.value - want[3]) <= tol
    assert res.residual_norm <= tol
    assert np.linalg.norm(m @ res.vector - res.value * res.vector) <= tol * np.linalg.norm(res.vector)
    for got, first in ((again.value, res.value), (again.vector, res.vector)):
        assert np.asarray(got).tobytes() == np.asarray(first).tobytes()


def test_shift_invert_generalized_pencil():
    rng = np.random.default_rng(37)
    a = random_symmetric(rng, 15)
    bdiag = rng.uniform(0.5, 2.0, size=15)
    b = np.diag(bdiag)
    want = np.sort(np.real(np.linalg.eigvals(np.linalg.solve(b, a))))
    res = shift_invert_eigenpair(
        Operator.sparse(a), want[0] - 0.1, b=Operator.sparse(b), tol=1e-12
    )
    assert np.min(np.abs(want - np.real(res.value))) <= 1e-8
    x = res.vector
    pencil_res = np.linalg.norm(a @ x - res.value * (b @ x)) / np.linalg.norm(x)
    assert pencil_res <= 1e-10


def test_shift_invert_singular_shift_raises():
    # a factor singular at every shift is tried at t and at the two steps off
    # it, t′ = t + 1e-8·(1 + |t|) and t″ = t′ + 1.01e-6·(1 + |t′|), and the
    # last error leaves the driver
    t, tried = 2.0, []

    def singular(z):
        tried.append(z)
        raise ShiftSingularError(f"singular at {z!r}")

    t1 = t + 1e-8 * (1.0 + abs(t))
    t2 = t1 + (1e-8 + 1e-6) * (1.0 + abs(t1))
    with pytest.raises(ShiftSingularError, match=f"singular at {t2!r}"):
        shift_invert_eigenpair(np.diag([1.0, 2.0, 3.0]), t, shifted_factor=singular)
    assert tried == [t, t1, t2]


def test_shift_invert_keeps_its_factor_when_a_refactor_is_singular():
    # t = 1.45 lies between the eigenvalues 1 and 2, so the residual contracts
    # by only 0.45/0.55 a step and the driver refactors at the Rayleigh
    # quotient; every shift but t is singular, so that one ladder fails and
    # the driver keeps the factor at t without refactoring again
    a, t, tried = np.diag(np.arange(1.0, 9.0)), 1.45, []

    def singular_off_target(z):
        tried.append(z)
        if z != t:
            raise ShiftSingularError(f"singular at {z!r}")
        return _Resolvent(a, z, refine=False)

    res = shift_invert_eigenpair(a, t, tol=1e-10, shifted_factor=singular_off_target)
    # t, then the Rayleigh quotient and its two steps
    assert len(tried) == 4 and tried[0] == t and t not in tried[1:]
    assert res.shift_history == (t,) and res.factorizations == 1
    assert res.iterations == 115
    assert res.residual_norm <= 1e-10
    assert abs(res.value - 1.0) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**16),
    diagonal=st.booleans(),
    t=st.floats(min_value=-5.0, max_value=5.0),
)
def test_retry_driver_steps_off_an_exact_eigenvalue(d, seed, diagonal, t):
    # t sits on the diagonal of a row and column that are otherwise zero, so
    # the column of A − t·I is exactly zero and the shift t is singular in
    # floating point, whatever random diagonal or symmetric block surrounds it.
    rng = np.random.default_rng(seed)
    order = rng.permutation(d)
    k, rest = order[0], order[1:]
    block = np.diag(rng.standard_normal(d - 1)) if diagonal else random_symmetric(rng, d - 1)
    a = np.zeros((d, d))
    a[np.ix_(rest, rest)] = 3.0 * block
    a[k, k] = t
    res = shift_invert_eigenpair(a, t)
    assert res.residual_norm <= 1e-10
    assert res.shift_history[0] == t + 1e-8 * (1.0 + abs(t))
    assert np.min(np.abs(np.linalg.eigvalsh(a) - res.value)) <= 1e-8


def _eigen_outcome(**kwargs):
    try:
        r = shift_invert_eigenpair(**kwargs)
    except (ShiftSingularError, SolverFailureError) as exc:
        return type(exc).__name__, str(exc)
    return (r.value, r.vector.tobytes(), r.residual_norm, r.iterations, r.factorizations,
            r.shift_history)


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    t=st.floats(min_value=-5.0, max_value=5.0),
)
def test_diagonal_pencil_b_is_bitwise_the_dense_one(d, seed, t):
    # a diagonal B is subtracted and applied only at its diagonal; a dense B
    # everywhere. Every entry off the diagonal is an exact zero, so the two
    # must agree to the last bit, failures included.
    rng = np.random.default_rng(seed)
    a = 3.0 * random_symmetric(rng, d)
    k = (rng.random(d) < 0.7).astype(np.float64)
    got = _eigen_outcome(a=a, target=t, b=Operator.diagonal(k))
    want = _eigen_outcome(a=a, target=t, b=np.diag(k))
    assert got == want


def test_solvers_leave_dense_operators_unchanged():
    split = random_split(3, 9, seed=17)
    flat = assemble_faddeev_operator(split).flatten()
    b = Operator.sparse(np.diag(np.linspace(0.5, 1.5, flat.dim)))
    ops = (split.h0, *split.potentials, flat, b)
    before = [op.materialize().tobytes() for op in ops]
    shift_invert_eigenpair(flat, 0.1)
    shift_invert_eigenpair(flat, 0.1, b=b)
    linear_solve(split.h0, 0.3, np.ones(split.dim))
    vals, vecs = np.linalg.eigh(split.total().materialize())
    faddeev_components(split, vals[0], vecs[:, 0])
    assert [op.materialize().tobytes() for op in ops] == before


def test_sums_and_flattens_copy_no_operand(monkeypatch):
    # their results are new matrices, so the operands' stored CSR is read as it is
    split = random_split(3, 5, seed=4)
    mixed = Operator.diagonal(np.arange(5.0))
    monkeypatch.setattr(Operator, "to_sparse", lambda self: pytest.fail("operand copied"))
    assemble_faddeev_operator(split).flatten()
    split.total()
    assert np.array_equal((mixed + split.h0).materialize(),
                          np.diag(np.arange(5.0)) + split.h0.materialize())


_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]),
                     st.floats(min_value=-1e3, max_value=1e3))


@st.composite
def _entry_arrays(draw, n, complex_entries):
    re = draw(st.lists(_ENTRIES, min_size=n, max_size=n))
    if not complex_entries:
        return np.array(re, dtype=np.float64)
    im = draw(st.lists(_ENTRIES, min_size=n, max_size=n))
    return np.array([complex(a, b) for a, b in zip(re, im)])


def _csr_layout(m):
    return type(m), m.shape, m.data.dtype, m.data.tobytes(), m.indices.tobytes(), m.indptr.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    complex_d=st.booleans(),
    complex_h=st.booleans(),
    z=st.one_of(
        st.sampled_from([0.0, -0.0, 1.5, complex(1.0, -0.0), complex(-0.0, 0.0)]),
        st.floats(min_value=-10.0, max_value=10.0),
        st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
    ),
    data=st.data(),
)
def test_direct_diagonal_csr_is_bitwise_the_dia_round_trip(n, complex_d, complex_h, z, data):
    d = data.draw(_entry_arrays(n, complex_d), label="d")
    assert _csr_layout(blockops._diagonal_csr(d)) == _csr_layout(sp.diags(d).tocsr())
    dense = data.draw(_entry_arrays(n * n, complex_h), label="h")
    dense[data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n), label="holes")] = 0.0
    h = sp.csr_matrix(dense.reshape(n, n))
    # H0 + V, and A − z·I as the resolvent builds it
    assert _csr_layout((Operator.sparse(h) + Operator.diagonal(d))._data) == _csr_layout(
        h + sp.diags(d).tocsr())
    assert _csr_layout(_Resolvent(h, z).shifted) == _csr_layout((h - z * sp.identity(n)).tocsr())


def test_shift_invert_failure_carries_diagnostics():
    rng = np.random.default_rng(41)
    m = random_symmetric(rng, 12)
    with pytest.raises(SolverFailureError) as exc_info:
        shift_invert_eigenpair(Operator.sparse(m), 0.123, tol=1e-16, max_iter=2)
    diag = exc_info.value.diagnostics
    assert "best_residual" in diag
    assert diag["iterations"] >= 1


def test_match_into_respects_multiplicity():
    pool = [1.0, 1.0, 2.0]
    assert match_into([1.0, 1.0], pool) == 0.0
    # a third copy has to claim the distant pool element
    assert match_into([1.0, 1.0, 1.0], pool) == pytest.approx(1.0)
    # a NaN distance is the result, not hidden behind a finite one (Python's max would)
    assert np.isnan(match_into([1.0, np.nan], pool))
    with pytest.raises(InvalidInputError):
        match_into([1.0, 2.0], [1.5])


def test_dump_matrix_round_trips(tmp_path):
    rng = np.random.default_rng(43)
    a = rng.standard_normal((4, 4))
    path = tmp_path / "m.txt"
    dump_matrix_text(path, a)
    lines = path.read_text().splitlines()
    assert lines[0] == "# 4 4"
    back = np.array([[float(tok) for tok in line.split()] for line in lines[1:]])
    assert np.array_equal(back, a)


def test_match_into_of_no_values_is_zero():
    assert match_into([], [1.0, 2.0]) == 0.0
    assert match_into([], []) == 0.0
    # the empty-safe maximum still lets a NaN distance through
    assert np.isnan(match_into([np.nan], [1.0, 2.0]))
