"""Operator containers, dense kernels, shift-invert, spectrum matching."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fykit.blockops import (
    BlockOperator,
    Operator,
    _Resolvent,
    dense_eigenvalues,
    dense_limit,
    dump_matrix_text,
    linear_solve,
    match_into,
    match_spectra,
    shift_invert_eigenpair,
    shift_invert_retry,
)
from fykit.errors import (
    InvalidInputError,
    ShiftSingularError,
    SingularMatrixError,
    SolverFailureError,
    TooLargeError,
)

from fykit.faddeev import assemble_faddeev_operator, faddeev_components, random_split

from conftest import random_symmetric


def test_operator_kinds_agree_on_apply():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 5))
    x = rng.standard_normal(5)
    dense = Operator.dense(a)
    sparse = Operator.sparse(sp.csr_matrix(a))
    want = a @ x
    assert np.allclose(dense.apply(x), want)
    assert np.allclose(sparse.apply(x), want)


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
    combo = Operator.dense(a) + Operator.diagonal(d) - Operator.dense(b) * 0.5
    want = a + np.diag(d) - 0.5 * b
    assert np.allclose(combo.materialize(), want)
    assert np.allclose((-Operator.dense(a)).materialize(), -a)


def test_zero_and_identity():
    z = Operator.zero(3)
    i = Operator.identity(3)
    x = np.arange(3.0)
    assert np.allclose(z.apply(x), 0.0)
    assert np.allclose(i.apply(x), x)


def test_operator_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        Operator.dense(np.eye(3)) + Operator.dense(np.eye(4))
    with pytest.raises(InvalidInputError):
        Operator.dense(np.eye(3)).apply(np.ones(4))


def test_block_operator_flatten_matches_manual_assembly():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    grid = [
        [Operator.dense(a), Operator.dense(b)],
        [None, Operator.identity(3)],
    ]
    block = BlockOperator(grid)
    assert block.dim == 6
    flat = block.flatten().materialize()
    want = np.block([[a, b], [np.zeros((3, 3)), np.eye(3)]])
    assert np.allclose(flat, want)


def _random_block(rng, kind, d):
    if kind == "dense":
        return Operator.dense(rng.standard_normal((d, d)))
    if kind == "diagonal":
        return Operator.diagonal(rng.standard_normal(d))
    if kind == "complex":
        return Operator.dense(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
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
    only_diagonal = all(e is None or (i == j and e.kind == "diagonal")
                        for i, row in enumerate(grid) for j, e in enumerate(row))
    assert flat.kind == ("diagonal" if only_diagonal else "dense")
    got = flat.materialize()
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_block_rows_splits_flat_vectors():
    block = BlockOperator([[Operator.identity(2), None], [None, Operator.identity(2)]])
    parts = block.block_rows(np.arange(4.0))
    assert len(parts) == 2
    assert np.allclose(parts[0], [0.0, 1.0])
    assert np.allclose(parts[1], [2.0, 3.0])


def test_block_operator_rejects_ragged_grids():
    with pytest.raises(InvalidInputError):
        BlockOperator([[Operator.identity(2)], [Operator.identity(2), None]])
    with pytest.raises(InvalidInputError):
        BlockOperator([[None, None], [None, None]])


def test_dense_eigenvalues_sorted_and_correct():
    rng = np.random.default_rng(5)
    m = random_symmetric(rng, 8)
    vals = dense_eigenvalues(m, hermitian=True)
    want = np.linalg.eigvalsh(m)
    assert np.allclose(np.real(vals), want, atol=1e-12)
    assert np.all(np.diff(np.real(vals)) >= -1e-14)
    g = rng.standard_normal((6, 6))
    vals_g = dense_eigenvalues(g)
    want_g = np.sort_complex(np.linalg.eigvals(g))
    assert np.allclose(sorted(vals_g.real), sorted(want_g.real), atol=1e-10)


def test_dense_eigenvalues_respects_size_cap(monkeypatch):
    monkeypatch.setenv("FY_DENSE_LIMIT", "4")
    assert dense_limit() == 4
    with pytest.raises(TooLargeError):
        dense_eigenvalues(np.eye(5), hermitian=True)


def test_linear_solve_refines_to_high_accuracy():
    rng = np.random.default_rng(17)
    a = random_symmetric(rng, 30)
    rhs = rng.standard_normal(30)
    z = -3.7
    x = linear_solve(a, z, rhs)
    res = np.linalg.norm((a - z * np.eye(30)) @ x - rhs) / np.linalg.norm(rhs)
    assert res <= 1e-12


@pytest.mark.filterwarnings("ignore")
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
    dense, sparse = _Resolvent(a, z), _Resolvent(sp.csr_matrix(a), z)
    x = sparse.solve(rhs)
    shifted = a - z * np.eye(30)
    assert np.linalg.norm(shifted @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)
    assert np.linalg.norm(x - dense.solve(rhs)) <= 1e-10 * np.linalg.norm(x)
    assert np.allclose(sparse.solve(1j * rhs), 1j * x, rtol=0, atol=1e-12 * np.linalg.norm(x))
    # onenormest bounds ‖(A − z)⁻¹‖₁ from below, and is close on small systems
    exact = np.linalg.cond(shifted, 1)
    assert exact / 3 <= sparse.cond_estimate() <= exact * (1 + 1e-12)
    assert sparse.cond_estimate() == pytest.approx(dense.cond_estimate(), rel=0.5)


@pytest.mark.filterwarnings("ignore")
def test_sparse_linear_solve_detects_singular_shift():
    with pytest.raises(SingularMatrixError):
        linear_solve(Operator.diagonal(np.array([1.0, 2.0, 3.0])), 2.0, np.ones(3))


def test_linear_solve_zero_rhs_is_zero():
    x = linear_solve(np.eye(3), 0.5, np.zeros(3))
    assert np.allclose(x, 0.0)


def test_shift_invert_standard_problem():
    rng = np.random.default_rng(23)
    m = random_symmetric(rng, 40)
    want = np.linalg.eigvalsh(m)
    target = want[0] - 0.05
    res = shift_invert_eigenpair(Operator.dense(m), target, tol=1e-12)
    assert abs(np.real(res.value) - want[0]) <= 1e-9
    assert res.residual_norm <= 1e-10
    assert res.iterations >= 1
    assert res.factorizations >= 1


def test_shift_invert_interior_eigenvalue():
    rng = np.random.default_rng(29)
    m = random_symmetric(rng, 25)
    want = np.linalg.eigvalsh(m)
    target = 0.5 * (want[10] + 0.7 * want[10] + 0.3 * want[11])  # biased toward want[10]
    res = shift_invert_eigenpair(Operator.dense(m), want[10] + 1e-3, tol=1e-12)
    d = np.min(np.abs(want - np.real(res.value)))
    assert d <= 1e-9


def test_shift_invert_is_deterministic():
    rng = np.random.default_rng(31)
    m = random_symmetric(rng, 20)
    r1 = shift_invert_eigenpair(Operator.dense(m), -1.0, seed=99)
    r2 = shift_invert_eigenpair(Operator.dense(m), -1.0, seed=99)
    assert r1.value == r2.value
    assert np.array_equal(r1.vector, r2.vector)


def test_shift_invert_generalized_pencil():
    rng = np.random.default_rng(37)
    a = random_symmetric(rng, 15)
    bdiag = rng.uniform(0.5, 2.0, size=15)
    b = np.diag(bdiag)
    want = np.sort(np.real(np.linalg.eigvals(np.linalg.solve(b, a))))
    res = shift_invert_eigenpair(
        Operator.dense(a), want[0] - 0.1, b=Operator.dense(b), tol=1e-12
    )
    assert np.min(np.abs(want - np.real(res.value))) <= 1e-8
    x = res.vector
    pencil_res = np.linalg.norm(a @ x - res.value * (b @ x)) / np.linalg.norm(x)
    assert pencil_res <= 1e-10


@pytest.mark.filterwarnings("ignore")
def test_shift_invert_singular_shift_raises():
    a = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(ShiftSingularError):
        shift_invert_eigenpair(Operator.dense(a), 2.0)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**16),
    diagonal=st.booleans(),
    t=st.floats(min_value=-5.0, max_value=5.0),
)
@pytest.mark.filterwarnings("ignore:Diagonal number")
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
    with pytest.raises(ShiftSingularError):
        shift_invert_eigenpair(a, t)
    res = shift_invert_retry(a, t)
    assert res.residual_norm <= 1e-10
    assert res.shift_history[0] != t
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
    b = Operator.dense(np.diag(np.linspace(0.5, 1.5, flat.dim)))
    ops = (split.h0, *split.potentials, flat, b)
    before = [op.materialize().tobytes() for op in ops]
    shift_invert_eigenpair(flat, 0.1)
    shift_invert_eigenpair(flat, 0.1, b=b)
    linear_solve(split.h0, 0.3, np.ones(split.dim))
    vals, vecs = np.linalg.eigh(split.total().materialize())
    faddeev_components(split, vals[0], vecs[:, 0])
    assert [op.materialize().tobytes() for op in ops] == before


def test_shift_invert_failure_carries_diagnostics():
    rng = np.random.default_rng(41)
    m = random_symmetric(rng, 12)
    with pytest.raises(SolverFailureError) as exc_info:
        shift_invert_eigenpair(Operator.dense(m), 0.123, tol=1e-16, max_iter=2)
    diag = exc_info.value.diagnostics
    assert "best_residual" in diag
    assert diag["iterations"] >= 1


def test_match_spectra_orders_and_pairs():
    ref = [3.0, 1.0, 2.0]
    comp = [2.0 + 1e-12, 1.0, 3.0 - 1e-12]
    m = match_spectra(comp, ref)
    assert m.max_distance <= 1e-11
    with pytest.raises(InvalidInputError):
        match_spectra([1.0], [1.0, 2.0])


def test_match_into_respects_multiplicity():
    pool = [1.0, 1.0, 2.0]
    m = match_into([1.0, 1.0], pool)
    assert m.max_distance == 0.0
    # a third copy has to claim the distant pool element
    m2 = match_into([1.0, 1.0, 1.0], pool)
    assert m2.max_distance == pytest.approx(1.0)
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
