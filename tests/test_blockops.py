"""Operator containers, dense kernels, shift-invert, spectrum matching."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fykit.blockops import (
    BlockOperator,
    Operator,
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
    shifted = Operator.dense(a).shifted(2.5)
    assert np.allclose(shifted.materialize(), a - 2.5 * np.eye(4))


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
