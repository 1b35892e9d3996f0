"""Operators, block operators, and the dense/iterative eigen and solve kernels.

Every other module builds on the two containers here. :class:`Operator` wraps
one square linear map in whichever of three representations is cheapest
(dense array, diagonal vector or sparse matrix). :class:`BlockOperator` is an
m-by-m grid of same-sized optional blocks whose :meth:`~BlockOperator.flatten`
produces the single big operator the eigen kernels consume.

All scalars are double precision. Eigenvalues may be complex: the coupled
component operators assembled downstream are non-Hermitian even when the
underlying Hamiltonian is Hermitian, so the dense kernel is a general
(Hessenberg + QR) routine, not a symmetric one.

Dense work is capped by :func:`dense_limit` (default 4096). The
``FY_DENSE_LIMIT`` environment variable is the one way to change the cap; no
config file sets it. Beyond the cap only the shift-invert path is available
and flattening falls back to a sparse matrix.

Every shift-invert solve in the package goes through
:func:`shift_invert_retry`, which retries a singular start shift with a
nudged target.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    ConfigError,
    InvalidInputError,
    ShiftSingularError,
    SingularMatrixError,
    SolverFailureError,
    TooLargeError,
)

__all__ = [
    "Operator",
    "BlockOperator",
    "EigenResult",
    "SpectrumMatch",
    "dense_limit",
    "dense_eigenvalues",
    "linear_solve",
    "shift_invert_eigenpair",
    "shift_invert_retry",
    "match_spectra",
    "match_into",
    "dump_matrix_text",
]

DEFAULT_DENSE_LIMIT = 4096

_REFINE_TARGET = 1e-12
_MAX_REFINE = 10
_MAX_FACTORIZATIONS = 12


def dense_limit() -> int:
    """Largest dimension the dense kernels accept.

    Reads ``FY_DENSE_LIMIT`` from the environment so acceptance runs can
    widen or shrink the budget without code changes.
    """
    raw = os.environ.get("FY_DENSE_LIMIT")
    if raw is None:
        return DEFAULT_DENSE_LIMIT
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"FY_DENSE_LIMIT must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ConfigError(f"FY_DENSE_LIMIT must be positive, got {value}")
    return value


def _as_2d_array(a) -> np.ndarray:
    arr = np.asarray(a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidInputError(f"expected a square 2-D array, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.number):
        raise InvalidInputError(f"expected numeric entries, got dtype {arr.dtype}")
    return arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64, copy=False)


class Operator:
    """A square linear map with one of three storage kinds.

    Kinds: ``dense`` (2-D array), ``diagonal`` (1-D array of the diagonal),
    ``sparse`` (scipy CSR). Every kind can be materialized. Instances are
    immutable; arithmetic returns new operators and picks the cheapest
    representation that can hold the result exactly.
    """

    __slots__ = ("kind", "dim", "_data")

    def __init__(self, kind: str, dim: int, data):
        if kind not in ("dense", "diagonal", "sparse"):
            raise InvalidInputError(f"unknown operator kind {kind!r}")
        if dim < 1:
            raise InvalidInputError(f"operator dimension must be positive, got {dim}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_data", data)

    def __setattr__(self, name, value):
        raise AttributeError("Operator is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def dense(cls, a) -> "Operator":
        arr = _as_2d_array(a)
        return cls("dense", arr.shape[0], data=arr)

    @classmethod
    def diagonal(cls, d) -> "Operator":
        vec = np.asarray(d)
        if vec.ndim != 1:
            raise InvalidInputError(f"diagonal data must be 1-D, got shape {vec.shape}")
        vec = vec.astype(np.complex128 if np.iscomplexobj(vec) else np.float64, copy=False)
        return cls("diagonal", vec.shape[0], data=vec)

    @classmethod
    def sparse(cls, m) -> "Operator":
        mat = sp.csr_matrix(m)
        if mat.shape[0] != mat.shape[1]:
            raise InvalidInputError(f"expected a square sparse matrix, got {mat.shape}")
        return cls("sparse", mat.shape[0], data=mat)

    @classmethod
    def zero(cls, dim: int) -> "Operator":
        return cls.diagonal(np.zeros(dim))

    @classmethod
    def identity(cls, dim: int) -> "Operator":
        return cls.diagonal(np.ones(dim))

    # -- application and materialization -------------------------------

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.shape[0] != self.dim:
            raise InvalidInputError(f"vector length {x.shape[0]} != operator dim {self.dim}")
        if self.kind == "diagonal":
            if x.ndim == 1:
                return self._data * x
            return self._data[:, None] * x
        return self._data @ x

    def materialize(self) -> np.ndarray:
        """Dense square array equal to this operator."""
        if self.kind == "dense":
            return self._data.copy()
        if self.kind == "diagonal":
            return np.diag(self._data)
        return self._data.toarray()

    def to_sparse(self) -> sp.csr_matrix:
        if self.kind == "dense":
            return sp.csr_matrix(self._data)
        if self.kind == "diagonal":
            return sp.diags(self._data).tocsr()
        return self._data.copy()

    @property
    def diagonal_data(self) -> np.ndarray:
        if self.kind != "diagonal":
            raise InvalidInputError(f"operator kind is {self.kind}, not diagonal")
        return self._data

    # -- arithmetic -----------------------------------------------------

    def _binary(self, other: "Operator", sign: float) -> "Operator":
        if not isinstance(other, Operator):
            return NotImplemented
        if other.dim != self.dim:
            raise InvalidInputError(f"dimension mismatch {self.dim} vs {other.dim}")
        a, b = self, other
        if a.kind == "diagonal" and b.kind == "diagonal":
            return Operator.diagonal(a._data + sign * b._data)
        if a.kind == "sparse" or b.kind == "sparse":
            return Operator.sparse(a.to_sparse() + sign * b.to_sparse())
        return Operator.dense(a.materialize() + sign * b.materialize())

    def __add__(self, other):
        return self._binary(other, 1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __neg__(self):
        return self * (-1.0)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        if self.kind == "dense":
            return Operator.dense(self._data * scalar)
        if self.kind == "diagonal":
            return Operator.diagonal(self._data * scalar)
        return Operator.sparse(self._data * scalar)

    __rmul__ = __mul__

    def __repr__(self):
        return f"Operator(kind={self.kind!r}, dim={self.dim})"


class BlockOperator:
    """An m-by-m grid of optional same-dimension blocks.

    Absent entries are exact zeros. The grid is validated eagerly so a badly
    shaped block fails at construction, not at flatten time.
    """

    __slots__ = ("entries", "block_count", "block_dim")

    def __init__(self, grid: Sequence[Sequence[Optional[Operator]]], block_dim: Optional[int] = None):
        rows = [list(r) for r in grid]
        m = len(rows)
        if m == 0 or any(len(r) != m for r in rows):
            raise InvalidInputError("block grid must be square and nonempty")
        d = block_dim
        for r in rows:
            for entry in r:
                if entry is None:
                    continue
                if not isinstance(entry, Operator):
                    raise InvalidInputError(f"block entries must be Operator or None, got {type(entry)}")
                if d is None:
                    d = entry.dim
                elif entry.dim != d:
                    raise InvalidInputError(f"block dimension mismatch: {entry.dim} vs {d}")
        if d is None:
            raise InvalidInputError("all blocks absent and no explicit block_dim given")
        object.__setattr__(self, "entries", tuple(tuple(r) for r in rows))
        object.__setattr__(self, "block_count", m)
        object.__setattr__(self, "block_dim", int(d))

    def __setattr__(self, name, value):
        raise AttributeError("BlockOperator is immutable")

    @property
    def dim(self) -> int:
        return self.block_count * self.block_dim

    def flatten(self) -> Operator:
        """The (m·d)-dimensional operator with this block layout, of the cheapest exact kind.

        Diagonal blocks on the block diagonal alone give a diagonal operator.
        Otherwise it is dense, each block written straight into its slice,
        while m·d stays within :func:`dense_limit`, and sparse beyond it,
        which restricts the caller to the shift-invert path.
        """
        d, n = self.block_dim, self.dim
        present = [(i, j, e) for i, row in enumerate(self.entries)
                   for j, e in enumerate(row) if e is not None]
        dtype = np.result_type(np.float64, *(e._data.dtype for _, _, e in present))
        if all(i == j and e.kind == "diagonal" for i, j, e in present):
            diag = np.zeros(n, dtype=dtype)
            for i, _, e in present:
                diag[i * d:(i + 1) * d] = e._data
            return Operator.diagonal(diag)
        if n <= dense_limit():
            out = np.zeros((n, n), dtype=dtype)
            for i, j, e in present:
                blk = out[i * d:(i + 1) * d, j * d:(j + 1) * d]
                if e.kind == "diagonal":
                    blk[np.diag_indices(d)] = e._data
                elif e.kind == "sparse":
                    coo = e._data.tocoo()
                    np.add.at(blk, (coo.row, coo.col), coo.data)
                else:
                    blk[...] = e._data
            return Operator.dense(out)
        grid = [[e.to_sparse() if e is not None else None for e in row] for row in self.entries]
        return Operator.sparse(sp.bmat(grid, format="csr"))

    def block_rows(self, x: np.ndarray) -> list[np.ndarray]:
        """Split a flat vector of length m·d into its m block pieces."""
        x = np.asarray(x)
        if x.shape[0] != self.dim:
            raise InvalidInputError(f"vector length {x.shape[0]} != {self.dim}")
        d = self.block_dim
        return [x[i * d:(i + 1) * d] for i in range(self.block_count)]

    def __repr__(self):
        return f"BlockOperator(m={self.block_count}, d={self.block_dim})"


@dataclass(frozen=True)
class EigenResult:
    """One eigenpair plus the evidence it is one.

    ``residual_norm`` is ‖A·x − z·B·x‖ / ‖x‖ for the problem that was solved
    (B = identity unless a pencil was given), recomputed from scratch after
    the iteration finished rather than trusted from the loop.
    """

    value: complex
    vector: np.ndarray
    residual_norm: float
    iterations: int
    method: str
    factorizations: int = 0
    shift_history: tuple = ()


# ----------------------------------------------------------------------
# dense kernels


def _coerce_matrix(a) -> np.ndarray:
    if isinstance(a, Operator):  # a dense operator's own array, not a copy
        return a._data if a.kind == "dense" else a.materialize()
    if sp.issparse(a):
        return a.toarray()
    return _as_2d_array(a)


def dense_eigenvalues(a, hermitian: bool = False) -> np.ndarray:
    """All eigenvalues of a materializable operator, sorted by (real, imag).

    Delegates to LAPACK's Hessenberg + shifted-QR path (or the symmetric
    tridiagonal path when ``hermitian`` is set, in which case the result is
    real). Refuses dimensions above :func:`dense_limit`.
    """
    mat = _coerce_matrix(a)
    n = mat.shape[0]
    if n > dense_limit():
        raise TooLargeError(f"dense eigenvalues refused: dim {n} exceeds limit {dense_limit()}")
    try:
        if hermitian:
            vals = sla.eigvalsh(mat)
            return np.sort(vals)
        vals = sla.eigvals(mat)
    except sla.LinAlgError as exc:
        raise SolverFailureError(
            f"eigenvalue iteration did not converge for dim {n}",
            diagnostics={"dim": n},
        ) from exc
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def linear_solve(a, z, rhs) -> np.ndarray:
    """Solve (A − z·I)·x = rhs by LU (sparse for a sparse A) with iterative refinement.

    Refinement repeats until the true residual is at or below 1e-12 relative
    to ‖rhs‖ or stops improving; a system that cannot reach that target is
    reported as singular to working precision rather than returned silently
    degraded. A zero right-hand side returns zeros without factoring.
    """
    return _Resolvent(a, z).solve(rhs)


class _Resolvent:
    """(A − z·I)⁻¹ from one LU, shared by every right-hand side.

    A sparse or diagonal A is factored by SuperLU, a dense one by LAPACK. The
    LU is computed on the first nonzero right-hand side (or condition
    estimate) and reused; each solve refines its own residual and raises
    :class:`SingularMatrixError` exactly as :func:`linear_solve` does.
    """

    def __init__(self, a, z):
        mat = _solver_matrix(a)  # shares a dense input, so only that one is copied
        dtype = np.result_type(mat.dtype, type(z))
        if sp.issparse(mat):
            self.m = sp.csc_matrix(mat - z * sp.identity(mat.shape[0]), dtype=dtype)
        else:
            self.m = mat.astype(dtype)
            self.m[np.diag_indices(self.m.shape[0])] -= z

    @functools.cached_property
    def lu(self):
        try:
            if sp.issparse(self.m):
                return spla.splu(self.m)
            lu, piv = sla.lu_factor(self.m)
        except (sla.LinAlgError, ValueError, RuntimeError) as exc:  # splu: RuntimeError
            raise SingularMatrixError(f"LU factorization failed: {exc}") from exc
        if not np.all(np.isfinite(lu)):
            raise SingularMatrixError("LU factorization produced non-finite factors")
        if np.min(np.abs(np.diag(lu))) == 0.0:
            raise SingularMatrixError("shifted matrix is exactly singular (zero pivot)")
        return lu, piv

    def _lu_solve(self, b):
        lu = self.lu
        if isinstance(lu, tuple):
            return sla.lu_solve(lu, b)
        if np.iscomplexobj(b) and not np.iscomplexobj(self.m.data):  # SuperLU keeps its dtype
            return lu.solve(b.real) + 1j * lu.solve(b.imag)
        return lu.solve(b)

    def cond_estimate(self) -> float:
        """1-norm condition estimate of A − z·I, inf when singular: LAPACK ``gecon``
        dense, ``onenormest`` of the inverse sparse (t=1 draws no random probes)."""
        try:
            lu = self.lu
        except SingularMatrixError:
            return np.inf
        if isinstance(lu, tuple):
            gecon = lapack.get_lapack_funcs("gecon", (lu[0],))
            rcond, _ = gecon(lu[0], np.linalg.norm(self.m, 1), norm="1")
            return np.inf if rcond <= 0.0 else float(1.0 / rcond)
        inverse = spla.LinearOperator(self.m.shape, matvec=lu.solve, dtype=self.m.dtype,
                                      rmatvec=lambda x: lu.solve(x, trans="H"))
        return float(spla.onenormest(inverse, t=1) * spla.norm(self.m, 1))

    def solve(self, rhs) -> np.ndarray:
        m = self.m
        b = np.asarray(rhs, dtype=np.result_type(m.dtype, np.asarray(rhs).dtype))
        if b.shape[0] != m.shape[0]:
            raise InvalidInputError(f"rhs length {b.shape[0]} != matrix dim {m.shape[0]}")
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            return np.zeros_like(b)
        x = self._lu_solve(b)
        if not np.all(np.isfinite(x)):
            raise SingularMatrixError("solve produced non-finite entries; shifted matrix is singular")
        best_res = np.inf
        for _ in range(_MAX_REFINE):
            r = b - m @ x
            res = np.linalg.norm(r) / bnorm
            if not np.isfinite(res):
                raise SingularMatrixError("refinement diverged; shifted matrix is singular")
            if res <= _REFINE_TARGET:
                return x
            if res >= best_res * 0.5:
                break
            best_res = res
            x = x + self._lu_solve(r)
        r = b - m @ x
        res = float(np.linalg.norm(r) / bnorm)
        if res <= _REFINE_TARGET:
            return x
        raise SingularMatrixError(
            f"shifted system is singular to working precision: residual {res:.3e} "
            f"after refinement (target {_REFINE_TARGET:.0e})"
        )


# ----------------------------------------------------------------------
# shift-invert iteration


class _DenseFactor:
    def __init__(self, mat: np.ndarray):
        try:
            self.lu, self.piv = sla.lu_factor(mat, overwrite_a=True)
        except (sla.LinAlgError, ValueError) as exc:
            raise ShiftSingularError(f"shifted matrix is singular: {exc}") from exc
        if not np.all(np.isfinite(self.lu)):
            raise ShiftSingularError("shifted matrix factored to non-finite values")
        absd = np.abs(np.diag(self.lu))
        if absd.min() <= 1e-300 * max(absd.max(), 1.0):
            raise ShiftSingularError("shifted matrix is singular to working precision")

    def solve(self, b: np.ndarray) -> np.ndarray:
        return sla.lu_solve((self.lu, self.piv), b)


class _SparseFactor:
    def __init__(self, mat: sp.spmatrix):
        try:
            self.f = spla.splu(sp.csc_matrix(mat))
        except RuntimeError as exc:
            raise ShiftSingularError(f"shifted sparse matrix is singular: {exc}") from exc

    def solve(self, b: np.ndarray) -> np.ndarray:
        out = self.f.solve(b)
        if not np.all(np.isfinite(out)):
            raise ShiftSingularError("sparse factor returned non-finite solution")
        return out


def _shifted_factor(amat, bmat, z):
    if sp.issparse(amat):
        if bmat is None:
            shifted = amat - z * sp.identity(amat.shape[0], format="csr", dtype=amat.dtype)
        else:
            shifted = amat - z * bmat
        if np.iscomplexobj(np.asarray(z)) and not np.iscomplexobj(shifted.data):
            shifted = shifted.astype(np.complex128)
        return _SparseFactor(shifted)
    # The one working copy, in the Fortran order getrf factors in place.
    m = np.array(amat, dtype=np.result_type(amat.dtype, type(z)), order="F")
    if bmat is None:
        m[np.diag_indices(m.shape[0])] -= z
    elif sp.issparse(bmat):
        coo = bmat.tocoo()
        np.subtract.at(m, (coo.row, coo.col), z * coo.data)
    else:
        m -= z * bmat
    return _DenseFactor(m)


def _solver_matrix(a):
    """Dense array or CSR matrix suitable for factorization, from any accepted form."""
    if isinstance(a, Operator):
        if a.kind == "sparse":
            return a.to_sparse()
        if a.kind == "diagonal":
            return sp.diags(a.diagonal_data).tocsr()
        return a._data  # not a copy: the solver only reads it
    if sp.issparse(a):
        return sp.csr_matrix(a)
    return _as_2d_array(a)


def shift_invert_eigenpair(
    a,
    target,
    b=None,
    tol: float = 1e-10,
    max_iter: int = 200,
    seed: int = 12345,
    shifted_factor: Optional[Callable] = None,
) -> EigenResult:
    """Eigenpair of the pencil (A, B) found by inverse iteration from ``target``.

    Factors (A − target·B) once and reuses the factorization; when the
    iteration stalls (the residual stops contracting) it refactors at the
    current Rayleigh quotient, which restores fast convergence when the
    target was not close enough to the wanted eigenvalue. The Rayleigh
    quotient is the least-squares one, ⟨Bx, Ax⟩/⟨Bx, Bx⟩, so a singular B
    (a pencil with constraint rows) is handled without special casing.

    The result is not guaranteed to be the eigenvalue nearest ``target``.
    Inverse iteration heads for the eigenvalue nearest the current shift,
    and a refactorization moves that shift to the Rayleigh quotient of the
    iterate, which may lie closer to a neighbouring eigenvalue. What holds
    is that the returned pair meets ``tol`` on the residual; callers that
    need a particular root compare against an oracle.

    ``shifted_factor`` replaces the direct LU of (A − z·B): a callable
    taking the shift z and returning an object whose ``solve(b)`` applies
    (A − z·B)⁻¹, raising :class:`ShiftSingularError` for a singular shift.
    A and B are then used only for products, the Rayleigh quotient and the
    post-hoc residual.

    A and B are never modified; B may be dense, diagonal or sparse, and each
    factorization works on one copy of A minus z·B at B's stored entries.

    The start vector is drawn from a seeded generator, and the returned
    residual is recomputed independently after the loop, so repeated runs
    are bit-identical and the reported residual cannot drift from the
    iterate that produced it.

    Raises :class:`ShiftSingularError` when the shifted matrix cannot be
    factored (:func:`shift_invert_retry` perturbs the target and retries), and
    :class:`SolverFailureError` with diagnostics when the iteration budget
    is exhausted.
    """
    amat = _solver_matrix(a)
    bmat = None if b is None else _solver_matrix(b)
    if sp.issparse(amat) and bmat is not None and not sp.issparse(bmat):
        bmat = sp.csr_matrix(bmat)
    n = amat.shape[0]
    if bmat is not None and bmat.shape[0] != n:
        raise InvalidInputError(f"pencil dimension mismatch: {n} vs {bmat.shape[0]}")
    if max_iter < 1:
        raise InvalidInputError("max_iter must be at least 1")

    complex_problem = bool(np.iscomplexobj(np.asarray(target))) or np.iscomplexobj(
        amat.data if sp.issparse(amat) else amat
    )
    z = complex(target) if complex_problem else float(np.real(target))
    if shifted_factor is None:
        shifted_factor = functools.partial(_shifted_factor, amat, bmat)
    factor = shifted_factor(z)
    factorizations = 1
    shifts = [z]

    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    if complex_problem:
        v = v + 1j * rng.standard_normal(n)
    v = v / np.linalg.norm(v)

    best_res = np.inf
    best_pair = None
    prev_res = np.inf
    stall = 0
    iterations = 0

    for iterations in range(1, max_iter + 1):
        rhs = v if bmat is None else bmat @ v
        w = factor.solve(rhs)
        wnorm = np.linalg.norm(w)
        if not np.isfinite(wnorm) or wnorm == 0.0:
            raise SolverFailureError(
                "inverse iteration produced a non-finite or zero iterate",
                diagnostics={"iteration": iterations, "shift": z},
            )
        v = w / wnorm
        av = amat @ v
        bv = v if bmat is None else bmat @ v
        denom = np.vdot(bv, bv)
        if denom == 0.0:
            raise SolverFailureError(
                "iterate lies entirely in the B-kernel of the pencil",
                diagnostics={"iteration": iterations, "shift": z},
            )
        rq = np.vdot(bv, av) / denom
        res = float(np.linalg.norm(av - rq * bv))
        if res < best_res:
            best_res = res
            best_pair = (rq, v.copy())
        if res <= tol:
            break
        stall = stall + 1 if res > 0.7 * prev_res else 0
        prev_res = res
        if stall >= 2 and factorizations < _MAX_FACTORIZATIONS:
            # Refactor at the Rayleigh quotient; if that shift is an exact
            # eigenvalue the factorization is singular, so back off slightly.
            for nudge in (0.0, 1e-8, 1e-6):
                znew = rq + nudge * (1.0 + abs(rq))
                if not complex_problem:
                    znew = float(np.real(znew))
                try:
                    factor = shifted_factor(znew)
                except ShiftSingularError:
                    continue
                z = znew
                factorizations += 1
                shifts.append(z)
                stall = 0
                prev_res = np.inf
                break
    else:
        raise SolverFailureError(
            f"shift-invert did not reach tol={tol:.1e} in {max_iter} iterations",
            diagnostics={
                "iterations": max_iter,
                "best_residual": best_res,
                "shift_history": shifts,
            },
        )
    if best_pair is None or best_res > tol:
        raise SolverFailureError(
            "shift-invert terminated without a residual at tolerance",
            diagnostics={"iterations": iterations, "best_residual": best_res},
        )

    value, vec = best_pair
    vec = vec.copy()
    # Deterministic phase: largest-magnitude entry made real and positive.
    k = int(np.argmax(np.abs(vec)))
    pivot = vec[k]
    if pivot != 0:
        vec = vec * (np.conj(pivot) / abs(pivot))
    if not complex_problem and abs(np.imag(value)) <= 1e-10 * (1.0 + abs(value)):
        value = float(np.real(value))
        if np.iscomplexobj(vec):
            vec = np.real(vec) / np.linalg.norm(np.real(vec))
    # Independent post-hoc residual on the vector actually returned.
    av = amat @ vec
    bv = vec if bmat is None else bmat @ vec
    final_res = float(np.linalg.norm(av - value * bv) / np.linalg.norm(vec))
    if final_res > tol:
        raise SolverFailureError(
            "post-hoc residual exceeds tolerance after phase normalization",
            diagnostics={"residual": final_res, "tol": tol},
        )
    return EigenResult(
        value=value,
        vector=vec,
        residual_norm=final_res,
        iterations=iterations,
        method="shift-invert-rq",
        factorizations=factorizations,
        shift_history=tuple(shifts),
    )


def shift_invert_retry(
    a,
    target,
    b=None,
    tol: float = 1e-10,
    max_iter: int = 200,
    seed: int = 12345,
    shifted_factor: Optional[Callable] = None,
) -> EigenResult:
    """:func:`shift_invert_eigenpair` from ``target``, nudged off a singular shift.

    A singular start shift only means the target is an eigenvalue, so the
    target t is retried at t + 1e−8·(1 + |t|) and then at
    t′ + 1.01e−6·(1 + |t′|) before the last :class:`ShiftSingularError` is
    re-raised. Every other argument is passed through unchanged.
    """
    shift = float(target)
    last = None
    for attempt in range(3):
        try:
            return shift_invert_eigenpair(
                a, shift, b=b, tol=tol, max_iter=max_iter, seed=seed,
                shifted_factor=shifted_factor,
            )
        except ShiftSingularError as exc:
            last = exc
            shift = shift + (1e-8 + attempt * 1e-6) * (1.0 + abs(shift))
    raise last


# ----------------------------------------------------------------------
# spectrum comparison


@dataclass(frozen=True)
class SpectrumMatch:
    """Greedy pairing of two eigenvalue multisets.

    ``max_distance`` is the largest matched |a - b|; pairs are reported in
    the order the first multiset was traversed (sorted by (real, imag)).
    Greedy matching is not an optimal assignment, but at the tolerances used
    here the spectra either match far below level spacing or fail loudly, so
    the cheap matcher is adequate and deterministic.
    """

    pairs: tuple
    distances: np.ndarray
    max_distance: float


def _sorted_complex(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128).ravel()
    order = np.lexsort((arr.imag, arr.real))
    return arr[order]


def _greedy_match(a: np.ndarray, pool: np.ndarray) -> tuple[list, np.ndarray]:
    used = np.zeros(pool.shape[0], dtype=bool)
    pairs = []
    dists = np.empty(a.shape[0])
    for i, val in enumerate(a):
        d = np.abs(pool - val)
        d[used] = np.inf
        j = int(np.argmin(d))
        used[j] = True
        pairs.append((val, pool[j]))
        dists[i] = d[j]
    return pairs, dists


def match_spectra(computed, reference) -> SpectrumMatch:
    """Match two equal-size eigenvalue multisets greedily, nearest first.

    Both multisets are sorted by (real, imag); each reference value then
    claims the nearest unused computed value. The maximum matched distance
    is the figure of merit quoted by every spectrum identity check.
    """
    a = _sorted_complex(reference)
    b = _sorted_complex(computed)
    if a.shape[0] != b.shape[0]:
        raise InvalidInputError(
            f"spectrum size mismatch: {b.shape[0]} computed vs {a.shape[0]} reference"
        )
    pairs, dists = _greedy_match(a, b)
    return SpectrumMatch(pairs=tuple(pairs), distances=dists, max_distance=float(dists.max()))


def match_into(values, pool) -> SpectrumMatch:
    """Match each value to a distinct nearest element of a larger pool.

    Used for containment checks (every eigenvalue of a restricted problem
    must appear somewhere in a bigger pencil spectrum). Each pool element is
    claimed at most once so multiplicities are respected.
    """
    a = _sorted_complex(values)
    b = _sorted_complex(pool)
    if a.shape[0] > b.shape[0]:
        raise InvalidInputError(f"cannot match {a.shape[0]} values into a pool of {b.shape[0]}")
    pairs, dists = _greedy_match(a, b)
    return SpectrumMatch(pairs=tuple(pairs), distances=dists, max_distance=float(dists.max()))


def dump_matrix_text(path, a) -> None:
    """Write a real dense matrix as text: '# rows cols' then one row per line.

    Entries are '%.17g' separated by single spaces, which round-trips double
    precision exactly. Complex matrices are refused; debugging dumps are
    only defined for the real assembled operators.
    """
    mat = _coerce_matrix(a)
    if np.iscomplexobj(mat):
        raise InvalidInputError("matrix dump is defined for real matrices only")
    with open(path, "w") as fh:
        fh.write(f"# {mat.shape[0]} {mat.shape[1]}\n")
        for row in mat:
            fh.write(" ".join(f"{x:.17g}" for x in row))
            fh.write("\n")
