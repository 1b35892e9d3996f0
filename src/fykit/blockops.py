"""Operators, block operators, and the dense/iterative eigen and solve kernels.

Every other module builds on the two containers here. :class:`Operator` wraps
one square linear map as a diagonal vector or a sparse (CSR) matrix.
:class:`BlockOperator` is an m-by-m grid of same-sized optional blocks whose
:meth:`~BlockOperator.flatten` produces the single big operator the eigen
kernels consume.

All scalars are double precision. Eigenvalues may be complex: the coupled
component operators assembled downstream are non-Hermitian even when the
underlying Hamiltonian is Hermitian, so the dense kernel is a general
(Hessenberg + QR) routine, not a symmetric one.

Every factorization, of a lattice operator or of a small random split, is a
SuperLU one (:func:`_splu`) owned by a :class:`_Resolvent` of A − z·B, which
reads its operands' stored CSR without copying them and reports an exactly
singular matrix as :class:`ShiftSingularError`, a :class:`SingularMatrixError`.
SuperLU orders the columns by minimum degree on Aᵀ + A when the diagonal is
zero-free: the lattice matrices have a symmetric nonzero pattern,
and on a lattice H − z that ordering has about half the fill of scipy's
default COLAMD, which every other matrix keeps. Every dense copy, for the
dense eigensolvers, the oracles or a matrix dump, is made by one gate,
``_dense``, which refuses a dimension above :data:`DENSE_LIMIT` (4096) before
it allocates anything; beyond the cap only the shift-invert path is
available. A grid flattens sparse, from one set of COO triplets per distinct
block object (a coupled grid repeats a few operators in many slots). The
lattice solvers factor only
H − z (d-dimensional), solve H0 − z and the channels H0 + Vα − z through their
Kronecker diagonalizations (:class:`fykit.lattice.KroneckerChannel`) and use
the flattens for products; the hard-core pencil A − zB itself is factored only
next to σ(H0). The post-hoc checks solve their shifted systems through
:func:`linear_solve`, by conjugate gradients when a Gershgorin bound proves the
matrix positive definite (H0 − z below the free spectrum) and by SuperLU
otherwise.

Every shift-invert solve in the package goes through
:func:`shift_invert_eigenpair`, which steps every factorization off a
singular shift by one ladder (:func:`_factor_stepping_off`).
"""

from __future__ import annotations

import ctypes
import functools
import operator
import os
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
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
    "DENSE_LIMIT",
    "dense_eigenvalues",
    "linear_solve",
    "shift_invert_eigenpair",
    "match_into",
    "dump_matrix_text",
]

# Largest dimension of which a dense copy is made (dense eigensolvers, oracles,
# matrix dumps); no factorization and no flatten is capped by it.
DENSE_LIMIT = 4096

_REFINE_TARGET = 1e-12
_MAX_REFINE = 10
# a conjugate-gradient column whose recursive residual has not fallen over
# this many steps stops
_CG_STALL = 10
_MAX_FACTORIZATIONS = 12


def _as_2d_array(a) -> np.ndarray:
    arr = np.asarray(a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidInputError(f"expected a square 2-D array, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.number):
        raise InvalidInputError(f"expected numeric entries, got dtype {arr.dtype}")
    return arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64, copy=False)


def _diagonal_csr(d: np.ndarray) -> sp.csr_matrix:
    """``sp.diags(d).tocsr()`` of the 1-D array d, built directly from arrays:
    d's nonzero entries on the diagonal (zeros, −0.0 included, are dropped),
    with scipy's int32 indices."""
    nonzero = d != 0
    indptr = np.zeros(d.size + 1, dtype=np.int32)
    np.cumsum(nonzero, out=indptr[1:])
    cols = np.flatnonzero(nonzero)
    return sp.csr_matrix((d[cols], cols.astype(np.int32), indptr), shape=(d.size, d.size))


def _stored_csr(a) -> sp.csr_matrix:
    """The CSR matrix of an :class:`Operator`, a scipy sparse matrix or a square
    numeric 2-D array: the stored one itself when it is CSR, so only for reads."""
    return (a if isinstance(a, Operator) else Operator.sparse(a))._csr()


class Operator:
    """A square linear map with one of two storage kinds.

    Kinds: ``diagonal`` (1-D array of the diagonal) and ``sparse`` (scipy
    CSR; a fully populated matrix is stored sparse too). Both kinds can be
    materialized. Instances are immutable; arithmetic returns new operators,
    diagonal when both operands are and sparse otherwise.
    """

    __slots__ = ("kind", "dim", "_data")

    def __init__(self, kind: str, dim: int, data):
        if kind not in ("diagonal", "sparse"):
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
    def diagonal(cls, d) -> "Operator":
        vec = np.asarray(d)
        if vec.ndim != 1:
            raise InvalidInputError(f"diagonal data must be 1-D, got shape {vec.shape}")
        vec = vec.astype(np.complex128 if np.iscomplexobj(vec) else np.float64, copy=False)
        return cls("diagonal", vec.shape[0], data=vec)

    @classmethod
    def sparse(cls, m) -> "Operator":
        """From a scipy sparse matrix, or from a square numeric 2-D array.

        Array input is stored as float64 or complex128; non-numeric (bool
        included) or non-square arrays raise :class:`InvalidInputError`. A
        CSR matrix is stored as it is, not copied.
        """
        if not isinstance(m, sp.csr_matrix):
            m = sp.csr_matrix(m if sp.issparse(m) else _as_2d_array(m))
        if m.shape[0] != m.shape[1]:
            raise InvalidInputError(f"expected a square sparse matrix, got {m.shape}")
        return cls("sparse", m.shape[0], data=m)

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
        if self.kind == "diagonal":
            return np.diag(self._data)
        return self._data.toarray()

    def to_sparse(self) -> sp.csr_matrix:
        """A CSR copy, which the caller may modify."""
        return self._csr() if self.kind == "diagonal" else self._data.copy()

    def _csr(self) -> sp.csr_matrix:
        """This operator as CSR, the stored matrix itself when sparse: only for
        reads whose result is a new matrix anyway."""
        if self.kind == "diagonal":
            return _diagonal_csr(self._data)
        return self._data

    @property
    def diagonal_data(self) -> np.ndarray:
        if self.kind != "diagonal":
            raise InvalidInputError(f"operator kind is {self.kind}, not diagonal")
        return self._data

    # -- arithmetic -----------------------------------------------------

    def _binary(self, other: "Operator", op: Callable) -> "Operator":
        if not isinstance(other, Operator):
            return NotImplemented
        if other.dim != self.dim:
            raise InvalidInputError(f"dimension mismatch {self.dim} vs {other.dim}")
        if self.kind == "diagonal" and other.kind == "diagonal":
            return Operator.diagonal(op(self._data, other._data))
        return Operator.sparse(op(self._csr(), other._csr()))

    def __add__(self, other):
        return self._binary(other, operator.add)

    def __sub__(self, other):
        return self._binary(other, operator.sub)

    def __neg__(self):
        return self * (-1.0)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
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
        """The (m·d)-dimensional sparse operator with this block layout.

        The blocks' COO triplets at their block offsets, in an explicit
        (m·d)-square shape, so empty block rows and columns keep their place
        and an all-absent grid is the empty matrix. Each distinct block object
        gives its triplets once; a diagonal block's are its nonzero entries,
        the ones ``to_sparse`` keeps.
        """
        d, n = self.block_dim, self.dim
        present = [(i, j, e) for i, row in enumerate(self.entries)
                   for j, e in enumerate(row) if e is not None]
        dtype = np.result_type(np.float64, *(e._data.dtype for _, _, e in present))
        if not present:
            return Operator.sparse(sp.csr_matrix((n, n), dtype=dtype))
        triplets: dict = {}  # id(block) -> (rows, cols, values); the grid keeps every block alive
        for _, _, e in present:
            if id(e) not in triplets:
                if e.kind == "diagonal":
                    nz = np.flatnonzero(e._data)
                    triplets[id(e)] = (nz, nz, e._data[nz])
                else:
                    c = e._data  # row of each stored entry, without a COO copy
                    rows = np.repeat(np.arange(d), np.diff(c.indptr))
                    triplets[id(e)] = (rows, c.indices, c.data)
        pieces = [triplets[id(e)] for _, _, e in present]
        rows, cols, vals = (np.concatenate(part) for part in zip(*pieces))
        # the block offsets, repeated per entry and added in place: the indices keep their dtype
        sizes = [v.size for _, _, v in pieces]
        rows += np.repeat([i * d for i, _, _ in present], sizes)
        cols += np.repeat([j * d for _, j, _ in present], sizes)
        return Operator.sparse(sp.csr_matrix((vals, (rows, cols)), shape=(n, n), dtype=dtype))

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
    shift_history: tuple = ()

    @property
    def factorizations(self) -> int:
        """The number of shifts factored, one per entry of ``shift_history``."""
        return len(self.shift_history)


# ----------------------------------------------------------------------
# dense kernels


def _dense(a, what: str) -> np.ndarray:
    """The dense array of an :class:`Operator`, a scipy sparse matrix or a square
    numeric 2-D array; ``what`` is refused with :class:`TooLargeError` when
    the dimension exceeds :data:`DENSE_LIMIT`, before anything is allocated."""
    n = a.dim if isinstance(a, Operator) else (np.shape(a) or (0,))[0]
    if n > DENSE_LIMIT:
        raise TooLargeError(f"{what} refused: dim {n} exceeds limit {DENSE_LIMIT}")
    if isinstance(a, Operator):
        return a.materialize()
    if sp.issparse(a):
        return a.toarray()
    return _as_2d_array(a)


def dense_eigenvalues(a, hermitian: bool = False) -> np.ndarray:
    """All eigenvalues of a materializable operator, sorted by (real, imag).

    Delegates to LAPACK's Hessenberg + shifted-QR path (or the symmetric
    tridiagonal path when ``hermitian`` is set, in which case the result is
    real). Refuses dimensions above :data:`DENSE_LIMIT`.
    """
    mat = _dense(a, "dense eigenvalues")
    n = mat.shape[0]
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
    """Solve (A − z·I)·x = rhs, by conjugate gradients when that is proven safe.

    When A − z·I is real, sparse, exactly symmetric and has all its Gershgorin
    discs in (0, ∞), so that it is positive definite (:func:`_gershgorin_positive`),
    conjugate gradients solve it on its CSR matrix alone; otherwise SuperLU
    factors it and iterative refinement follows. Either way
    each returned column has a true residual at or below 1e-12 relative to its
    right-hand side: a conjugate-gradient column that misses it is solved
    again by the LU path, and a system the LU path cannot bring to that
    target is reported as singular to working precision rather than returned
    silently degraded; an exactly singular one raises :class:`ShiftSingularError`,
    a :class:`SingularMatrixError` too. A zero right-hand side returns zeros
    without factoring. A is read as stored, never copied or modified.
    """
    return _Resolvent(a, z).solve(rhs)


def _gershgorin_positive(m: sp.csr_matrix) -> bool:
    """Whether conjugate gradients may solve with the CSR matrix m: m is real,
    sparse, exactly symmetric, and every Gershgorin disc lies in (0, ∞),
    which makes m positive definite.

    Disc i is centred on m_ii with radius Σ_{j≠i}|m_ij|. The rounding of the
    radius sums is covered by a margin of (row nonzeros)·ε times the row's
    absolute sum, so a lower bound of exactly 0 (H0 − z at z = 0) never passes.
    Sparse means at most n²/3 stored entries: then even n steps, the most
    :func:`_conjugate_gradients` takes, cost no more than a dense LU
    (2·nnz flops a step against 2n³/3), while a fully populated matrix, such
    as a random split's, is cheaper to factor.
    """
    n = m.shape[0]
    if 3 * m.nnz > n * n or np.iscomplexobj(m.data):
        return False
    rows = np.repeat(np.arange(n), np.diff(m.indptr))
    cols = m.indices.astype(np.int64)
    # sorted by the key of its transposed position, each entry must land on an
    # entry of m (row-major keys) with the same value; a non-canonical m fails
    flipped = np.argsort(cols * n + rows)
    if not (np.array_equal(cols[flipped] * n + rows[flipped], rows * n + cols)
            and np.array_equal(m.data[flipped], m.data)):
        return False
    off = cols != rows
    radius = np.bincount(rows[off], np.abs(m.data[off]), minlength=n)
    diag = m.diagonal()
    margin = np.diff(m.indptr) * np.finfo(np.float64).eps * (np.abs(diag) + radius)
    return bool(np.all(diag - radius > margin))


def _conjugate_gradients(m: sp.csr_matrix, b: np.ndarray) -> np.ndarray:
    """Conjugate gradients (Hestenes & Stiefel, J. Res. NBS 49, 1952) on every
    column of b at once, for a Hermitian positive definite m.

    A column stops when its recursive residual reaches ε·‖b_j‖, when it is no
    smaller than ``_CG_STALL`` steps before, or after dim m steps; the caller
    certifies the result.
    """
    def dot(u, v):
        return np.vecdot(u, v, axis=0).real  # conjugates u

    x = np.zeros_like(b)
    rho = dot(b, b)
    cols = np.flatnonzero(rho > 0.0)
    r, rho = np.ascontiguousarray(b[:, cols]), rho[cols]  # m @ p copies a non-C-order p
    xc, p = np.zeros_like(r), r.copy()
    stop, earlier = np.finfo(np.float64).eps ** 2 * rho, rho
    for step in range(1, m.shape[0] + 1):
        if cols.size == 0:
            return x
        q = m @ p
        alpha = rho / dot(p, q)
        xc += alpha * p
        r -= alpha * q
        rho_new = dot(r, r)
        p *= rho_new / rho
        p += r
        rho = rho_new
        going = rho > stop  # False on NaN too
        if step % _CG_STALL == 0:
            going &= rho < earlier
            earlier = rho
        if not going.all():
            x[:, cols[~going]] = xc[:, ~going]
            cols, rho, stop, earlier = cols[going], rho[going], stop[going], earlier[going]
            xc, r, p = (np.ascontiguousarray(a[:, going]) for a in (xc, r, p))
    x[:, cols] = xc
    return x


class _Resolvent:
    """(A − z·B)⁻¹, B the identity unless given, for any number of right-hand
    sides: the one owner of a SuperLU factorization in the package.

    A and B (each an :class:`Operator`, a scipy sparse matrix or a 2-D array)
    are read as stored, never copied. A − z·I subtracts z only where z·1 is
    nonzero, so at z = ±0 it keeps A's entries as they are. SuperLU runs on
    first use and reports an exactly singular matrix as
    :class:`ShiftSingularError`.

    ``solve`` is certified, as :func:`linear_solve` documents. When A − z·B
    passes :func:`_gershgorin_positive`, ``positive`` holds its CSR matrix and
    :func:`_conjugate_gradients` solves all columns at once; a column whose
    true residual exceeds ``_REFINE_TARGET`` relative to its right-hand side
    goes to the LU path, which refines each column on its own and raises
    :class:`SingularMatrixError` when it cannot reach the target. The
    certificate is built on the first ``solve``.

    With ``refine=False`` (shift-invert) the matrix is factored at once and
    ``solve`` is the bare LU solve: no certificate, no refinement, and a
    non-finite result raises :class:`ShiftSingularError`. On a real factor a
    complex right-hand side is solved as its real and imaginary parts.
    """

    def __init__(self, a, z, b=None, refine=True):
        mat = _stored_csr(a)
        self.shifted = mat - (_diagonal_csr(z * np.ones(mat.shape[0])) if b is None
                              else z * _stored_csr(b))
        self.dtype, self.refine = self.shifted.dtype, refine
        if not refine:
            self.lu  # a singular shift raises here, where the shift-invert step-off expects it

    @functools.cached_property
    def positive(self) -> Optional[sp.csr_matrix]:
        return self.shifted if _gershgorin_positive(self.shifted) else None

    @functools.cached_property
    def m(self):
        """A − z·B in CSC form, as SuperLU takes it."""
        return sp.csc_matrix(self.shifted)

    @functools.cached_property
    def lu(self):
        try:
            return _splu(self.m)
        except (ValueError, RuntimeError) as exc:  # RuntimeError: exactly singular
            raise ShiftSingularError(f"shifted sparse matrix is singular: {exc}") from exc

    def _back_solve(self, b):
        if np.iscomplexobj(b) and not np.iscomplexobj(self.m.data):  # SuperLU keeps its dtype
            return self.lu.solve(b.real) + 1j * self.lu.solve(b.imag)
        return self.lu.solve(b)

    def solve(self, rhs) -> np.ndarray:
        if not self.refine:
            x = self._back_solve(rhs)
            if not np.all(np.isfinite(x)):
                raise ShiftSingularError("sparse factor returned non-finite solution")
            return x
        # C order: the conjugate-gradient and LU paths round differently on other layouts
        b = np.ascontiguousarray(rhs, dtype=np.result_type(self.dtype, np.asarray(rhs).dtype))
        if b.shape[0] != self.shifted.shape[0]:
            raise InvalidInputError(
                f"rhs length {b.shape[0]} != matrix dim {self.shifted.shape[0]}")
        if self.positive is not None:
            return self._cg_solve(b)
        cols = b.reshape(b.shape[0], -1)
        x = np.zeros_like(cols)
        for j in range(cols.shape[1]):
            x[:, j] = self._lu_solve(cols[:, j])
        return x.reshape(b.shape)

    def _cg_solve(self, b: np.ndarray) -> np.ndarray:
        """Conjugate gradients on the columns of b; a column whose true residual
        exceeds ``_REFINE_TARGET`` relative to its right-hand side is solved by
        ``_lu_solve`` instead."""
        cols = b.reshape(b.shape[0], -1)
        x = _conjugate_gradients(self.positive, cols)
        res = np.linalg.norm(cols - self.positive @ x, axis=0)
        certified = res <= _REFINE_TARGET * np.linalg.norm(cols, axis=0)
        for j in np.flatnonzero(~certified):
            x[:, j] = self._lu_solve(cols[:, j])
        return x.reshape(b.shape)

    def _lu_solve(self, b: np.ndarray) -> np.ndarray:
        """One column through the LU factors, refined until its residual is at
        or below ``_REFINE_TARGET`` relative to ‖b‖ or stops improving."""
        m = self.m
        b = np.ascontiguousarray(b)
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            return np.zeros_like(b)
        x = self._back_solve(b)
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
            x = x + self._back_solve(r)
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


def _splu(mat):
    """SuperLU factors of ``mat``, run with fd 1 and fd 2 on the null device.

    When every diagonal entry is stored and nonzero, the columns are ordered
    by multiple minimum degree on the pattern of Aᵀ + A, the standard
    ordering for a structurally symmetric matrix (George & Liu, SIAM Review
    31, 1989), which every lattice H − z, H0 − z and channel is. SuperLU's
    symmetric mode applies that permutation to the rows too, so the diagonal
    stays on the diagonal, and partial pivoting (the default threshold of 1)
    takes it wherever it is largest in its column; on the diagonally heavy
    lattice matrices the fill then stays what the ordering predicts, half of
    COLAMD's on an N=3 L=12 H − z. Without symmetric mode the same ordering
    factors slower than COLAMD.

    A matrix with a zero or missing diagonal entry keeps scipy's default
    COLAMD ordering. The minimum-degree ordering assumes a zero-free
    diagonal: on the structurally singular hard-core pencil A − zB at a
    defective root (z = 6t for three free particles on three sites) it
    makes SuperLU pass illegal sizes to the BLAS and corrupt the heap, which
    crashed the interpreter a few factorizations later.

    SuperLU failing on an exactly singular matrix makes the BLAS print
    ``** On entry to DGEMV ...`` through C stdio, which would land in the
    CLI's stdout. Python's and C's buffers are flushed on each switch, so
    only what is printed during the factorization is discarded.
    """
    ordering = {}
    if np.all(mat.diagonal() != 0):
        ordering = {"permc_spec": "MMD_AT_PLUS_A", "options": {"SymmetricMode": True}}
    fflush = ctypes.CDLL(None).fflush
    fflush.argtypes, fflush.restype = [ctypes.c_void_p], ctypes.c_int
    sys.stdout.flush()
    sys.stderr.flush()
    fflush(None)
    saved = [os.dup(1), os.dup(2)]
    sink = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(sink, 1)
        os.dup2(sink, 2)
        return spla.splu(mat, **ordering)
    finally:
        fflush(None)
        os.dup2(saved[0], 1)
        os.dup2(saved[1], 2)
        for fd in (*saved, sink):
            os.close(fd)


def _factor_stepping_off(shifted_factor: Callable, z):
    """``(shifted_factor(z), z)``, or the same at the first of z′ = z + 1e−8·(1 + |z|)
    and z′ + 1.01e−6·(1 + |z′|) that is not singular; when all three are, the
    last :class:`ShiftSingularError` is re-raised."""
    for step in (1e-8, 1e-8 + 1e-6, None):
        try:
            return shifted_factor(z), z
        except ShiftSingularError:
            if step is None:
                raise
            z = z + step * (1.0 + abs(z))


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

    A and B may each be an :class:`Operator`, a scipy sparse matrix or a
    2-D array. Their stored CSR is read, never copied or modified, and the
    default factor is a :class:`_Resolvent` of A − z·B in its bare mode:
    one SuperLU factorization, solved without refinement.

    The start vector is drawn from a seeded generator, and the returned
    residual is recomputed independently after the loop, so repeated runs
    are bit-identical and the reported residual cannot drift from the
    iterate that produced it.

    Every factorization, at ``target`` and at each Rayleigh quotient, steps
    off a singular shift (:func:`_factor_stepping_off`); a refactorization
    that cannot ends refactoring, and the iteration goes on with the factor
    in hand. Raises :class:`ShiftSingularError`
    when the start shift cannot be stepped off or a solve is non-finite, and
    :class:`SolverFailureError` with diagnostics when the iteration budget
    is exhausted.
    """
    amat = _stored_csr(a)
    bmat = None if b is None else _stored_csr(b)
    n = amat.shape[0]
    if bmat is not None and bmat.shape[0] != n:
        raise InvalidInputError(f"pencil dimension mismatch: {n} vs {bmat.shape[0]}")
    if max_iter < 1:
        raise InvalidInputError("max_iter must be at least 1")

    complex_problem = bool(np.iscomplexobj(np.asarray(target))) or np.iscomplexobj(amat.data)
    z = complex(target) if complex_problem else float(np.real(target))
    if shifted_factor is None:
        shifted_factor = functools.partial(_Resolvent, amat, b=bmat, refine=False)
    factor, z = _factor_stepping_off(shifted_factor, z)
    shifts = [z]

    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    if complex_problem:
        v = v + 1j * rng.standard_normal(n)
    v = v / np.linalg.norm(v)

    best_res = np.inf  # for the failure diagnostics only
    prev_res = np.inf
    stall = 0
    budget = _MAX_FACTORIZATIONS  # cut to the shifts in hand when a refactor fails

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
        best_res = min(best_res, res)
        if res <= tol:
            break
        stall = stall + 1 if res > 0.7 * prev_res else 0
        prev_res = res
        if stall >= 2 and len(shifts) < budget:
            try:  # refactor at the Rayleigh quotient
                factor, z = _factor_stepping_off(
                    shifted_factor, rq if complex_problem else float(np.real(rq)))
            except ShiftSingularError:
                budget = len(shifts)  # keep the factor in hand for the rest of the run
                continue
            shifts.append(z)
            stall = 0
            prev_res = np.inf
    else:
        raise SolverFailureError(
            f"shift-invert did not reach tol={tol:.1e} in {max_iter} iterations",
            diagnostics={
                "iterations": max_iter,
                "best_residual": best_res,
                "shift_history": shifts,
            },
        )

    value, vec = rq, v
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
        shift_history=tuple(shifts),
    )


# ----------------------------------------------------------------------
# spectrum comparison


def _sorted_complex(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128).ravel()
    order = np.lexsort((arr.imag, arr.real))
    return arr[order]


def match_into(values, pool) -> float:
    """The largest distance at which each value matches a distinct element of
    a larger pool.

    Used for containment checks (every eigenvalue of a restricted problem
    must appear somewhere in a bigger pencil spectrum). The values, sorted by
    (real, imag), each claim the nearest pool element not yet claimed, so
    multiplicities are respected. Greedy matching is not an optimal
    assignment, but at the tolerances used here the spectra either match far
    below level spacing or fail loudly, so the cheap matcher is adequate and
    deterministic. A NaN distance makes the result NaN.
    """
    a = _sorted_complex(values)
    pool = _sorted_complex(pool)
    if a.shape[0] > pool.shape[0]:
        raise InvalidInputError(f"cannot match {a.shape[0]} values into a pool of {pool.shape[0]}")
    used = np.zeros(pool.shape[0], dtype=bool)
    dists = np.empty(a.shape[0])
    for i, val in enumerate(a):
        d = np.abs(pool - val)
        d[used] = np.inf
        j = int(np.argmin(d))
        used[j] = True
        dists[i] = d[j]
    return float(dists.max())


def dump_matrix_text(path, a) -> None:
    """Write a real dense matrix as text: '# rows cols' then one row per line.

    Entries are '%.17g' separated by single spaces, which round-trips double
    precision exactly. Complex matrices, and dimensions above
    :data:`DENSE_LIMIT`, are refused before the file is opened; debugging
    dumps are only defined for the real assembled operators.
    """
    mat = _dense(a, "matrix dump")
    if np.iscomplexobj(mat):
        raise InvalidInputError("matrix dump is defined for real matrices only")
    with open(path, "w") as fh:
        fh.write(f"# {mat.shape[0]} {mat.shape[1]}\n")
        for row in mat:
            fh.write(" ".join(f"{x:.17g}" for x in row))
            fh.write("\n")
