"""``_Resolvent`` against transcriptions of the factor wrappers it replaced.

Before ``_Resolvent`` owned every SuperLU factorization, shift-invert factored
A − z·B through ``_shifted_factor`` and ``_SparseFactor``, and the certified
solves went through a ``_Resolvent`` that copied A and reported every SuperLU
failure as :class:`SingularMatrixError`. The transcriptions below are those
classes as they were, less the old certified solve's conjugate-gradient
branch: a ``_Resolvent`` given no first solver takes the LU path for every
column. The properties check that the one class gives the same bytes: the
solutions and the raised exception types.

The two old A − z·I constructions differ at z = ±0 on complex matrices with
signed-zero entries: ``_shifted_factor`` subtracted the stored zeros of
z·I, flipping a −0.0 part to +0.0, where the old ``_Resolvent`` left A's
entries as they are. The one class keeps the latter. There, and only there,
the bare solve is compared with ``_SparseFactor`` on the kept matrix.

``_SparseFactor`` raised scipy's ``TypeError`` for a complex right-hand side
on a real factor. The bare solve now solves its real and imaginary parts,
as the certified solve always did, so there it is compared with
``_SparseFactor``'s solves of the two parts.
"""

import functools

import numpy as np
import scipy.sparse as sp
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import POTENTIALS
from fykit import blockops
from fykit.blockops import Operator, _Resolvent
from fykit.errors import ShiftSingularError, SingularMatrixError
from fykit.faddeev import random_split
from fykit.hardcore import assemble_hardcore3_pencil
from fykit.lattice import LatticeModel, build_hamiltonian, h0_spectrum, hamiltonian_terms

# ----------------------------------------------------------------------
# the replaced wrappers, transcribed


def _old_solver_matrix(a):
    return (a if isinstance(a, Operator) else Operator.sparse(a)).to_sparse()


class _OldSparseFactor:
    def __init__(self, mat):
        try:
            self.f = blockops._splu(sp.csc_matrix(mat))
        except RuntimeError as exc:
            raise ShiftSingularError(f"shifted sparse matrix is singular: {exc}") from exc

    def solve(self, b):
        out = self.f.solve(b)
        if not np.all(np.isfinite(out)):
            raise ShiftSingularError("sparse factor returned non-finite solution")
        return out


def _old_shifted_matrix(amat, bmat, z):
    if bmat is None:
        shifted = amat - z * sp.identity(amat.shape[0], format="csr", dtype=amat.dtype)
    else:
        shifted = amat - z * bmat
    if np.iscomplexobj(np.asarray(z)) and not np.iscomplexobj(shifted.data):
        shifted = shifted.astype(np.complex128)
    return shifted


class _OldResolvent:
    def __init__(self, a, z):
        mat = _old_solver_matrix(a)
        self.dtype = np.result_type(mat.dtype, type(z))
        self.shifted = mat - blockops._diagonal_csr(z * np.ones(mat.shape[0]))

    @functools.cached_property
    def m(self):
        return sp.csc_matrix(self.shifted, dtype=self.dtype)

    @functools.cached_property
    def lu(self):
        try:
            return blockops._splu(self.m)
        except (ValueError, RuntimeError) as exc:
            raise SingularMatrixError(f"LU factorization failed: {exc}") from exc

    def _back_solve(self, b):
        if np.iscomplexobj(b) and not np.iscomplexobj(self.m.data):
            return self.lu.solve(b.real) + 1j * self.lu.solve(b.imag)
        return self.lu.solve(b)

    def solve(self, rhs):
        b = np.ascontiguousarray(rhs, dtype=np.result_type(self.dtype, np.asarray(rhs).dtype))
        cols = b.reshape(b.shape[0], -1)
        x = np.zeros_like(cols)
        for j in range(cols.shape[1]):
            x[:, j] = self._lu_solve(cols[:, j])
        return x.reshape(b.shape)

    def _lu_solve(self, b):
        m, target = self.m, blockops._REFINE_TARGET
        b = np.ascontiguousarray(b)
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            return np.zeros_like(b)
        x = self._back_solve(b)
        if not np.all(np.isfinite(x)):
            raise SingularMatrixError("solve produced non-finite entries; shifted matrix is singular")
        best_res = np.inf
        for _ in range(blockops._MAX_REFINE):
            r = b - m @ x
            res = np.linalg.norm(r) / bnorm
            if not np.isfinite(res):
                raise SingularMatrixError("refinement diverged; shifted matrix is singular")
            if res <= target:
                return x
            if res >= best_res * 0.5:
                break
            best_res = res
            x = x + self._back_solve(r)
        r = b - m @ x
        if float(np.linalg.norm(r) / bnorm) <= target:
            return x
        raise SingularMatrixError("shifted system is singular to working precision")


# ----------------------------------------------------------------------
# comparison


def _outcome(run):
    """The bytes, dtype and shape of ``run()``, or the type of what it raised."""
    try:
        x = run()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)
    x = np.asarray(x)
    return x.dtype, x.shape, x.tobytes()


def _layout(m):
    return m.shape, m.data.dtype, m.data.tobytes(), m.indices.tobytes(), m.indptr.tobytes()


def _kind(outcome) -> str:
    return outcome.__name__ if isinstance(outcome, type) else "solved"


def check_against_the_references(a, z, rhs, b=None):
    """The one class against the transcriptions, on one operand set."""
    amat = _old_solver_matrix(a)
    bmat = None if b is None else _old_solver_matrix(b)
    # the bare solve of shift-invert, against _shifted_factor and _SparseFactor
    old_matrix = _old_shifted_matrix(amat, bmat, z)
    kept = old_matrix if b is not None else _OldResolvent(a, z).shifted
    if _layout(old_matrix) != _layout(kept):
        event("the two old constructions differ")
        assert z == 0 and np.iscomplexobj(old_matrix.data)
    want = _outcome(lambda: _OldSparseFactor(kept).solve(rhs))
    if want is TypeError:  # a complex rhs on a real factor
        event("bare: complex rhs on a real factor")
        old_factor = _OldSparseFactor(kept)
        want = _outcome(lambda: old_factor.solve(rhs.real) + 1j * old_factor.solve(rhs.imag))
    got = _outcome(lambda: _Resolvent(a, z, b, refine=False).solve(rhs))
    event(f"bare: {_kind(want)}")
    assert got == want
    assert _layout(_Resolvent(a, z, b).shifted) == _layout(kept)
    if b is not None:
        return
    # the certified solve, against the old _Resolvent
    old, new = _OldResolvent(a, z), _Resolvent(a, z)
    got, want = _outcome(lambda: new.solve(rhs)), _outcome(lambda: old.solve(rhs))
    event(f"certified: {_kind(want)}")
    if got is ShiftSingularError:  # an LU that failed to factor, a SingularMatrixError before
        assert want is SingularMatrixError and _outcome(lambda: old.lu) is SingularMatrixError
    else:
        assert got == want


# ----------------------------------------------------------------------
# operands

_REAL_Z = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=-12.0, max_value=12.0))
_COMPLEX_Z = st.one_of(
    st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]),
    st.builds(complex, st.floats(min_value=-12.0, max_value=12.0),
              st.floats(min_value=-3.0, max_value=3.0)))
_SHIFTS = st.one_of(_REAL_Z, _COMPLEX_Z)


@st.composite
def _rhs(draw, n):
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    shape = draw(st.sampled_from([(n,), (n, 1), (n, 3)]))
    x = rng.standard_normal(shape)
    if draw(st.booleans()):
        x = x + 1j * rng.standard_normal(shape)
    x[rng.random(shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    return x


def _near(values, offset):
    return float(values[len(values) // 2] + offset)


@st.composite
def lattice_operands(draw):
    """H, H0 or a channel H0 + Vα of a small lattice, at a shift that is
    random, far below σ(H0), or at or next to an eigenvalue of H0."""
    model = LatticeModel(
        N=draw(st.integers(min_value=2, max_value=3)),
        L=draw(st.integers(min_value=3, max_value=5)),
        boundary=draw(st.sampled_from(["box", "ring"])),
        potential=draw(POTENTIALS),
    )
    h0, _, pots = hamiltonian_terms(model)
    a = draw(st.sampled_from(["h", "h0", "channel"]))
    op = {"h": build_hamiltonian(model), "h0": h0, "channel": h0 + pots[0]}[a]
    spectrum = h0_spectrum(model)
    z = draw(st.one_of(
        _SHIFTS,
        st.floats(min_value=1.0, max_value=8.0).map(lambda s: float(spectrum[0] - 50.0 - s)),
        st.sampled_from([0.0, 1e-12, 1e-9, -1e-7]).map(functools.partial(_near, spectrum)),
    ))
    return op, z


@st.composite
def split_operands(draw):
    """H0, a channel or H of a random split, real or complex, Hermitian or general,
    at a random shift or at one of its own eigenvalues."""
    n, dim = draw(st.integers(min_value=2, max_value=4)), draw(st.integers(min_value=1, max_value=7))
    hermitian, seed = draw(st.booleans()), draw(st.integers(min_value=0, max_value=2**16))
    split = random_split(n, dim, seed=seed, hermitian=hermitian)
    op = draw(st.sampled_from([split.h0, split.h0 + split.potentials[0], split.total()]))
    if draw(st.booleans()):  # complex: Hermitian when the real part is symmetric
        s = np.random.default_rng(seed + 1).standard_normal((dim, dim))
        op = Operator.sparse(op.materialize() + 1j * ((s - s.T) / 2.0 if hermitian else s))
    values = np.linalg.eigvals(op.materialize())
    z = draw(st.one_of(_SHIFTS, st.sampled_from(list(values))))
    return op, complex(z) if np.iscomplexobj(z) else float(z)


_ENTRIES = st.sampled_from([-0.0, -0.0, 0.0, 1.0, -2.5])


@st.composite
def signed_zero_operands(draw):
    """A complex matrix whose entries have ±0 real or imaginary parts, at z = ±0."""
    n = draw(st.integers(min_value=1, max_value=4))
    re = np.array(draw(st.lists(_ENTRIES, min_size=n * n, max_size=n * n))).reshape(n, n)
    im = np.array(draw(st.lists(_ENTRIES, min_size=n * n, max_size=n * n))).reshape(n, n)
    dense = np.empty((n, n), dtype=np.complex128)
    dense.real, dense.imag = re, im
    rows, cols = np.nonzero((re != 0) | (im != 0) | np.eye(n, dtype=bool))
    a = sp.csr_matrix((dense[rows, cols], (rows, cols)), shape=(n, n))
    z = draw(st.sampled_from([-0.0, -0.0, complex(-0.0, -0.0), complex(0.0, -0.0),
                              complex(-0.0, 0.0), 0.0, 0j]))
    return a, z


@st.composite
def pencil_operands(draw):
    """A hard-core pencil (A, B) at or next to a point of σ(H0)."""
    model = LatticeModel(
        N=3,
        L=draw(st.integers(min_value=3, max_value=5)),
        boundary=draw(st.sampled_from(["box", "ring"])),
        potential=draw(POTENTIALS),
        core_radius=draw(st.sampled_from([None, 0, 1])),
    )
    pencil = assemble_hardcore3_pencil(model, surface_only=draw(st.booleans()))
    spectrum = pencil.split.channel_spectrum()
    k = draw(st.integers(min_value=0, max_value=len(spectrum) - 1))
    offset = draw(st.sampled_from([0.0, 1e-12, -1e-9, 1e-6]))
    return pencil.a.flatten(), pencil.b.flatten(), float(spectrum[k] + offset)


# ----------------------------------------------------------------------
# properties


@settings(max_examples=80, deadline=None)
@given(operands=lattice_operands(), data=st.data())
def test_lattice_resolvents_give_the_bytes_of_the_replaced_wrappers(operands, data):
    a, z = operands
    check_against_the_references(a, z, data.draw(_rhs(a.dim), label="rhs"))


@settings(max_examples=80, deadline=None)
@given(operands=split_operands(), data=st.data())
def test_random_split_resolvents_give_the_bytes_of_the_replaced_wrappers(operands, data):
    a, z = operands
    check_against_the_references(a, z, data.draw(_rhs(a.dim), label="rhs"))


@settings(max_examples=60, deadline=None)
@given(operands=signed_zero_operands(), data=st.data())
def test_signed_zero_resolvents_give_the_bytes_of_the_kept_construction(operands, data):
    a, z = operands
    check_against_the_references(a, z, data.draw(_rhs(a.shape[0]), label="rhs"))


@settings(max_examples=100, deadline=None)
@given(operands=pencil_operands(), data=st.data())
def test_the_pencil_factor_gives_the_bytes_of_shifted_factor(operands, data):
    a, b, z = operands
    check_against_the_references(a, z, data.draw(_rhs(a.dim), label="rhs"), b=b)


def test_signed_zero_shift_keeps_the_entries_of_a():
    # the one place the two old constructions part: A − (−0)·I on a complex A
    a = sp.csr_matrix(np.array([[complex(-0.0, 1.0)]]))
    old = _old_shifted_matrix(a, None, -0.0)
    new = _Resolvent(a, -0.0, refine=False)
    assert _layout(new.shifted) == _layout(a) != _layout(old)
    rhs = np.zeros(1, dtype=np.complex128)  # 0 / (∓0 + i) keeps the sign of the zero
    assert new.solve(rhs).tobytes() == _OldSparseFactor(a).solve(rhs).tobytes()
    assert new.solve(rhs).tobytes() != _OldSparseFactor(old).solve(rhs).tobytes()
