"""Component decomposition of H = H0 + Σα Vα and the coupled block operator.

Given an eigenpair (z, Ψ) of H with z away from the spectrum of H0, the
components ψα = −(H0 − z)^{−1} Vα Ψ sum back to Ψ and satisfy the coupled
equations

    (H0 + Vα − z) ψα = −Vα Σ_{β≠α} ψβ,

whose matrix form is the block operator with diagonal entries H0 + Vα and
with Vα filling every off-diagonal column of row α. The flatten of that
operator has spectrum σ(H) ∪ σ(H0): the perturbed spectrum is recovered
exactly, at the price of spurious copies of the unperturbed one. Everything
here is finite-dimensional, so each of these statements is checkable against
dense diagonalization, and the functions in this module do the checking.

The Faddeev, Yakubovsky and hard-core operators all share that row shape and
differ only in which columns a row couples to, so one assembler,
:func:`assemble_coupled`, builds every coupled block grid from a part index
per row and a boolean coupling mask.

The same machinery applies to any operator split with n ≥ 2 parts; nothing
assumes the potentials are pair interactions until the four-body module
builds on top.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .blockops import (
    BlockOperator,
    Operator,
    _Resolvent,
    _stored_csr,
    dense_eigenvalues,
    match_into,
)
from .errors import (
    ChannelEnergyError,
    InvalidInputError,
    PreconditionError,
    SingularMatrixError,
    SpuriousEnergyError,
    TooLargeError,
)

__all__ = [
    "FewBodySplit",
    "FaddeevComponents",
    "SpectrumUnionReport",
    "lippmann_schwinger_residual",
    "faddeev_components",
    "assemble_coupled",
    "assemble_faddeev_operator",
    "faddeev_residual",
    "faddeev_integral_map",
    "spectrum_union_check",
    "random_split",
]

_NORM_FLOOR = 1e-300
AUXILIARY_ROOT_WINDOW = 1e-6  # see FewBodySplit.auxiliary_distance


@dataclass(frozen=True)
class FewBodySplit:
    """An operator H0 plus an ordered list of n >= 2 perturbation parts.

    ``channels``, when given, holds H0 and every channel operator H0 + Vα
    in diagonal form: ``channels[0]`` for H0 and ``channels[1 + α]`` for
    part α, each with ``spectrum()``, ``solver(z, companions)`` and a
    ``basis_id`` shared by channels of one eigenbasis, as
    :func:`fykit.lattice.build_split` builds them (a pair channel's L²×L²
    ``eigh`` runs on its first use, once per distinct potential, so only the
    four-body commands pay for it). :meth:`channel_solver`, :meth:`resolvent`
    and :meth:`channel_spectrum` use them when present, and otherwise factor
    or diagonalize the assembled operator. :meth:`total` is assembled once and
    lives as long as the split; ``dataclasses.replace`` makes one that sums anew.
    """

    h0: Operator
    potentials: tuple
    channels: Optional[tuple] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.h0, Operator):
            raise InvalidInputError("h0 must be an Operator")
        pots = tuple(self.potentials)
        if len(pots) < 2:
            raise InvalidInputError(f"a split needs at least 2 parts, got {len(pots)}")
        for v in pots:
            if not isinstance(v, Operator):
                raise InvalidInputError("potentials must be Operators")
            if v.dim != self.h0.dim:
                raise InvalidInputError(f"potential dim {v.dim} != h0 dim {self.h0.dim}")
        object.__setattr__(self, "potentials", pots)
        if self.channels is not None and len(self.channels) != len(pots) + 1:
            raise InvalidInputError(
                f"a split of {len(pots)} parts needs {len(pots) + 1} channels, "
                f"got {len(self.channels)}"
            )

    @property
    def n(self) -> int:
        return len(self.potentials)

    def channel_solver(self, z, part: Optional[int] = None):
        """(H0 − z)⁻¹, or (H0 + V_part − z)⁻¹, as an object with ``solve(b)``.

        b may have one column or several. A singular shift raises
        :class:`ShiftSingularError`.
        """
        if self.channels is not None:
            return self.channels[0 if part is None else part + 1].solver(z)
        return _Resolvent(self._channel(part), z, refine=False)

    def resolvent(self, z, part: Optional[int] = None):
        """The certified (H0 − z)⁻¹, or (H0 + V_part − z)⁻¹, as a
        :class:`~fykit.blockops._Resolvent` of the assembled operator.

        With ``channels`` each solve tries the channel's Kronecker solve
        first and keeps only the columns it certifies against the assembled
        operator; the rest, and every column without ``channels``, go
        through SuperLU and refinement.
        """
        first = None if self.channels is None else functools.partial(self.channel_solver, z, part)
        return _Resolvent(self._channel(part), z, first=first)

    def channel_groups(self, z) -> list:
        """Every (H0 + Vα − z)⁻¹ as ``(parts, solver)``, one group per ``basis_id``
        (each part alone without ``channels``); ``solver.solve(b)`` solves each
        part of ``parts``, in order, on an equal share of b's columns."""
        if self.channels is None:
            return [([part], self.channel_solver(z, part)) for part in range(self.n)]
        pair_channels, groups = self.channels[1:], {}
        for part, channel in enumerate(pair_channels):
            groups.setdefault(channel.basis_id, []).append(part)
        return [(parts, pair_channels[parts[0]].solver(z, [pair_channels[p] for p in parts[1:]]))
                for parts in groups.values()]

    def channel_spectrum(self, part: Optional[int] = None) -> np.ndarray:
        """The eigenvalues of H0, or of H0 + V_part.

        Without ``channels`` they come from :func:`dense_eigenvalues`, which
        raises :class:`TooLargeError` beyond :data:`~fykit.blockops.DENSE_LIMIT`.
        """
        if self.channels is not None:
            return self.channels[0 if part is None else part + 1].spectrum()
        return dense_eigenvalues(self._channel(part))

    def auxiliary_distance(self, z, parts: Sequence[int] = ()) -> Optional[float]:
        """Distance from z to the first of σ(H0), then σ(H0 + Vα) for α in ``parts``,
        with a point within :data:`AUXILIARY_ROOT_WINDOW`: a coupled operator has
        auxiliary roots there. None if none is, or if a spectrum without ``channels``
        is beyond :data:`~fykit.blockops.DENSE_LIMIT`."""
        try:
            for part in (None, *parts):
                nearest = float(np.min(np.abs(self.channel_spectrum(part) - z)))
                if nearest <= AUXILIARY_ROOT_WINDOW:
                    return nearest
        except TooLargeError:
            pass
        return None

    def _channel(self, part: Optional[int]) -> Operator:
        return self.h0 if part is None else self.h0 + self.potentials[part]

    @property
    def dim(self) -> int:
        return self.h0.dim

    def total(self) -> Operator:
        """H = H0 + Σα Vα, summed in part order on the first call and kept."""
        if "_total" not in self.__dict__:  # frozen: bypass __setattr__; not a field
            self.__dict__["_total"] = sum(self.potentials, self.h0)
        return self.__dict__["_total"]

    @functools.cached_property
    def _diagonal_potentials(self) -> Optional[np.ndarray]:
        """The n×d stack of the potentials' diagonals, None unless all are diagonal."""
        diagonal = all(v.kind == "diagonal" for v in self.potentials)
        return np.stack([v.diagonal_data for v in self.potentials]) if diagonal else None

    def potential_rows_apply(self, x: np.ndarray) -> np.ndarray:
        """Vα applied to row α of x (n × d, n × k × d, or one row for all α): one
        broadcast multiply when every potential is diagonal, else one ``apply`` each."""
        stack = self._diagonal_potentials
        if stack is not None:
            return stack.reshape((self.n,) + (1,) * (x.ndim - 2) + (self.dim,)) * x
        rows = np.broadcast_to(x, (self.n,) + x.shape[1:])
        return np.stack([v.apply(r.T).T for v, r in zip(self.potentials, rows)])


@dataclass(frozen=True)
class FaddeevComponents:
    """The n component vectors of one eigenpair."""

    z: complex
    components: tuple

    @property
    def n(self) -> int:
        return len(self.components)

    def total(self) -> np.ndarray:
        return np.sum(self.components, axis=0)


def lippmann_schwinger_residual(split: FewBodySplit, z, psi: np.ndarray) -> float:
    """‖Ψ + (H0 − z)^{−1} ΣVα Ψ‖ / ‖Ψ‖, zero exactly on eigenvectors of H.

    Raises :class:`SpuriousEnergyError` when H0 − z is singular to working
    precision, i.e. when z lies in the unperturbed spectrum where the
    resolvent form is undefined.
    """
    psi = np.asarray(psi)
    pnorm = np.linalg.norm(psi)
    if pnorm == 0.0:
        raise InvalidInputError("residual undefined for the zero vector")
    rhs = split.potential_rows_apply(psi[None]).sum(axis=0)  # ΣVα Ψ, added in part order
    try:
        x = split.resolvent(z).solve(rhs)
    except SingularMatrixError as exc:
        raise SpuriousEnergyError(
            f"z = {z} lies in (or numerically on) the unperturbed spectrum"
        ) from exc
    return float(np.linalg.norm(psi + x) / pnorm)


def faddeev_components(
    split: FewBodySplit,
    z,
    psi: np.ndarray,
    eigenpair_tol: float = 1e-8,
) -> FaddeevComponents:
    """Build ψα = −(H0 − z)^{−1} Vα Ψ for each part of the split.

    The construction only makes sense on an eigenpair, so the eigenpair
    residual ‖HΨ − zΨ‖/‖Ψ‖ is measured first and a violation is reported as
    a precondition failure carrying the measured value. The split's certified
    :meth:`~FewBodySplit.resolvent` of H0 − z takes the n solves as one
    block: by the Kronecker solve of H0 on a lattice, each column kept only
    when its residual is certified, otherwise from one LU. The components
    exist only for z outside σ(H0): a solve that cannot certify its residual
    makes H0 − z singular to working precision and raises
    :class:`SpuriousEnergyError`.
    """
    psi = np.asarray(psi)
    pnorm = np.linalg.norm(psi)
    if pnorm == 0.0:
        raise InvalidInputError("cannot decompose the zero vector")
    h = split.total()
    eig_res = float(np.linalg.norm(h.apply(psi) - z * psi) / pnorm)
    if eig_res > eigenpair_tol:
        raise PreconditionError(
            f"(z, psi) is not an eigenpair within {eigenpair_tol:.1e}",
            measured=eig_res,
        )
    rhs = np.stack([v.apply(psi) for v in split.potentials], axis=1)
    try:
        comps = split.resolvent(z).solve(rhs)
    except SingularMatrixError as exc:
        raise SpuriousEnergyError(
            f"z = {z} is numerically in the unperturbed spectrum"
        ) from exc
    return FaddeevComponents(z=z, components=tuple(-c for c in comps.T))


def assemble_coupled(split: FewBodySplit, row_parts: Sequence[int], mask) -> BlockOperator:
    """The m×m block operator of m coupled component equations.

    Row i is the equation of a component driven by part p = ``row_parts[i]``
    of the split: H0 + Vp on the diagonal and Vp in every column j with
    ``mask[i, j]``; every other block is an exact zero. The diagonal of
    ``mask`` is ignored. Each H0 + Vp is built once and shared by every row
    driven by p.
    """
    diagonal = {p: split.h0 + split.potentials[p] for p in set(row_parts)}
    grid: list[list[Optional[Operator]]] = []
    for i, p in enumerate(row_parts):
        row = [split.potentials[p] if coupled else None for coupled in mask[i]]
        row[i] = diagonal[p]
        grid.append(row)
    return BlockOperator(grid, block_dim=split.dim)


def assemble_faddeev_operator(split: FewBodySplit) -> BlockOperator:
    """The n×n block operator: H0 + Vα on the diagonal, Vα across row α.

    Row α reads (H0 + Vα) ψα + Vα Σ_{β≠α} ψβ, so eigenvectors of the
    flatten at eigenvalue z stack exactly the coupled-equation solutions.
    """
    return assemble_coupled(split, range(split.n), np.ones((split.n, split.n), dtype=bool))


class _FaddeevShiftedFactor:
    """(F − z)⁻¹ for the flattened Faddeev operator F, through H − z and H0 − z.

    Summing the rows of (F − z) s = r gives (H − z) Ψ = Σα rα for Ψ = Σα sα;
    row α then gives (H0 − z) sα = rα − Vα Ψ. H − z is factored, and H0 − z
    goes through :meth:`FewBodySplit.channel_solver`. Both steps are exact, so
    F − z is singular exactly when z ∈ σ(H) ∪ σ(H0), and the step that meets
    it raises :class:`ShiftSingularError`. ``solve`` keeps the shape of the
    stacked blocks.

    With ``owner`` (the owning component of each constraint site, −1 on the
    rest R) it solves the hard-core pencil (A − zB) s = r instead, whose row α
    on a site c it owns reads Σβ sβ(c) = rα(c). So Ψ on the constraint sites C
    is read off r, (H − z)_RR Ψ_R = (Σα rα)_R − H_RC Ψ_C gives the rest, and
    (H0 − z) sα = K_α(rα − Vα Ψ) + (I − K_α) μ, with K_α zero exactly on the
    sites α owns and μ = (H0 − z) Ψ − Σα K_α (rα − Vα Ψ), which makes
    Σα sα = Ψ. The pencil is singular exactly when z ∈ σ(H_RR) ∪ σ(H0).
    """

    def __init__(self, split: FewBodySplit, z, owner: Optional[np.ndarray] = None):
        self.split = split
        self.h0_op, self.z = split.h0, z
        hmat = _stored_csr(split.total())
        owner = np.full(split.dim, -1) if owner is None else np.asarray(owner)
        self.core = np.nonzero(owner >= 0)[0]
        self.core_rows = owner[self.core]
        if self.core.size:
            self.free = np.nonzero(owner < 0)[0]
            rows = hmat[self.free]
            self.coupling = rows[:, self.core]
            hmat = rows[:, self.free]
        self.h = _Resolvent(hmat, z, refine=False)
        self.h0 = split.channel_solver(z)

    def solve(self, b: np.ndarray) -> np.ndarray:
        blocks = np.asarray(b).reshape(self.split.n, -1)
        psi = blocks.sum(axis=0)
        if self.core.size:
            psi = psi.astype(np.result_type(psi, self.z), copy=False)  # a complex z makes Ψ complex
            psi[self.core] = blocks[self.core_rows, self.core]
            psi[self.free] = self.h.solve(psi[self.free] - self.coupling @ psi[self.core])
        else:
            psi = self.h.solve(psi)
        rhs = np.ascontiguousarray((blocks - self.split.potential_rows_apply(psi[None])).T)
        if self.core.size:
            rhs[self.core, self.core_rows] = 0.0
            mu = self.h0_op.apply(psi) - self.z * psi - rhs.sum(axis=1)
            rhs[self.core, self.core_rows] = mu[self.core]
        return self.h0.solve(rhs).T.reshape(np.shape(b))


def faddeev_residual(split: FewBodySplit, comps: FaddeevComponents) -> np.ndarray:
    """Per-component defect of the coupled differential equations.

    rα = ‖(H0 + Vα − z) ψα + Vα Σ_{β≠α} ψβ‖ / max(‖ψα‖, tiny). A zero
    component with a zero defect reports 0, so the vacuous solution is not
    flagged.
    """
    if comps.n != split.n:
        raise InvalidInputError(f"component count {comps.n} != split size {split.n}")
    z = comps.z
    total = comps.total()
    out = np.empty(split.n)
    for i, v in enumerate(split.potentials):
        psi_i = comps.components[i]
        others = total - psi_i
        defect = split.h0.apply(psi_i) + v.apply(psi_i) - z * psi_i + v.apply(others)
        out[i] = np.linalg.norm(defect) / max(np.linalg.norm(psi_i), _NORM_FLOOR)
    return out


def faddeev_integral_map(split: FewBodySplit, z, comps: Sequence[np.ndarray]) -> FaddeevComponents:
    """One application of the integral-equation map; true components are fixed.

    output[α] = −(H0 + Vα − z)^{−1} Vα Σ_{β≠α} input[β]. A singular channel
    operator H0 + Vα − z is reported per channel, since z sitting in a
    channel spectrum invalidates only that resolvent.
    """
    comps = [np.asarray(c) for c in comps]
    if len(comps) != split.n:
        raise InvalidInputError(f"component count {len(comps)} != split size {split.n}")
    total = np.sum(comps, axis=0)
    out = []
    for i, v in enumerate(split.potentials):
        rhs = v.apply(total - comps[i])
        try:
            out.append(-split.resolvent(z, i).solve(rhs))
        except SingularMatrixError as exc:
            raise ChannelEnergyError(
                f"z = {z} is numerically in the spectrum of channel {i}",
                pair=i,
            ) from exc
    return FaddeevComponents(z=z, components=tuple(out))


@dataclass(frozen=True)
class SpectrumUnionReport:
    """Evidence for (or against) the spectrum identity on one split."""

    max_matching_distance: float
    passed: bool


def spectrum_union_check(split: FewBodySplit, tol: float = 1e-8) -> SpectrumUnionReport:
    """Verify σ(flatten) ⊇ σ(H) ∪ σ(H0) by dense diagonalization of both sides.

    Every eigenvalue of H and of H0 must be matched by a distinct eigenvalue
    of the flattened block operator within ``tol``; the maximum matched
    distance is reported. Failure is returned as a report (passed=False)
    rather than raised, so sweeps can tabulate violations.
    """
    sigma_f = dense_eigenvalues(assemble_faddeev_operator(split).flatten())
    union = np.concatenate([dense_eigenvalues(split.total()), dense_eigenvalues(split.h0)])
    distance = match_into(union, sigma_f)
    return SpectrumUnionReport(max_matching_distance=distance, passed=bool(distance <= tol))


def random_split(n: int, dim: int, seed: int, hermitian: bool = True) -> FewBodySplit:
    """Seeded split of fully populated matrices for stress tests, stored sparse.

    Hermitian mode draws symmetric H0 and Vα; general mode draws arbitrary
    real matrices, for which the block operator's spectrum identity still
    holds (nothing in the algebra uses symmetry). Every draw is an
    ``Operator.sparse``, so these splits are factored by SuperLU like the
    lattice ones.
    """
    if n < 2 or dim < 1:
        raise InvalidInputError(f"need n >= 2 and dim >= 1, got n={n}, dim={dim}")
    rng = np.random.default_rng(seed)

    def draw() -> np.ndarray:
        m = rng.standard_normal((dim, dim))
        return (m + m.T) / 2.0 if hermitian else m

    h0 = Operator.sparse(draw())
    pots = tuple(Operator.sparse(draw()) for _ in range(n))
    return FewBodySplit(h0=h0, potentials=pots)
