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

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .blockops import (
    BlockOperator,
    Operator,
    _Resolvent,
    _shifted_factor,
    _solver_matrix,
    dense_eigenvalues,
    linear_solve,
    match_into,
)
from .errors import (
    ChannelEnergyError,
    InvalidInputError,
    PreconditionError,
    SingularMatrixError,
    SpuriousEnergyError,
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
# Condition estimate above which a (H0 - z) solve is flagged: the formal
# precondition "z not in the spectrum of H0" made quantitative.
ILL_CONDITION_THRESHOLD = 1e10


@dataclass(frozen=True)
class FewBodySplit:
    """An operator H0 plus an ordered list of n >= 2 perturbation parts."""

    h0: Operator
    potentials: tuple

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

    @property
    def n(self) -> int:
        return len(self.potentials)

    @property
    def dim(self) -> int:
        return self.h0.dim

    def total(self) -> Operator:
        h = self.h0
        for v in self.potentials:
            h = h + v
        return h

    def potential_sum_apply(self, x: np.ndarray) -> np.ndarray:
        out = self.potentials[0].apply(x)
        for v in self.potentials[1:]:
            out = out + v.apply(x)
        return out


@dataclass(frozen=True)
class FaddeevComponents:
    """The n component vectors of one eigenpair, plus solve diagnostics.

    ``ill_conditioned`` is set when the estimated condition number of
    (H0 − z) exceeded the flagging threshold during construction; the
    components are still returned (the solve succeeded), but downstream
    residuals should be read with that in mind.
    """

    z: complex
    components: tuple
    h0_cond_estimate: float = 0.0
    ill_conditioned: bool = False

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
    rhs = split.potential_sum_apply(psi)
    try:
        x = linear_solve(split.h0, z, rhs)
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
    a precondition failure carrying the measured value. The condition of
    (H0 − z) is estimated and flagged (not fatal) above 1e10, which is the
    quantitative version of "z does not belong to the spectrum of H0". One
    LU of H0 − z serves the estimate and all n solves.
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
    resolvent = _Resolvent(split.h0, z)
    cond = resolvent.cond_estimate()
    comps = []
    for v in split.potentials:
        try:
            comps.append(-resolvent.solve(v.apply(psi)))
        except SingularMatrixError as exc:
            raise SpuriousEnergyError(
                f"z = {z} is numerically in the unperturbed spectrum"
            ) from exc
    return FaddeevComponents(
        z=z,
        components=tuple(comps),
        h0_cond_estimate=cond,
        ill_conditioned=bool(cond > ILL_CONDITION_THRESHOLD),
    )


def assemble_coupled(split: FewBodySplit, row_parts: Sequence[int], mask) -> BlockOperator:
    """The m×m block operator of m coupled component equations.

    Row i is the equation of a component driven by part p = ``row_parts[i]``
    of the split: H0 + Vp on the diagonal and Vp in every column j with
    ``mask[i, j]``; every other block is an exact zero. The diagonal of
    ``mask`` is ignored.
    """
    grid: list[list[Optional[Operator]]] = []
    for i, p in enumerate(row_parts):
        v = split.potentials[p]
        row = [v if coupled else None for coupled in mask[i]]
        row[i] = split.h0 + v
        grid.append(row)
    return BlockOperator(grid, block_dim=split.dim)


def assemble_faddeev_operator(split: FewBodySplit) -> BlockOperator:
    """The n×n block operator: H0 + Vα on the diagonal, Vα across row α.

    Row α reads (H0 + Vα) ψα + Vα Σ_{β≠α} ψβ, so eigenvectors of the
    flatten at eigenvalue z stack exactly the coupled-equation solutions.
    """
    return assemble_coupled(split, range(split.n), np.ones((split.n, split.n), dtype=bool))


class _FaddeevShiftedFactor:
    """(F − z)⁻¹ for the flattened Faddeev operator F, from one LU each of H − z and H0 − z.

    Summing the rows of (F − z) s = r gives (H − z) Ψ = Σα rα for Ψ = Σα sα;
    row α then gives (H0 − z) sα = rα − Vα Ψ. Both steps are exact, so F − z is
    singular exactly when z ∈ σ(H) ∪ σ(H0), and that factorization raises
    :class:`ShiftSingularError`. ``solve`` keeps the shape of the stacked blocks.
    """

    def __init__(self, split: FewBodySplit, z):
        self.potentials = split.potentials
        self.h = _shifted_factor(_solver_matrix(split.total()), None, z)
        self.h0 = _shifted_factor(_solver_matrix(split.h0), None, z)

    def solve(self, b: np.ndarray) -> np.ndarray:
        blocks = np.asarray(b).reshape(len(self.potentials), -1)
        psi = self.h.solve(blocks.sum(axis=0))
        rhs = np.stack([r - v.apply(psi) for r, v in zip(blocks, self.potentials)], axis=1)
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
        channel = split.h0 + v
        try:
            out.append(-linear_solve(channel, z, rhs))
        except SingularMatrixError as exc:
            raise ChannelEnergyError(
                f"z = {z} is numerically in the spectrum of channel {i}",
                pair=i,
            ) from exc
    return FaddeevComponents(z=z, components=tuple(out))


@dataclass(frozen=True)
class SpectrumUnionReport:
    """Evidence for (or against) the spectrum identity on one split.

    ``multiplicity_table`` lists, per distinct unperturbed eigenvalue, how
    many flatten eigenvalues land within the counting window. The identity
    proved for the block operator is set equality; the multiplicity pattern
    (each unperturbed point appearing n−1 times) is an empirical observation
    recorded here and never asserted.
    """

    max_matching_distance: float
    tolerance: float
    passed: bool
    flatten_size: int
    h_size: int
    h0_size: int
    multiplicity_table: tuple


def spectrum_union_check(split: FewBodySplit, tol: float = 1e-8) -> SpectrumUnionReport:
    """Verify σ(flatten) ⊇ σ(H) ∪ σ(H0) by dense diagonalization of both sides.

    Every eigenvalue of H and of H0 must be matched by a distinct eigenvalue
    of the flattened block operator within ``tol``; the maximum matched
    distance is reported. Failure is returned as a report (passed=False)
    rather than raised, so sweeps can tabulate violations.
    """
    hf = assemble_faddeev_operator(split).flatten()
    sigma_f = dense_eigenvalues(hf)
    sigma_h = dense_eigenvalues(split.total())
    sigma_h0 = dense_eigenvalues(split.h0)
    union = np.concatenate([sigma_h, sigma_h0])
    match = match_into(union, sigma_f)

    # Empirical multiplicity of each distinct unperturbed eigenvalue inside
    # the flatten spectrum, counted in a window set by the match quality.
    window = max(tol, 10.0 * match.max_distance if np.isfinite(match.max_distance) else tol)
    distinct: list[complex] = []
    for lam in sigma_h0:
        if not any(abs(lam - d) <= window for d in distinct):
            distinct.append(lam)
    table = tuple(
        (complex(lam), int(np.sum(np.abs(sigma_f - lam) <= window))) for lam in distinct
    )
    return SpectrumUnionReport(
        max_matching_distance=float(match.max_distance),
        tolerance=tol,
        passed=bool(match.max_distance <= tol),
        flatten_size=sigma_f.shape[0],
        h_size=sigma_h.shape[0],
        h0_size=sigma_h0.shape[0],
        multiplicity_table=table,
    )


def random_split(n: int, dim: int, seed: int, hermitian: bool = True) -> FewBodySplit:
    """Seeded dense split for stress tests.

    Hermitian mode draws symmetric H0 and Vα; general mode draws arbitrary
    real matrices, for which the block operator's spectrum identity still
    holds (nothing in the algebra uses symmetry).
    """
    if n < 2 or dim < 1:
        raise InvalidInputError(f"need n >= 2 and dim >= 1, got n={n}, dim={dim}")
    rng = np.random.default_rng(seed)

    def draw() -> np.ndarray:
        m = rng.standard_normal((dim, dim))
        return (m + m.T) / 2.0 if hermitian else m

    h0 = Operator.dense(draw())
    pots = tuple(Operator.dense(draw()) for _ in range(n))
    return FewBodySplit(h0=h0, potentials=pots)
