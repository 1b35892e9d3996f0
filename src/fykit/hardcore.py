"""Hard-core interactions as boundary conditions on component equations.

A hard core of radius c forbids every configuration where some pair sits at
separation ≤ c. The physically defined model is the restricted one: delete
those configurations and diagonalize what is left (:func:`restricted_oracle`
by subset ``eigh``, the brute-force certifier, or :func:`ground_state` by
Lanczos when only the lowest energy is wanted).
The component formulation reproduces it without deleting anything: pair
potentials are set to zero on their core region, and the component-α
equation rows on core sites of α are replaced by the constraint

    Σβ ψβ(site) = 0,

which forces the reconstructed Ψ = Σβ ψβ to vanish on every core site. With
the constraint rows carrying no z-dependence the problem becomes a matrix
pencil (A, B). Both come from the Faddeev operator F and one row mask per
component, K_α = diag(site is not a constraint row of α): A_αβ = K_α F_αβ +
(I − K_α) and B_αα = K_α, so B is the identity with zeros exactly on
constraint rows, and without a core (no constraint rows) the pencil is
(F, I). With C the constraint sites and R the rest, the pencil's finite
spectrum is exactly

    σ(A, B) = σ(H_RR) ∪ σ(H0),

because (A − zB) s = r is solved exactly through H − z restricted to R and
H0 − z (``faddeev._FaddeevShiftedFactor``), so it is singular exactly when
one of those is. With the full-core constraint R is the restricted space,
so the physical roots are σ(H_RR) and the auxiliary roots are exactly
σ(H0). A root of either kind can land next to the target, so accepted
eigenpairs are filtered by the vanishing and restricted-equation tests,
never trusted on the eigenvalue alone.

Constraints are imposed on the whole discrete core (surface included): a
lattice has no unambiguous "surface x = c", and the full-core constraint is
the choice that provably matches the restricted model. The alternative
(constraints on separation = c only) is kept as a research knob,
``surface_only``, measured and never gated.

Four-body hard-core is verification-only: the chain-level boundary
conditions are evaluated on given components, with no four-body hard-core
solver attached.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .blockops import (
    BlockOperator,
    EigenResult,
    Operator,
    _Resolvent,
    dense_limit,
    shift_invert_retry,
)
from .combinatorics import Chain, Pair
from .errors import (
    InvalidInputError,
    TooLargeError,
)
from .faddeev import FewBodySplit, _FaddeevShiftedFactor, assemble_faddeev_operator
from .lattice import (
    LatticeModel,
    _lanczos_ground_state,
    _lowest_eigh,
    build_hamiltonian,
    build_split,
    dense_oracle_spectrum,
    separations,
)
from .yakubovsky import YakubovskyComponents, YakubovskySystem

__all__ = [
    "CoreRegion",
    "HardcorePencil",
    "Hardcore3Result",
    "Hardcore4Report",
    "Hardcore4Evaluator",
    "core_region",
    "restricted_space",
    "restricted_oracle",
    "ground_state",
    "assemble_hardcore3_pencil",
    "solve_hardcore3",
    "assemble_hardcore4_constraints",
]

CORE_VANISHING_TOL = 1e-10
RESTRICTED_RESIDUAL_TOL = 1e-8
# Relative distance to σ(H0) within which a shift factors the assembled pencil:
# there H − z and H0 − z are both near-singular and the reduced solve loses
# backward stability (a free-fermion E0 always lies in σ(H0)).
H0_SPECTRUM_GUARD = 1e-6


@dataclass(frozen=True)
class CoreRegion:
    """Configuration indices where one pair sits at separation ≤ c."""

    pair: Pair
    radius: Optional[int]
    sites: np.ndarray

    @property
    def count(self) -> int:
        return int(self.sites.shape[0])


def core_region(model: LatticeModel, pair: Pair) -> CoreRegion:
    """Exact index set {configurations : separation(pair) ≤ c}.

    A model without a core yields the empty region, so downstream loops can
    treat "no core" as "zero constraint sites" without branching.
    """
    if not model.has_core:
        return CoreRegion(pair=pair, radius=None, sites=np.empty(0, dtype=np.int64))
    sep = separations(model, pair)
    sites = np.nonzero(sep <= model.core_radius)[0].astype(np.int64)
    return CoreRegion(pair=pair, radius=model.core_radius, sites=sites)


def restricted_space(model: LatticeModel) -> np.ndarray:
    """Indices of configurations outside every pair's core region."""
    keep = np.ones(model.dimension, dtype=bool)
    if model.has_core:
        for pair in model.pairs():
            keep[core_region(model, pair).sites] = False
    return np.nonzero(keep)[0]


def _restricted_hamiltonian(
    model: LatticeModel, h: sp.csr_matrix
) -> tuple[np.ndarray, sp.csr_matrix]:
    """The kept configurations and the model's sparse H, ``h``, sliced to them (``h`` if no core)."""
    kept = restricted_space(model)
    if kept.shape[0] == 0:
        raise InvalidInputError(
            f"no configuration survives core radius {model.core_radius} on L={model.L}"
        )
    return kept, h[kept][:, kept] if model.has_core else h


def _embed(model: LatticeModel, kept: np.ndarray, result: EigenResult) -> EigenResult:
    full = np.zeros(model.dimension)
    full[kept] = result.vector
    return replace(result, vector=full)


def restricted_oracle(model: LatticeModel, k: Optional[int] = None) -> list[EigenResult]:
    """Ground truth for hard cores: the lowest k by subset ``eigh`` of the restricted H.

    In-core configurations are deleted: the sparse H is sliced to the kept
    configurations and goes through the same engine as the dense oracle
    (exact-symmetry check, k validated before anything is factored). Only
    that slice is densified, so ``dense_limit`` gates the restricted
    dimension, not L^N. Returned eigenvectors are embedded back into the
    full configuration space (zeros on deleted sites) so they compare
    directly with reconstructed pencil states. Residuals are measured in the
    restricted space, where the operator actually lives. Without a core
    this is the plain dense oracle.
    """
    if not model.has_core:
        return dense_oracle_spectrum(model, k)
    kept, hr = _restricted_hamiltonian(model, build_hamiltonian(model).to_sparse())
    if kept.shape[0] > dense_limit():
        raise TooLargeError(
            f"restricted oracle refused: dim {kept.shape[0]} exceeds limit {dense_limit()}"
        )
    return [_embed(model, kept, r) for r in _lowest_eigh(hr.toarray(), k, "restricted-eigh")]


def ground_state(model: LatticeModel) -> EigenResult:
    """The ground state of H (restricted H for a core) by Lanczos, for auto targets.

    The sparse counterpart of ``restricted_oracle(model, 1)``: ARPACK
    ``eigsh`` on the sparse (restricted) H, with no dense limit, certified
    by its own recomputed residual. For a core the vector is embedded back
    into the full configuration space and the residual is measured in the
    restricted space. Method ``lanczos``, or ``restricted-lanczos`` for a
    core.
    """
    return _ground_state(model, build_hamiltonian(model).to_sparse())


def _ground_state(model: LatticeModel, h: sp.csr_matrix, restricted=None) -> EigenResult:
    """:func:`ground_state` of the model's H, already assembled as ``h``, and
    of ``restricted``, its :func:`_restricted_hamiltonian`, when given."""
    if not model.has_core:
        return _lanczos_ground_state(h, "lanczos")
    kept, hr = restricted or _restricted_hamiltonian(model, h)
    return _embed(model, kept, _lanczos_ground_state(hr, "restricted-lanczos"))


@dataclass(frozen=True)
class HardcorePencil:
    """The pencil (A, B) realizing hard-core conditions on three components.

    ``constraint_rows`` maps (pair members, site) to the flat row index that
    carries its constraint; ``collision_count`` counts sites lying in more
    than one pair's core. Every constraint row has identical content
    (Σβ ψβ(site) = 0 does not depend on which pair owns it), so a collided
    site keeps one constraint row while the non-owning pairs retain their
    free kinetic rows there; their potential already vanishes on the core,
    making those rows (H0 − z)ψ = 0 without further surgery.
    """

    a: BlockOperator
    b: BlockOperator
    constraint_rows: dict
    collision_count: int
    surface_only: bool


def _constrain(block: Operator, owned: np.ndarray) -> Operator:
    """K·F + (I − K) for K = diag(~owned), in one pass: kept rows are copied
    without stored zeros (no −0 reaches --dump-matrix), owned rows become unit rows."""
    if block.kind == "diagonal":
        return Operator.diagonal(np.where(owned, 1.0, block.diagonal_data + 0.0))
    m, d = block._csr(), block.dim
    rows = np.repeat(np.arange(d), np.diff(m.indptr))
    take = ~owned[rows] & (m.data != 0)
    unit = np.flatnonzero(owned)
    rows = np.concatenate([rows[take], unit])
    order = np.argsort(rows, kind="stable")  # two sorted runs: kept rows, then owned ones
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=d))])
    data = np.concatenate([m.data[take], np.ones(unit.size)])[order]
    cols = np.concatenate([m.indices[take], unit])[order]
    return Operator.sparse(sp.csr_matrix((data, cols, indptr), shape=(d, d)))


def assemble_hardcore3_pencil(model: LatticeModel, surface_only: bool = False) -> HardcorePencil:
    """The three-component Faddeev operator with its constraint rows masked in.

    For every pair α and every site s in its constraint set, the
    component-α row at s becomes Σβ ψβ(s) = 0 and the matching B row is
    zeroed; a site inside several cores is owned by the first pair claiming
    it (canonical pair order) and the duplicate rows stay free, which keeps
    the pencil square with one constraint per core site. Without a core no
    site is owned, and the pencil is (Faddeev operator, identity).
    """
    return _pencil_and_split(model, surface_only)[0]


def _pencil_and_split(
    model: LatticeModel, surface_only: bool
) -> tuple[HardcorePencil, FewBodySplit, np.ndarray]:
    """:func:`assemble_hardcore3_pencil` plus the split it was built from and
    the owning pair of each configuration (−1 where no pair owns a constraint).

    ``split.total()`` sums the terms in the order :func:`build_hamiltonian`
    does, so it is H bit for bit without assembling the terms a second time.
    """
    if model.N != 3:
        raise InvalidInputError(f"three-body pencil needs N=3, got N={model.N}")
    split = build_split(model)
    pairs = model.pairs()
    faddeev_op = assemble_faddeev_operator(split)
    d = model.dimension

    owner = np.full(d, -1, dtype=np.int64)
    claimed = np.zeros(d, dtype=np.int64)
    constraint_rows: dict = {}
    for i, pair in enumerate(pairs):
        sites = core_region(model, pair).sites
        if surface_only:  # only the shell at separation exactly c
            sites = sites[separations(model, pair)[sites] == model.core_radius]
        claimed[sites] += 1
        owned = sites[owner[sites] == -1]
        owner[owned] = i
        constraint_rows.update({(pair.members, s): i * d + s for s in owned.tolist()})

    owned = [owner == i for i in range(3)]
    a = BlockOperator(
        [[_constrain(block, owned[i]) for block in row] for i, row in enumerate(faddeev_op.entries)],
        block_dim=d,
    )
    b = BlockOperator(
        [[Operator.diagonal(1.0 - owned[i]) if i == j else None for j in range(3)] for i in range(3)],
        block_dim=d,
    )
    pencil = HardcorePencil(a=a, b=b, constraint_rows=constraint_rows,
                            collision_count=int(np.sum(claimed > 1)), surface_only=surface_only)
    return pencil, split, owner


@dataclass(frozen=True)
class Hardcore3Result:
    """Accepted (or flagged) pencil eigenpair with its physicality evidence.

    ``core_vanishing`` is max |Ψ| over in-core configurations relative to
    ‖Ψ‖; ``restricted_residual`` is the Schrödinger defect of Ψ on the
    restricted space. ``physical`` is the conjunction of both filters at
    their documented thresholds; a False value means the solver landed on an
    auxiliary pencil root, and the two measurements say why. ``ground_state``
    is :func:`ground_state` of the same H, the default target and the value
    to compare against; ``restricted_dim`` counts the configurations outside
    every core.
    """

    eigen: EigenResult
    components: tuple
    psi: np.ndarray
    core_vanishing: float
    restricted_residual: float
    physical: bool
    target_used: float
    ground_state: EigenResult
    restricted_dim: int


def solve_hardcore3(
    model: LatticeModel,
    target: Optional[float] = None,
    tol: float = 1e-10,
    max_iter: int = 300,
    surface_only: bool = False,
    seed: int = 12345,
) -> Hardcore3Result:
    """Shift-invert on the hard-core pencil, with post-hoc physicality tests.

    When no target is given the Lanczos ground state of the restricted H
    (:func:`ground_state`) is used, which is both the physically interesting
    point and a shift at which the wanted pencil root dominates the inverse
    iteration. The pencil's auxiliary roots (B has zero rows) are filtered,
    not trusted: the reconstruction Ψ = Σβ ψβ must vanish on every core site
    and satisfy the restricted equation, otherwise the result is flagged by
    ``physical``. ``seed`` fixes the start vector of the inverse iteration.
    The Lanczos ground state is computed under an explicit target too, as the
    reference, so a core no configuration survives raises
    :class:`InvalidInputError`.

    Each shift z factors H − z restricted to the unconstrained sites and
    solves H0 − z through the split's Kronecker channel
    (:class:`~fykit.faddeev._FaddeevShiftedFactor`), never the
    3d-dimensional pencil, except within ``H0_SPECTRUM_GUARD`` of σ(H0),
    where A − zB is factored whole.
    """
    pencil, split, owner = _pencil_and_split(model, surface_only)
    h = split.total().to_sparse()
    kept, hr = _restricted_hamiltonian(model, h)
    gs = _ground_state(model, h, (kept, hr))
    target = float(gs.value if target is None else target)

    a, b = pencil.a.flatten(), pencil.b.flatten()
    sigma_h0 = split.channel_spectrum()

    def shifted_factor(z):
        if np.min(np.abs(sigma_h0 - z)) <= H0_SPECTRUM_GUARD * (1.0 + abs(z)):
            return _Resolvent(a, z, b, refine=False)
        return _FaddeevShiftedFactor(split, z, owner=owner, h=h)

    result = shift_invert_retry(
        a, target, b=b, tol=tol, max_iter=max_iter, seed=seed, shifted_factor=shifted_factor
    )

    comps = tuple(pencil.a.block_rows(np.real_if_close(result.vector)))
    psi = np.sum(comps, axis=0)
    pnorm = float(np.linalg.norm(psi))
    in_core = np.ones(model.dimension, dtype=bool)
    in_core[kept] = False
    if pnorm == 0.0:
        core_vanishing = np.inf
        restricted_residual = np.inf
    else:
        core_abs = float(np.max(np.abs(psi[in_core]))) if in_core.any() else 0.0
        core_vanishing = core_abs / pnorm
        psir = psi[kept]
        rnorm = np.linalg.norm(psir)
        if rnorm == 0.0:
            restricted_residual = np.inf
        else:
            z = np.real(result.value)
            restricted_residual = float(np.linalg.norm(hr @ psir - z * psir) / rnorm)
    physical = bool(
        core_vanishing <= CORE_VANISHING_TOL and restricted_residual <= RESTRICTED_RESIDUAL_TOL
    )
    return Hardcore3Result(
        eigen=result,
        components=comps,
        psi=psi,
        core_vanishing=float(core_vanishing),
        restricted_residual=float(restricted_residual),
        physical=physical,
        target_used=target,
        ground_state=gs,
        restricted_dim=int(kept.shape[0]),
    )


# ----------------------------------------------------------------------
# four-body constraint verification


@dataclass(frozen=True)
class Hardcore4Report:
    """Measured chain-condition defects over all constraint sites.

    ``per_chain`` holds max |C_{aα}(site)| per chain (0.0 where a chain has
    no constraint sites); ``max_defect`` is the overall maximum and
    ``relative_defect`` rescales it by the largest component norm. These are
    measurements: the expected magnitude for components built from
    restricted eigenvectors is an open question, so nothing here gates.
    """

    per_chain: np.ndarray
    max_defect: float
    relative_defect: float
    site_count: int


class Hardcore4Evaluator:
    """Evaluates the four-body chain boundary conditions on components.

    For every chain (a, α) and every core site of pair α the condition

        C_{aα} = ψ_{aα} + Σ_{β⊂a} ψ_{aβ} + Σ_{b≠a} Σ_{(β≠α)⊂a} ψ_{bβ}

    is transcribed literally (the middle sum runs over all pairs inside a,
    the cross sum keeps only defined components, i.e. β ⊂ b). No solver is
    attached; this is the verification half of the four-body hard-core
    story.
    """

    def __init__(self, sys: YakubovskySystem, model: LatticeModel):
        if model.N != 4:
            raise InvalidInputError(f"four-body constraints need N=4, got N={model.N}")
        if model.dimension != sys.dim:
            raise InvalidInputError(
                f"model dimension {model.dimension} != system dimension {sys.dim}"
            )
        self.sys = sys
        self.model = model
        self.chains = sys.chains
        self.sites = [core_region(model, chain.pair).sites for chain in self.chains]

    @property
    def site_count(self) -> int:
        return int(sum(s.shape[0] for s in self.sites))

    def evaluate(self, comps: YakubovskyComponents) -> Hardcore4Report:
        by_chain = comps.by_chain(self.chains)
        per_chain = np.zeros(len(self.chains))
        max_norm = max((np.linalg.norm(v) for v in comps.components), default=0.0)
        for i, chain in enumerate(self.chains):
            sites = self.sites[i]
            if sites.shape[0] == 0:
                continue
            a, alpha = chain.partition, chain.pair
            c = by_chain[chain].copy()
            for beta in a.internal_pairs():
                c = c + by_chain[Chain(a, beta)]
            for other, vec in by_chain.items():
                if other.partition == a:
                    continue
                beta = other.pair
                if beta != alpha and a.contains_pair(beta):
                    c = c + vec
            per_chain[i] = float(np.max(np.abs(c[sites])))
        max_defect = float(per_chain.max()) if len(self.chains) else 0.0
        rel = max_defect / max_norm if max_norm > 0 else 0.0
        return Hardcore4Report(
            per_chain=per_chain,
            max_defect=max_defect,
            relative_defect=float(rel),
            site_count=self.site_count,
        )


def assemble_hardcore4_constraints(sys: YakubovskySystem, model: LatticeModel) -> Hardcore4Evaluator:
    """Build the chain-condition evaluator for a four-body lattice model."""
    return Hardcore4Evaluator(sys, model)
