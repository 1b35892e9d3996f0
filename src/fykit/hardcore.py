"""Hard-core interactions as boundary conditions on component equations.

A hard core of radius c forbids every configuration where some pair sits at
separation ≤ c. The physically defined model is the restricted one: delete
those configurations and diagonalize what is left (:func:`restricted_oracle`).
The component formulation reproduces it without deleting anything: pair
potentials are set to zero on their core region, and the component-α
equation rows on core sites of α are replaced by the constraint

    Σβ ψβ(site) = 0,

which forces the reconstructed Ψ = Σβ ψβ to vanish on every core site. With
the constraint rows carrying no z-dependence the problem becomes a matrix
pencil (A, B): A holds the modified block operator rows, B is the identity
with zeros exactly on constraint rows. Eigenvalues of the restricted model
are eigenvalues of the pencil (lift the restricted eigenvector through the
component construction); the pencil may carry auxiliary roots as well, so
accepted eigenpairs are filtered by the vanishing and restricted-equation
tests, never trusted on the eigenvalue alone.

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

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.linalg as sla

from .blockops import (
    BlockOperator,
    EigenResult,
    Operator,
    dense_limit,
    shift_invert_retry,
)
from .combinatorics import Chain, Pair
from .errors import (
    InvalidInputError,
    SpuriousRootWarning,
    TooLargeError,
)
from .faddeev import FewBodySplit, assemble_faddeev_operator
from .lattice import (
    LatticeModel,
    build_hamiltonian,
    dense_oracle_spectrum,
    hamiltonian_terms,
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
    "assemble_hardcore3_pencil",
    "solve_hardcore3",
    "assemble_hardcore4_constraints",
]

CORE_VANISHING_TOL = 1e-10
RESTRICTED_RESIDUAL_TOL = 1e-8


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


def restricted_oracle(model: LatticeModel, k: Optional[int] = None) -> list[EigenResult]:
    """Ground truth for hard cores: delete in-core configurations, then eigh.

    Returned eigenvectors are embedded back into the full configuration
    space (zeros on deleted sites) so they compare directly with
    reconstructed pencil states. Residuals are measured in the restricted
    space, where the operator actually lives. Without a core this is the
    plain dense oracle.
    """
    if not model.has_core:
        return dense_oracle_spectrum(model, k)
    if model.dimension > dense_limit():
        raise TooLargeError(
            f"restricted oracle refused: dim {model.dimension} exceeds limit {dense_limit()}"
        )
    kept = restricted_space(model)
    if kept.shape[0] == 0:
        raise InvalidInputError(
            f"no configuration survives core radius {model.core_radius} on L={model.L}"
        )
    h = build_hamiltonian(model).materialize()
    hr = h[np.ix_(kept, kept)]
    vals, vecs = sla.eigh(hr)
    if k is None:
        k = vals.shape[0]
    if not 1 <= k <= vals.shape[0]:
        raise InvalidInputError(f"eigenpair count must be in 1..{vals.shape[0]}, got {k}")
    out = []
    for idx in range(k):
        res = float(np.linalg.norm(hr @ vecs[:, idx] - vals[idx] * vecs[:, idx]))
        full = np.zeros(model.dimension)
        full[kept] = vecs[:, idx]
        out.append(
            EigenResult(
                value=float(vals[idx]),
                vector=full,
                residual_norm=res,
                iterations=0,
                method="restricted-eigh",
            )
        )
    return out


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

    @property
    def constraint_count(self) -> int:
        return len(self.constraint_rows)


def _constraint_sites(model: LatticeModel, pair: Pair, surface_only: bool) -> np.ndarray:
    sep = separations(model, pair)
    if surface_only:
        return np.nonzero(sep == model.core_radius)[0].astype(np.int64)
    return np.nonzero(sep <= model.core_radius)[0].astype(np.int64)


def assemble_hardcore3_pencil(model: LatticeModel, surface_only: bool = False) -> HardcorePencil:
    """Constraint surgery on the three-component block operator.

    Without a core the pencil degenerates to (block operator, identity).
    With one, for every pair α and every site s in its constraint set, the
    component-α row at s becomes Σβ ψβ(s) = 0 and the matching B row is
    zeroed; a site inside several cores is owned by the first pair claiming
    it (canonical pair order) and the duplicate rows stay free, which keeps
    the pencil square with one constraint per core site.
    """
    if model.N != 3:
        raise InvalidInputError(f"three-body pencil needs N=3, got N={model.N}")
    h0, pairs, pots = hamiltonian_terms(model)
    split = FewBodySplit(h0=h0, potentials=tuple(pots))
    faddeev_op = assemble_faddeev_operator(split)
    d = model.dimension

    if not model.has_core:
        ident = Operator.identity(d)
        b = BlockOperator(
            [[ident if i == j else None for j in range(3)] for i in range(3)],
            block_dim=d,
        )
        return HardcorePencil(
            a=faddeev_op, b=b, constraint_rows={}, collision_count=0, surface_only=surface_only
        )

    owner = np.full(d, -1, dtype=np.int64)
    claimed = np.zeros(d, dtype=np.int64)
    per_pair_sites = []
    for i, pair in enumerate(pairs):
        sites = _constraint_sites(model, pair, surface_only)
        per_pair_sites.append(sites)
        claimed[sites] += 1
        fresh = sites[owner[sites] == -1]
        owner[fresh] = i
    collision_count = int(np.sum(claimed > 1))

    # Work on LIL copies of the 3x3 grid for row surgery.
    grid = [
        [
            (faddeev_op.entries[i][j].to_sparse().tolil() if faddeev_op.entries[i][j] is not None
             else sp.lil_matrix((d, d)))
            for j in range(3)
        ]
        for i in range(3)
    ]
    b_diag = [np.ones(d) for _ in range(3)]
    constraint_rows: dict = {}
    for i, pair in enumerate(pairs):
        owned = per_pair_sites[i][owner[per_pair_sites[i]] == i]
        for s in owned:
            for j in range(3):
                grid[i][j].rows[s] = [int(s)]
                grid[i][j].data[s] = [1.0]
            b_diag[i][s] = 0.0
            constraint_rows[(pair.members, int(s))] = i * d + int(s)

    a = BlockOperator(
        [[Operator.sparse(grid[i][j].tocsr()) for j in range(3)] for i in range(3)],
        block_dim=d,
    )
    b = BlockOperator(
        [
            [Operator.diagonal(b_diag[i]) if i == j else None for j in range(3)]
            for i in range(3)
        ],
        block_dim=d,
    )
    return HardcorePencil(
        a=a,
        b=b,
        constraint_rows=constraint_rows,
        collision_count=collision_count,
        surface_only=surface_only,
    )


@dataclass(frozen=True)
class Hardcore3Result:
    """Accepted (or flagged) pencil eigenpair with its physicality evidence.

    ``core_vanishing`` is max |Ψ| over in-core configurations relative to
    ‖Ψ‖; ``restricted_residual`` is the Schrödinger defect of Ψ on the
    restricted space. ``physical`` is the conjunction of both filters at
    their documented thresholds; a False value means the solver landed on an
    auxiliary pencil root.
    """

    eigen: EigenResult
    components: tuple
    psi: np.ndarray
    core_vanishing: float
    restricted_residual: float
    physical: bool
    target_used: float


def solve_hardcore3(
    model: LatticeModel,
    target: Optional[float] = None,
    tol: float = 1e-10,
    max_iter: int = 300,
    surface_only: bool = False,
    seed: int = 12345,
) -> Hardcore3Result:
    """Shift-invert on the hard-core pencil, with post-hoc physicality tests.

    When no target is given the restricted oracle's ground state is used,
    which is both the physically interesting point and a shift at which the
    wanted pencil root dominates the inverse iteration. The pencil's
    auxiliary roots (B has zero rows) are filtered, not trusted: the
    reconstruction Ψ = Σβ ψβ must vanish on every core site and satisfy the
    restricted equation, otherwise the result is flagged and a warning
    raised. ``seed`` fixes the start vector of the inverse iteration.
    """
    pencil = assemble_hardcore3_pencil(model, surface_only=surface_only)
    kept = restricted_space(model)
    if target is None:
        target = restricted_oracle(model, 1)[0].value
    target = float(target)

    result = shift_invert_retry(
        pencil.a.flatten(), target, b=pencil.b.flatten(), tol=tol, max_iter=max_iter, seed=seed
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
        h = build_hamiltonian(model).materialize()
        hr = h[np.ix_(kept, kept)]
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
    if not physical:
        warnings.warn(
            f"pencil eigenvalue {result.value} failed physicality filters "
            f"(core vanishing {core_vanishing:.2e}, restricted residual "
            f"{restricted_residual:.2e}); auxiliary root",
            SpuriousRootWarning,
            stacklevel=2,
        )
    return Hardcore3Result(
        eigen=result,
        components=comps,
        psi=psi,
        core_vanishing=float(core_vanishing),
        restricted_residual=float(restricted_residual),
        physical=physical,
        target_used=target,
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
