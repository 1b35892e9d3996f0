"""Four-body chain components and the coupled 18-block operator.

The four-body decomposition refines each pair component ψα into chain
components indexed by the 18 (partition, pair) chains:

    ψ_{aα} = −(H0 + Vα − z)^{−1} Vα Σ_{(β≠α)⊂a} ψβ,

which satisfy Σ_{a⊃α} ψ_{aα} = ψα and the coupled equations

    (H0 + Vα − z) ψ_{aα} + Vα Σ_{(β≠α)⊂a} ψ_{aβ}
        + Vα Σ_{b≠a} Σ_{(β≠α)⊂a, β⊂b} ψ_{bβ} = 0.

As a block matrix the system has a rigid sparsity pattern: the (aα, bβ)
entry is Vα exactly when β ⊂ a and β ≠ α (with bβ a valid chain), so rows
of 3+1 partitions carry 6 off-diagonal blocks, rows of 2+2 partitions carry
3, and there are 90 nonzero off-diagonal blocks in all. The double sum's
implicit validity filter (only defined components enter) is exactly what
:func:`fykit.combinatorics.verify_chain_identity` certifies.

Summing the rows of one pair γ over the partitions a ⊃ γ collapses the
system onto the six pair sums s_γ = Σ_{a⊃γ} ψ_{aγ}: every β ≠ γ lies inside
exactly one such partition, so the sums obey the three-body-style Faddeev
equations (H0 + Vγ − z) s_γ + Vγ Σ_{β≠γ} s_β = (pair sum of the right-hand
side). The shifted four-body solve uses that reduction: it solves for the
pair sums through H − z and H0 − z, then recovers each chain component from
its own channel H0 + Vα, so nothing larger than the model dimension d is
solved. On a lattice only H − z is factored: H0 and every channel are
Kronecker sums, diagonalized once per model by small dense eigensolves
(:class:`fykit.lattice.KroneckerChannel`). The flattened 18-block operator
is assembled only for products, Rayleigh quotients and the post-hoc
residual, so the check stays independent of the reduced solve.

For four identical particles the components are pairwise related by the
exact lattice permutation operators; the checks here measure that transport
instead of assuming it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .blockops import (
    BlockOperator,
    EigenResult,
    Operator,
    _Resolvent,
    shift_invert_eigenpair,
)
from .combinatorics import (
    Chain,
    Pair,
    enumerate_chains,
    enumerate_pairs,
    permute_chain,
    permute_pair,
)
from .errors import (
    ChannelEnergyError,
    InvalidInputError,
    SingularMatrixError,
)
from .faddeev import (
    _NORM_FLOOR,
    FaddeevComponents,
    FewBodySplit,
    _FaddeevShiftedFactor,
    assemble_coupled,
)

__all__ = [
    "YakubovskySystem",
    "YakubovskyComponents",
    "ChainSumReport",
    "SymmetryReport",
    "yakubovsky_components",
    "chain_sum_consistency",
    "assemble_yakubovsky_operator",
    "yakubovsky_residual",
    "solve_fourbody_ground_state",
    "component_symmetry_check",
    "faddeev_symmetry_check",
]

# The symmetry checks skip a level with two oracle eigenvalues this close to z,
# and refuse a model whose potential covariance or H0 commutation defect exceeds
# COVARIANCE_TOL.
DEGENERACY_GAP = 1e-8
COVARIANCE_TOL = 1e-10


@functools.cache
def _canonical_tables() -> tuple:
    """The pairs and chains of four particles, as tuples, and two read-only
    tables: ``pair_rows`` (6×3), the chains of each pair, and ``chain_others``
    (18×2), the other pairs inside each chain's partition, a 2+2 chain's one
    padded with 6 for a zero row after the six pair sums. The same for every
    :class:`YakubovskySystem`, so built once per process."""
    pairs, chains = tuple(enumerate_pairs(4)), tuple(enumerate_chains(4))
    pair_rows = np.array([[i for i, c in enumerate(chains) if c.pair == p] for p in pairs])
    others = [[pairs.index(b) for b in c.partition.internal_pairs() if b != c.pair]
              for c in chains]
    chain_others = np.array([row + [6] * (2 - len(row)) for row in others])
    pair_rows.flags.writeable = chain_others.flags.writeable = False  # shared through the cache
    return pairs, chains, pair_rows, chain_others


@dataclass(frozen=True)
class YakubovskySystem:
    """A four-body split (six pair potentials) plus the 18 chains.

    The i-th potential belongs to the i-th entry of the canonical pair
    enumeration of four particles; that bijection fixes every block index
    below and is validated, not assumed.
    """

    split: FewBodySplit

    def __post_init__(self):
        if self.split.n != 6:
            raise InvalidInputError(
                f"a four-body system needs 6 pair potentials, got {self.split.n}"
            )

    pairs = property(lambda self: _canonical_tables()[0])
    chains = property(lambda self: _canonical_tables()[1])
    pair_rows = property(lambda self: _canonical_tables()[2])
    chain_others = property(lambda self: _canonical_tables()[3])

    @property
    def dim(self) -> int:
        return self.split.dim

    def potential(self, pair: Pair) -> Operator:
        return self.split.potentials[self.pairs.index(pair)]


@dataclass(frozen=True)
class YakubovskyComponents:
    """The 18 chain components of one eigenpair, in canonical chain order."""

    z: complex
    components: tuple

    def __post_init__(self):
        if len(self.components) != 18:
            raise InvalidInputError(f"expected 18 components, got {len(self.components)}")

    def by_chain(self, chains: Sequence[Chain]) -> dict:
        return dict(zip(chains, self.components))

    def total(self) -> np.ndarray:
        return np.sum(self.components, axis=0)


def yakubovsky_components(
    sys: YakubovskySystem, z, faddeev: FaddeevComponents
) -> YakubovskyComponents:
    """Refine six pair components into the 18 chain components.

    Each chain (a, α) solves its own channel system: the resolvent of
    H0 + Vα at z applied to Vα times the sum of the *other* pair components
    living inside the cluster a. A z inside some channel spectrum breaks
    only that channel, so the error names the offending pair. The three
    chains of a pair are solved as one block by one
    :class:`~fykit.blockops._Resolvent` of their channel operator: conjugate
    gradients when H0 + Vα − z is provably positive definite, one LU
    otherwise.
    """
    if faddeev.n != 6:
        raise InvalidInputError(f"need the 6 pair components, got {faddeev.n}")
    comps = np.concatenate([faddeev.components, np.zeros((1, sys.dim))])
    others = comps[sys.chain_others].sum(axis=1)
    out = [None] * len(sys.chains)
    for alpha, rows, v in zip(sys.pairs, sys.pair_rows, sys.split.potentials):
        try:
            sols = _Resolvent(sys.split.h0 + v, z).solve(v.apply(np.stack(others[rows], axis=1)))
        except SingularMatrixError as exc:
            raise ChannelEnergyError(
                f"z = {z} is numerically in the spectrum of channel {alpha}",
                pair=alpha,
            ) from exc
        for i, sol in zip(rows, sols.T):
            out[i] = -sol
    return YakubovskyComponents(z=z, components=tuple(out))


@dataclass(frozen=True)
class ChainSumReport:
    """Defects of the two resummation identities for one component set.

    ``per_pair[i]`` is ‖Σ_{a⊃α} ψ_{aα} − ψα‖ / max(‖ψα‖, tiny) for the i-th
    canonical pair; ``total_defect`` is the relative defect of the full
    18-chain sum against Ψ = Σα ψα.
    """

    per_pair: np.ndarray
    total_defect: float


def chain_sum_consistency(
    sys: YakubovskySystem, comps: YakubovskyComponents, faddeev: FaddeevComponents
) -> ChainSumReport:
    """Check Σ_{a⊃α} ψ_{aα} = ψα per pair and the full sum against Ψ."""
    if faddeev.n != 6:
        raise InvalidInputError(f"need the 6 pair components, got {faddeev.n}")
    if comps.z != faddeev.z:
        raise InvalidInputError(f"mismatched energies: {comps.z} vs {faddeev.z}")
    sums = np.asarray(comps.components)[sys.pair_rows].sum(axis=1)
    per_pair = np.array([np.linalg.norm(s - psi) / max(np.linalg.norm(psi), _NORM_FLOOR)
                         for s, psi in zip(sums, faddeev.components)])
    psi = faddeev.total()
    total = np.linalg.norm(comps.total() - psi) / max(np.linalg.norm(psi), _NORM_FLOOR)
    return ChainSumReport(per_pair=per_pair, total_defect=float(total))


def _pair_membership(chains: Sequence[Chain], pairs: Sequence[Pair]) -> tuple:
    """The chains × pairs table of which partition holds which pair; each chain's pair index."""
    inside = np.array([[c.partition.contains_pair(p) for p in pairs] for c in chains])
    return inside, np.array([pairs.index(c.pair) for c in chains])


@functools.cache
def _partition_sums() -> tuple[np.ndarray, np.ndarray]:
    """Chain indices of each canonical chain (a, α)'s two residual sums, padded with 18:
    18×2 same-partition chains (a, β≠α) in ``a.internal_pairs()`` order, and 18×4
    cross-partition chains (b≠a, β≠α) with β ⊂ a in chain order; built once per process."""
    chains, pairs = enumerate_chains(4), enumerate_pairs(4)
    inside, own = _pair_membership(chains, pairs)
    same = [[chains.index(Chain(c.partition, b)) for b in c.partition.internal_pairs()
             if b != c.pair] for c in chains]
    cross = [[j for j, b in enumerate(chains) if inside[i, own[j]] and own[j] != own[i]
              and b.partition != c.partition] for i, c in enumerate(chains)]
    same, cross = (np.array([row + [18] * (width - len(row)) for row in table])
                   for table, width in ((same, 2), (cross, 4)))
    same.flags.writeable = cross.flags.writeable = False  # shared through the cache
    return same, cross


def coupling_pattern(chains: Sequence[Chain]) -> np.ndarray:
    """Boolean 18×18 mask: True where the block (row, col) holds V_{row.pair}.

    Row (a, α) couples to column (b, β) exactly when β ⊂ a and β ≠ α; the
    column being a chain already guarantees β ⊂ b.
    """
    inside, own = _pair_membership(chains, list(dict.fromkeys(c.pair for c in chains)))
    return inside[:, own] & (own[:, None] != own[None, :])


def assemble_yakubovsky_operator(sys: YakubovskySystem) -> BlockOperator:
    """The 18×18 block operator: H0 + Vα on the diagonal, Vα on couplings.

    Off-diagonal entries follow :func:`coupling_pattern`; every nonzero
    entry in row (a, α) is the same Vα, which is what makes the row read as
    one coupled equation.
    """
    chains, pairs = sys.chains, sys.pairs
    return assemble_coupled(
        sys.split, [pairs.index(c.pair) for c in chains], coupling_pattern(chains)
    )


def yakubovsky_residual(sys: YakubovskySystem, comps: YakubovskyComponents) -> np.ndarray:
    """Per-chain defect of the coupled equations, from the explicit sums.

    Computes (H0 + Vα − z) ψ_{aα} plus Vα times the same-partition sum and
    the cross-partition double sum separately, rather than reusing the
    assembled operator, so the two formulations can be compared as
    independent transcriptions: the tables of :func:`_partition_sums` come
    from the chain definitions, not from :func:`coupling_pattern`. All 18
    chains are computed at once, and each sum adds its terms in chain order.
    """
    psi = np.asarray(comps.components)
    padded = np.concatenate([psi, np.zeros((1, sys.dim))])
    same, cross = (sum(padded[col] for col in table.T) for table in _partition_sums())
    by_pair = np.stack([psi, same, cross], axis=1)[sys.pair_rows]  # pair × chain × term × d
    applied = sys.split.potential_rows_apply(by_pair.reshape(6, 9, -1)).reshape(18, 3, -1)
    v_psi, v_same, v_cross = applied[np.argsort(sys.pair_rows, axis=None)].transpose(1, 0, 2)
    # C order: the norms below must each read one contiguous row
    defect = np.ascontiguousarray(
        sys.split.h0.apply(psi.T).T + v_psi - comps.z * psi + v_same + v_cross)
    return np.array([np.linalg.norm(d) / max(np.linalg.norm(p), _NORM_FLOOR)
                     for d, p in zip(defect, psi)])


class _PairSumFactor:
    """(A − z)⁻¹ for the flattened 18-block operator A, through the pair sums.

    Solving (A − z) x = b: the pair sums s = S x solve the 6-block Faddeev
    system (F − z) s = S b (S sums the chain blocks of each pair), solved
    through H − z and H0 − z; then x_{aα} = (H0 + Vα − z)⁻¹ (b_{aα} − Vα
    Σ_{(β≠α)⊂a} s_β). Every step is exact and works on nothing larger than
    d: H − z is factored, and H0 − z and the channels are diagonalized
    through their Kronecker structure for a lattice split and factored
    otherwise. So A − z is singular exactly when H − z, H0 − z or a channel
    is, and that step raises :class:`ShiftSingularError`. The sums are
    fancy-index sums over the system's tables, one
    :meth:`FewBodySplit.potential_rows_apply` applies the potentials, and the
    channels are solved once per :meth:`FewBodySplit.channel_groups` group
    (all six pairs of an identical lattice model in one).
    """

    def __init__(self, sys: YakubovskySystem, z):
        self.split, self.pair_rows = sys.split, sys.pair_rows
        self.others = sys.chain_others[sys.pair_rows]  # 6×3×2, by pair
        self.faddeev = _FaddeevShiftedFactor(sys.split, z)
        self.groups = sys.split.channel_groups(z)

    def solve(self, b: np.ndarray) -> np.ndarray:
        blocks = np.asarray(b).reshape(self.pair_rows.size, -1)
        by_pair = blocks[self.pair_rows]  # 6×3×d
        sums = self.faddeev.solve(by_pair.sum(axis=1))
        # the padding row is −0.0, which leaves every sum it enters bit for bit as it was
        padded = np.concatenate([sums, np.full((1, sums.shape[1]), -0.0)])
        coupled = padded[self.others].sum(axis=2)
        rhs = by_pair - self.split.potential_rows_apply(coupled)
        out = np.empty(blocks.shape, dtype=rhs.dtype)
        for parts, solver in self.groups:
            rows = self.pair_rows[parts]
            cols = solver.solve(rhs[parts].reshape(rows.size, -1).T)
            out[rows] = cols.T.reshape(rows.shape + (-1,))
        return out.ravel()


def solve_fourbody_ground_state(
    sys: YakubovskySystem,
    target: float,
    tol: float = 1e-10,
    max_iter: int = 200,
    seed: int = 12345,
) -> EigenResult:
    """Shift-invert solve of the flattened 18-block operator from ``target``.

    Each shifted solve goes through the six Faddeev pair sums
    (:class:`_PairSumFactor`): only H − z is factored, and H0 − z and the
    six channels H0 + Vα − z are solved through the split's Kronecker
    channels when it carries them (a lattice split, from
    :func:`fykit.lattice.build_split`) and by LU otherwise. The 18-block
    flatten (sparse for lattice models) serves only the products and the
    post-hoc residual. ``seed`` fixes the start vector. A singular shift is
    stepped off by :func:`~fykit.blockops.shift_invert_eigenpair`. The
    18-block operator carries auxiliary spectrum next to the unperturbed and
    channel spectra; :meth:`FewBodySplit.auxiliary_distance` says whether the
    returned eigenvalue lies there.
    """
    flat = assemble_yakubovsky_operator(sys).flatten()
    factor = functools.partial(_PairSumFactor, sys)
    return shift_invert_eigenpair(
        flat, target, tol=tol, max_iter=max_iter, seed=seed, shifted_factor=factor
    )


# ----------------------------------------------------------------------
# permutation-symmetry checks


@dataclass(frozen=True)
class SymmetryReport:
    """Measured permutation transport of a component set.

    ``sign_table`` maps each permutation (as an image tuple) to its measured
    sign s(π) on the total state Ψ; ``max_deviation`` bounds
    ‖U_π ψ_i − s(π) ψ_{π(i)}‖ / ‖ψ_i‖ over all permutations and component
    indices. ``skipped`` with a notice means the level looked degenerate and
    the check refused to interpret transport on an arbitrary basis choice.
    """

    max_deviation: float
    sign_table: dict
    skipped: bool
    notice: str
    covariance_defect: float
    commutation_defect: float


def _check_covariance(h0: Operator, pots: Sequence[Operator], pairs: Sequence[Pair], perm_ops) -> tuple[float, float]:
    """Measured defects of U_π Vα U_π^{−1} = V_{π(α)} and [H0, U_π] = 0."""
    dim = h0.dim
    rng = np.random.default_rng(20240901)
    probes = rng.standard_normal((dim, 3))
    pot_by_pair = dict(zip(pairs, pots))
    cov = 0.0
    comm = 0.0
    for u in perm_ops:
        inv = np.empty_like(u.index_map)
        inv[u.index_map] = np.arange(dim)
        for alpha, v in pot_by_pair.items():
            target = pot_by_pair[permute_pair(u.perm, alpha)]
            for k in range(probes.shape[1]):
                x = probes[:, k]
                lhs = v.apply(x[inv])[u.index_map]
                rhs = target.apply(x)
                cov = max(cov, float(np.linalg.norm(lhs - rhs) / np.linalg.norm(x)))
        for k in range(probes.shape[1]):
            x = probes[:, k]
            lhs = h0.apply(x)[u.index_map]
            rhs = h0.apply(x[u.index_map])
            comm = max(comm, float(np.linalg.norm(lhs - rhs) / np.linalg.norm(x)))
    return cov, comm


def _measure_sign(psi: np.ndarray, u) -> tuple[float, float]:
    """Overlap-based sign of U_π on psi, plus how far psi is from a sign state."""
    upsi = u.apply(psi)
    overlap = float(np.dot(upsi, psi) / np.dot(psi, psi))
    s = 1.0 if overlap >= 0 else -1.0
    defect = float(np.linalg.norm(upsi - s * psi) / np.linalg.norm(psi))
    return s, defect


def _symmetry_check(
    split: FewBodySplit,
    pairs: Sequence[Pair],
    items: Sequence,
    vectors: Sequence[np.ndarray],
    psi: np.ndarray,
    z,
    permute_item,
    perm_ops: Sequence,
    oracle_values: Optional[Sequence[float]],
) -> SymmetryReport:
    """Shared engine: verify U_π vec_i = s(π) vec_{π(i)} for labeled vectors.

    ``items`` label ``vectors`` and ``permute_item`` maps a label under a
    permutation; ``psi`` is the total state whose sign s(π) is measured.
    """
    cov, comm = _check_covariance(split.h0, split.potentials, pairs, perm_ops)
    if cov > COVARIANCE_TOL or comm > COVARIANCE_TOL:
        raise InvalidInputError(
            f"permutation covariance violated: potential defect {cov:.2e}, "
            f"H0 commutation defect {comm:.2e}"
        )
    skipped = functools.partial(
        SymmetryReport, max_deviation=np.nan, skipped=True,
        covariance_defect=cov, commutation_defect=comm,
    )
    if oracle_values is not None:
        z = np.real(z)
        vals = np.asarray(oracle_values, dtype=float)
        if int(np.sum(np.abs(vals - z) <= DEGENERACY_GAP)) > 1:
            return skipped(
                sign_table={},
                notice=f"level {z} is degenerate within {DEGENERACY_GAP:.1e}; check skipped",
            )
    index = {item: i for i, item in enumerate(items)}
    sign_table = {}
    max_dev = 0.0
    for u in perm_ops:
        s, sign_defect = _measure_sign(psi, u)
        sign_table[u.perm] = s
        if sign_defect > 1e-6:
            return skipped(
                sign_table=sign_table,
                notice=f"total state is not a sign eigenvector of permutation {u.perm} "
                f"(defect {sign_defect:.2e}); level is degenerate or asymmetric",
            )
        for item, vec in zip(items, vectors):
            mapped = vectors[index[permute_item(u.perm, item)]]
            dev = np.linalg.norm(u.apply(vec) - s * mapped) / max(
                np.linalg.norm(vec), _NORM_FLOOR
            )
            max_dev = max(max_dev, float(dev))
    return SymmetryReport(
        max_deviation=max_dev,
        sign_table=sign_table,
        skipped=False,
        notice="",
        covariance_defect=cov,
        commutation_defect=comm,
    )


def component_symmetry_check(
    sys: YakubovskySystem,
    comps: YakubovskyComponents,
    faddeev: FaddeevComponents,
    perm_ops: Sequence,
    oracle_values: Optional[Sequence[float]] = None,
) -> SymmetryReport:
    """Verify U_π ψ_{aα} = s(π) ψ_{π(a)π(α)} over all given permutations.

    The covariance of the potentials and the commutation of H0 with every
    U_π are measured first; a model that is not permutation-symmetric (for
    example one with per-pair potential overrides) fails that precondition
    rather than producing a meaningless transport number. Degenerate levels
    are skipped with a notice: transport between arbitrary basis vectors of
    a degenerate eigenspace is not defined by the state alone. Degeneracy is
    detected from the supplied oracle eigenvalues (two within
    :data:`DEGENERACY_GAP` of z) when given, and from the sign-eigenvector
    defect of Ψ otherwise. Both covariance defects must be at most
    :data:`COVARIANCE_TOL`.
    """
    return _symmetry_check(sys.split, sys.pairs, sys.chains, list(comps.components),
                           faddeev.total(), comps.z, permute_chain, perm_ops, oracle_values)


def faddeev_symmetry_check(
    split: FewBodySplit,
    pairs: Sequence[Pair],
    comps: FaddeevComponents,
    perm_ops: Sequence,
    oracle_values: Optional[Sequence[float]] = None,
) -> SymmetryReport:
    """Three-body analogue: verify U_π ψα = s(π) ψ_{π(α)} over permutations.

    Same preconditions and skip semantics as the four-body check; the
    transported labels are the pairs themselves since three-body chains are
    in bijection with pairs.
    """
    if len(pairs) != comps.n:
        raise InvalidInputError(f"{len(pairs)} pairs vs {comps.n} components")
    return _symmetry_check(split, pairs, list(pairs), list(comps.components), comps.total(),
                           comps.z, permute_pair, perm_ops, oracle_values)
