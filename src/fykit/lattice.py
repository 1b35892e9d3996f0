"""Few-body lattice models in particle coordinates.

A model is N particles hopping on a 1-D chain of L sites (open "box" or
periodic "ring"), with diagonal pair potentials depending on the lattice
separation. States live on the full configuration space of dimension L^N,
indexed row-major with particle 1 most significant; no center-of-mass or
Jacobi reduction is performed. That costs dimension but buys exactness:
particle permutations are exact 0/1 index relabelings, and hard-core regions
are exact index sets rather than discretized surfaces.

The kinetic operator is the Kronecker sum of one-particle hopping operators
t·(2I − S − Sᵀ); potentials are diagonal in configuration space. Dense
brute-force diagonalization of H = H0 + Σα Vα is the ground-truth oracle the
component decompositions elsewhere in the package are verified against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.linalg as sla

from .blockops import EigenResult, Operator, dense_limit
from .combinatorics import Pair, enumerate_pairs
from .errors import InvalidInputError, TooLargeError

__all__ = [
    "PairPotential",
    "LatticeModel",
    "PermutationOperator",
    "build_h0",
    "build_pair_potential",
    "build_hamiltonian",
    "hamiltonian_terms",
    "dense_oracle_spectrum",
    "build_permutation",
    "separations",
    "coordinate_table",
    "DIMENSION_CAP",
]

# Hard ceiling on the configuration-space dimension L^N of any model; dense
# work is capped separately by dense_limit() (4096 by default), and sparse
# builds fill the gap between the two. 20736 = 12^4 keeps four-body work at
# desk scale.
DIMENSION_CAP = 20736

_POTENTIAL_KINDS = ("onsite", "square", "gaussian", "table")


@dataclass(frozen=True)
class PairPotential:
    """A radial pair potential v(r) on lattice separations r = 0..L−1.

    Kinds: ``onsite`` (params: depth g, nonzero only at r=0), ``square``
    (params: depth, range), ``gaussian`` (params: depth, width), ``table``
    (params: explicit values, v(r) = values[r], zero beyond the table).
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in _POTENTIAL_KINDS:
            raise InvalidInputError(
                f"unknown potential kind {self.kind!r}; expected one of {_POTENTIAL_KINDS}"
            )
        p = tuple(float(x) for x in self.params)
        object.__setattr__(self, "params", p)
        if any(not math.isfinite(x) for x in p):
            raise InvalidInputError(f"potential parameters must be finite, got {p}")
        need = {"onsite": 1, "square": 2, "gaussian": 2}.get(self.kind)
        if need is not None and len(p) != need:
            raise InvalidInputError(f"{self.kind} potential takes {need} parameter(s), got {len(p)}")
        if self.kind == "table" and len(p) == 0:
            raise InvalidInputError("table potential needs at least one value")
        if self.kind == "gaussian" and p[1] == 0.0:
            raise InvalidInputError("gaussian width must be nonzero")

    @classmethod
    def onsite(cls, depth: float) -> "PairPotential":
        return cls("onsite", (depth,))

    @classmethod
    def square(cls, depth: float, rng: float) -> "PairPotential":
        return cls("square", (depth, rng))

    @classmethod
    def gaussian(cls, depth: float, width: float) -> "PairPotential":
        return cls("gaussian", (depth, width))

    @classmethod
    def table(cls, values: Sequence[float]) -> "PairPotential":
        return cls("table", tuple(values))

    def evaluate(self, r: np.ndarray) -> np.ndarray:
        """v at integer separations r (array), before any core zeroing."""
        r = np.asarray(r)
        if self.kind == "onsite":
            return np.where(r == 0, self.params[0], 0.0)
        if self.kind == "square":
            depth, rng = self.params
            return np.where(r <= rng, depth, 0.0)
        if self.kind == "gaussian":
            depth, width = self.params
            return depth * np.exp(-((r / width) ** 2))
        table = np.asarray(self.params)
        out = np.zeros(r.shape)
        mask = r < table.shape[0]
        out[mask] = table[r[mask]]
        return out


@dataclass(frozen=True)
class LatticeModel:
    """N particles on L sites with a shared (or per-pair) pair potential.

    ``core_radius`` is None for no hard core; an integer c ≥ 0 switches the
    hard core on, with c = 0 meaning the coincidence set x_i = x_j is already
    forbidden. Whenever the core is active the potential is defined to vanish
    at separations r ≤ c (the interaction is replaced by the constraint
    there), and the builders enforce that by zeroing v on the core.

    ``per_pair`` optionally overrides the potential for specific pairs,
    which breaks permutation symmetry on purpose (distinguishable-particle
    stress tests); symmetry-dependent checks refuse such models.
    """

    N: int
    L: int
    boundary: str = "box"
    t: float = 1.0
    potential: PairPotential = PairPotential.onsite(0.0)
    core_radius: Optional[int] = None
    per_pair: Optional[dict] = None

    def __post_init__(self):
        if not isinstance(self.N, int) or not 1 <= self.N <= 4:
            raise InvalidInputError(f"particle count must be 1..4, got {self.N!r}")
        if not isinstance(self.L, int) or self.L < 2:
            raise InvalidInputError(f"need at least 2 sites, got {self.L!r}")
        if self.boundary not in ("box", "ring"):
            raise InvalidInputError(f"boundary must be 'box' or 'ring', got {self.boundary!r}")
        if not math.isfinite(self.t) or self.t < 0:
            raise InvalidInputError(f"hopping must be finite and >= 0, got {self.t!r}")
        if self.core_radius is not None:
            if not isinstance(self.core_radius, int) or self.core_radius < 0:
                raise InvalidInputError(
                    f"core_radius must be None or an integer >= 0, got {self.core_radius!r}"
                )
            if self.core_radius >= self.L:
                raise InvalidInputError(
                    f"core_radius {self.core_radius} leaves no allowed separations on L={self.L}"
                )
        if self.dimension > DIMENSION_CAP:
            raise TooLargeError(
                f"configuration space {self.L}^{self.N} = {self.dimension} exceeds cap {DIMENSION_CAP}"
            )
        if self.per_pair is not None:
            pairs = {p.members for p in enumerate_pairs(self.N)} if self.N >= 2 else set()
            norm = {}
            for key, pot in self.per_pair.items():
                members = key.members if isinstance(key, Pair) else tuple(sorted(key))
                if members not in pairs:
                    raise InvalidInputError(f"per_pair key {key!r} is not a pair of this model")
                if not isinstance(pot, PairPotential):
                    raise InvalidInputError("per_pair values must be PairPotential")
                norm[members] = pot
            object.__setattr__(self, "per_pair", norm)

    @property
    def dimension(self) -> int:
        return self.L ** self.N

    @property
    def has_core(self) -> bool:
        return self.core_radius is not None

    @property
    def is_identical(self) -> bool:
        """True when every pair shares one potential (permutation-symmetric)."""
        return not self.per_pair

    def potential_for(self, pair: Pair) -> PairPotential:
        if self.per_pair and pair.members in self.per_pair:
            return self.per_pair[pair.members]
        return self.potential

    def pairs(self) -> list[Pair]:
        return enumerate_pairs(self.N) if self.N >= 2 else []


def coordinate_table(model: LatticeModel) -> np.ndarray:
    """Array of shape (N, L^N): row i−1 holds coordinate x_i of every config.

    Configuration index n encodes (x_1, ..., x_N) base L with particle 1
    most significant, so slicing and Kronecker layouts agree everywhere.
    """
    return np.indices((model.L,) * model.N).reshape(model.N, -1)


def separations(model: LatticeModel, pair: Pair) -> np.ndarray:
    """Lattice separation of the pair in every configuration (length L^N).

    Box geometry uses |x_i − x_j|; ring geometry uses the minimal image
    min(|Δ|, L − |Δ|).
    """
    if max(pair.members) > model.N:
        raise InvalidInputError(f"pair {pair} not valid for N={model.N}")
    coords = coordinate_table(model)
    i, j = pair.members
    delta = np.abs(coords[i - 1] - coords[j - 1])
    if model.boundary == "ring":
        delta = np.minimum(delta, model.L - delta)
    return delta


def _one_particle_kinetic(model: LatticeModel) -> sp.csr_matrix:
    L, t = model.L, model.t
    ones = np.ones(L - 1)
    hop = sp.diags([ones, ones], offsets=[-1, 1], shape=(L, L), format="lil")
    if model.boundary == "ring" and L > 2:
        hop[0, L - 1] = 1.0
        hop[L - 1, 0] = 1.0
    return (t * (2.0 * sp.identity(L) - hop)).tocsr()


def build_h0(model: LatticeModel) -> Operator:
    """Kinetic operator: Kronecker sum of one-particle hopping matrices.

    Exactly symmetric by construction. Returned sparse; materialize for the
    dense oracles.
    """
    k1 = _one_particle_kinetic(model)
    L, N = model.L, model.N
    total = sp.csr_matrix((model.dimension, model.dimension))
    for i in range(N):
        left = sp.identity(L ** i, format="csr")
        right = sp.identity(L ** (N - i - 1), format="csr")
        total = total + sp.kron(sp.kron(left, k1), right, format="csr")
    return Operator.sparse(total)


def build_pair_potential(model: LatticeModel, pair: Pair) -> Operator:
    """Diagonal pair interaction v(separation) on configuration space.

    With an active hard core the entries at separations r ≤ core_radius are
    exactly zero: inside the core the interaction is superseded by the
    constraint, and keeping finite values there would double-count it.
    """
    r = separations(model, pair)
    vals = model.potential_for(pair).evaluate(r)
    if model.has_core:
        vals = np.where(r <= model.core_radius, 0.0, vals)
    return Operator.diagonal(vals)


def hamiltonian_terms(model: LatticeModel) -> tuple[Operator, list[Pair], list[Operator]]:
    """H0 plus the per-pair potentials, in canonical pair order."""
    pairs = model.pairs()
    return build_h0(model), pairs, [build_pair_potential(model, p) for p in pairs]


def build_hamiltonian(model: LatticeModel) -> Operator:
    h0, _, pots = hamiltonian_terms(model)
    h = h0
    for v in pots:
        h = h + v
    return h


def dense_oracle_spectrum(model: LatticeModel, k: Optional[int] = None) -> list[EigenResult]:
    """Lowest-k eigenpairs of H = H0 + Σα Vα by dense symmetric solve.

    This is the brute-force ground truth every decomposition identity is
    measured against. Residuals are recomputed from the assembled matrix so
    each returned pair certifies itself.
    """
    d = model.dimension
    if d > dense_limit():
        raise TooLargeError(f"dense oracle refused: dim {d} exceeds limit {dense_limit()}")
    if k is None:
        k = d
    if not 1 <= k <= d:
        raise InvalidInputError(f"eigenpair count must be in 1..{d}, got {k}")
    h = build_hamiltonian(model).materialize()
    asym = np.max(np.abs(h - h.T)) if d else 0.0
    if asym != 0.0:
        raise InvalidInputError(f"assembled Hamiltonian is not exactly symmetric (max {asym})")
    vals, vecs = sla.eigh(h)
    out = []
    for idx in range(k):
        vec = vecs[:, idx]
        res = float(np.linalg.norm(h @ vec - vals[idx] * vec))
        out.append(
            EigenResult(
                value=float(vals[idx]),
                vector=vec,
                residual_norm=res,
                iterations=0,
                method="dense-eigh",
            )
        )
    return out


class PermutationOperator:
    """Exact unitary relabeling of particles on configuration space.

    Acts by (U_π Ψ)(x_1, ..., x_N) = Ψ(x_{π(1)}, ..., x_{π(N)}), which makes
    the group law U_π U_ρ = U_{π∘ρ} and the covariance
    U_π Vα U_π^{−1} = V_{π(α)} hold as exact integer identities.
    """

    __slots__ = ("perm", "index_map", "dim", "sign")

    def __init__(self, perm: tuple, index_map: np.ndarray, sign: int):
        self.perm = perm
        self.index_map = index_map
        self.dim = index_map.shape[0]
        self.sign = sign

    def apply(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec)
        if vec.shape[0] != self.dim:
            raise InvalidInputError(f"vector length {vec.shape[0]} != {self.dim}")
        return vec[self.index_map]

    def matrix(self) -> sp.csr_matrix:
        d = self.dim
        return sp.csr_matrix(
            (np.ones(d), (np.arange(d), self.index_map)), shape=(d, d)
        )

    def compose(self, other: "PermutationOperator") -> tuple:
        """Label permutation of U_self · U_other, for group-law checks."""
        return tuple(self.perm[other.perm[i] - 1] for i in range(len(self.perm)))

    def __repr__(self):
        return f"PermutationOperator(perm={self.perm}, dim={self.dim})"


def _parity(perm: Sequence[int]) -> int:
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j] - 1
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def build_permutation(model: LatticeModel, perm: Sequence[int]) -> PermutationOperator:
    """The relabeling operator for a permutation given as an image tuple.

    ``perm[i-1]`` is π(i). The index map sends configuration n with
    coordinates x to the configuration with coordinates (x_{π(1)}, ...,
    x_{π(N)}): applying the operator reads each vector entry from there.
    """
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(1, model.N + 1)):
        raise InvalidInputError(f"{perm} is not a permutation of 1..{model.N}")
    coords = coordinate_table(model)
    permuted = np.stack([coords[perm[i] - 1] for i in range(model.N)])
    index_map = np.ravel_multi_index(tuple(permuted), (model.L,) * model.N)
    return PermutationOperator(perm, index_map.astype(np.int64), _parity(perm))
