"""Few-body lattice models in particle coordinates.

A model is N particles hopping on a 1-D chain of L sites (open "box" or
periodic "ring"), with diagonal pair potentials depending on the lattice
separation. States live on the full configuration space of dimension L^N,
indexed row-major with particle 1 most significant; no center-of-mass or
Jacobi reduction is performed. That costs dimension but buys exactness:
particle permutations are exact 0/1 index relabelings, and hard-core regions
are exact index sets rather than discretized surfaces.

The kinetic operator is the Kronecker sum of one-particle hopping operators
t·(2I − S − Sᵀ); potentials are diagonal in configuration space. So H0 and
each channel operator H0 + Vα are Kronecker sums of factors on at most L²
sites, and :class:`KroneckerChannel` diagonalizes them exactly from those
factors' eigenpairs; :func:`build_split` hands them to the solvers. Dense
brute-force diagonalization of H = H0 + Σα Vα is the ground-truth oracle the
component decompositions elsewhere in the package are verified against;
it computes the lowest k eigenpairs by subset ``eigh``, only as many as the
caller asks for. Callers that need only the ground-state energy (auto
targets) take it from implicitly restarted Lanczos (ARPACK ``eigsh``) on the
sparse H's fully symmetric sector under :func:`symmetry_orbits`, which no
dense limit gates; like subset ``eigh`` it is a different algorithm from the
LU plus inverse iteration it steers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import scipy.linalg as sla

from .blockops import EigenResult, Operator, _dense
from .combinatorics import Pair, all_permutations, enumerate_pairs, permute_pair
from .errors import InvalidInputError, ShiftSingularError, SolverFailureError, TooLargeError
from .faddeev import FewBodySplit

__all__ = [
    "PairPotential",
    "LatticeModel",
    "PermutationOperator",
    "KroneckerChannel",
    "build_h0",
    "h0_spectrum",
    "build_pair_potential",
    "build_hamiltonian",
    "hamiltonian_terms",
    "kronecker_channels",
    "build_split",
    "dense_oracle_spectrum",
    "build_permutation",
    "separations",
    "symmetry_orbits",
    "coordinate_table",
    "DIMENSION_CAP",
]

# Hard ceiling on the configuration-space dimension L^N of any model; dense
# copies are capped separately by blockops.DENSE_LIMIT (4096), and sparse
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


def symmetry_orbits(model: LatticeModel) -> np.ndarray:
    """Orbit labels of the configurations under lattice symmetries of H: each
    configuration's minimum image over the reflection (x → L−1−x in a box,
    x → −x mod L on a ring) times every relabeling that maps each pair to a
    pair with the same potential (all of S_N for identical particles)."""
    return functools.reduce(np.minimum, _symmetry_maps(model))


def _symmetry_maps(model: LatticeModel):
    """Each element of that group as an index map n ↦ g·n: a relabeling's
    :func:`build_permutation` map, alone and composed with the reflection,
    which flips every configuration axis; both by stride arithmetic."""
    L, N, pairs = model.L, model.N, model.pairs()
    flip = np.arange(L)[::-1] if model.boundary == "box" else -np.arange(L) % L
    reflection = np.arange(model.dimension).reshape((L,) * N)[np.ix_(*[flip] * N)].ravel()
    for perm in all_permutations(N):
        if all(model.potential_for(permute_pair(perm, p)) == model.potential_for(p) for p in pairs):
            relabel = build_permutation(model, perm).index_map
            yield from (relabel, relabel[reflection])


def _one_particle_bonds(model: LatticeModel) -> tuple[np.ndarray, np.ndarray]:
    """Every hop a → b of one particle as two site arrays: to each neighbour
    on the chain, and across the wrap on a ring of L > 2 (L = 2 has one bond)."""
    L = model.L
    a = np.arange(L - 1)
    src, dst = np.r_[a, a + 1], np.r_[a + 1, a]
    if model.boundary == "ring" and L > 2:
        src, dst = np.r_[src, 0, L - 1], np.r_[dst, L - 1, 0]
    return src, dst


def _one_particle_kinetic(model: LatticeModel) -> np.ndarray:
    """The dense L×L one-particle operator t·(2I − S − Sᵀ)."""
    k = np.diag(np.full(model.L, model.t * 2.0))
    k[_one_particle_bonds(model)] -= model.t  # 0 − t: no −0.0 when t = 0
    return k


def build_h0(model: LatticeModel) -> Operator:
    """Kinetic operator: Kronecker sum of one-particle hopping matrices.

    Built by stride arithmetic in one COO → CSR construction: particle i
    moves with stride L^(N−1−i), so a one-particle hop a → b gives the entry
    −t at (n, n + (b − a)·L^(N−1−i)) for every configuration n with x_i = a,
    and the diagonal is 2Nt. The CSR arrays equal, byte for byte, those of
    the summed Kronecker products I ⊗ … ⊗ k1 ⊗ … ⊗ I: sorted indices, and
    no stored zeros (t = 0 gives an empty matrix). Exactly symmetric by
    construction; so is the pattern of every H − z and H0 + Vα − z built on
    it, which is why SuperLU orders them by minimum degree on Aᵀ + A
    (:func:`fykit.blockops._splu`). Returned sparse; materialize for the
    dense oracles.
    """
    L, N, t, d = model.L, model.N, model.t, model.dimension
    src, dst = _one_particle_bonds(model)
    configs = np.arange(d)
    rows, cols = [configs], [configs]
    for i in range(N):
        axes = configs.reshape(L ** i, L, -1)  # middle axis: x_i
        rows.append(axes[:, src].ravel())
        cols.append(axes[:, dst].ravel())
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    vals = np.full(rows.size, -t)
    vals[:d] = 2.0 * N * t
    keep = vals != 0
    return Operator.sparse(sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(d, d)))


def h0_spectrum(model: LatticeModel) -> np.ndarray:
    """Sorted eigenvalues of H0 with multiplicity, from one L×L ``eigh``.

    H0 is the N-fold Kronecker sum of the one-particle operator, so its
    spectrum is every sum of N one-particle eigenvalues: the
    :class:`KroneckerChannel` with no pair.
    """
    return KroneckerChannel(model, _one_particle_eigh(model)).spectrum()


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
    """H = H0 + Σα Vα, added in canonical pair order, as ``FewBodySplit.total`` does."""
    h0, _, pots = hamiltonian_terms(model)
    return sum(pots, h0)


# The factors' symmetry-degenerate spectra make LAPACK's default MRRR driver
# several times slower than divide and conquer.
_FACTOR_EIGH_DRIVER = "evd"


def _one_particle_eigh(model: LatticeModel) -> tuple[np.ndarray, np.ndarray]:
    return sla.eigh(_one_particle_kinetic(model), driver=_FACTOR_EIGH_DRIVER)


def _two_particle_eigh(model: LatticeModel, potential: PairPotential) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of one pair's operator on its L² sites: both particles'
    hopping plus v, core zeroing included (the N=2 model's H)."""
    pair_model = replace(model, N=2, potential=potential, per_pair=None)
    h = build_h0(pair_model) + build_pair_potential(pair_model, pair_model.pairs()[0])
    return sla.eigh(h.materialize(), driver=_FACTOR_EIGH_DRIVER)


class KroneckerChannel:
    """H0, or the channel operator H0 + Vα of one pair α, diagonalized exactly.

    H0 + Vα is the Kronecker sum of the two-particle operator of α on the
    pair's L² sites and one one-particle hopping operator per spectator; H0
    is the N-fold Kronecker sum of the one-particle operator. So the
    eigenpairs of those factors, ``one`` as ``eigh`` returns them and, for a
    pair, ``two`` a cached callable returning them, first called by the
    first ``spectrum()`` or ``solver()``, diagonalize the channel: its
    eigenvectors are the Kronecker products of the factors' and its
    eigenvalues every sum of one eigenvalue per factor. Neither depends on
    z, so each shifted solve is two changes of basis along the factor axes
    and one division. Channels built from the same factors (the pairs of
    one potential) share ``basis_id``, and one :meth:`solver` batches them.
    """

    def __init__(self, model: LatticeModel, one: tuple, pair: Optional[Pair] = None,
                 two=None):
        n, L = model.N, model.L
        self.axes = (L,) * n
        self.basis_id = (id(one), id(two))  # both stay alive in the factor closures
        self.order = tuple(range(n))  # configuration axes, the pair's first
        self._factors = lambda: [one] * n
        if pair is not None:
            i, j = (m - 1 for m in pair.members)
            self.order = (i, j) + tuple(a for a in range(n) if a not in (i, j))
            self._factors = lambda: [two()] + [one] * (n - 2)

    @functools.cached_property
    def bases(self) -> list:
        return [vecs for _, vecs in self._factors()]

    @functools.cached_property
    def eigenvalues(self) -> np.ndarray:  # indexed by the factor axes
        return functools.reduce(np.add.outer, [vals for vals, _ in self._factors()], np.zeros(()))

    def spectrum(self) -> np.ndarray:
        """Sorted eigenvalues with multiplicity."""
        return np.sort(self.eigenvalues, axis=None)

    def solver(self, z, companions: Sequence["KroneckerChannel"] = ()) -> "_KroneckerSolver":
        """(channel − z)⁻¹ as an object with ``solve(b)``.

        With ``companions`` (channels of this ``basis_id``) it solves this
        channel and each companion, in order, on an equal share of b's
        columns. Raises :class:`ShiftSingularError` when min |λ − z| ≤
        1e−300 · max(max |λ − z|, 1), i.e. z is an eigenvalue.
        """
        gap = self.eigenvalues - z
        absgap = np.abs(gap)
        if absgap.min() <= 1e-300 * max(absgap.max(), 1.0):
            raise ShiftSingularError(f"shift {z} is an eigenvalue of the channel")
        return _KroneckerSolver((self, *companions), 1.0 / gap)


@functools.lru_cache(maxsize=16)
def _share_index(axes: tuple, orders: tuple, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat gather (d × m·k) and scatter (m·k × d) indices: column j, at
    configuration-axes position f permuted by ``orders[j // k]``, moves
    between the flattened transposed columns and the pair-first layout."""
    d, cols = math.prod(axes), k * len(orders)
    perm = np.repeat([np.arange(d).reshape(axes).transpose(o).ravel() for o in orders], k, axis=0)
    col = np.arange(cols)
    gather, scatter = perm.T + col * d, np.argsort(perm, axis=1) * cols + col[:, None]
    gather.flags.writeable = scatter.flags.writeable = False  # shared through the cache
    return gather, scatter


class _KroneckerSolver:
    def __init__(self, channels: tuple, inverse_gap: np.ndarray):
        self.channels, self.inverse_gap = channels, inverse_gap

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Q diag(1/(λ − z)) Qᵀ b for the channels' eigenbasis Q, one or several columns each.

        b's columns split evenly between the channels, and one gather brings
        each share to its channel's pair-first axis order, where all share
        one basis. Each change of basis contracts one factor axis in a single
        matrix product and rotates it to the other end of the layout; one
        scatter restores the configuration order.
        """
        lead, weights = self.channels[0], self.inverse_gap
        b = np.asarray(b)
        cols = b.reshape(b.shape[0], -1).T
        gather, scatter = _share_index(lead.axes, tuple(ch.order for ch in self.channels),
                                       cols.shape[0] // len(self.channels))
        x = np.ravel(cols)[gather]  # (g0, ..., columns)
        for u in lead.bases:  # Qᵀ: (g0, ..., columns) → (columns, g0, ...)
            x = x.reshape(u.shape[0], -1).T @ u
        x = x.reshape(-1, weights.size) * weights.ravel()
        for u in reversed(lead.bases):  # Q: (columns, g0, ...) → (g0, ..., columns)
            x = u @ x.reshape(-1, u.shape[0]).T
        return np.ravel(x)[scatter].T.reshape(b.shape)


def kronecker_channels(model: LatticeModel) -> tuple:
    """H0 and every H0 + Vα, in canonical pair order, as :class:`KroneckerChannel`.

    The one-particle ``eigh`` runs here, a pair channel's two-particle
    ``eigh`` on its first use: once per distinct pair potential, shared by
    every pair carrying it, and never for a caller that reads only H0.
    """
    one = _one_particle_eigh(model)
    two: dict = {}
    channels = [KroneckerChannel(model, one)]
    for pair in model.pairs():
        potential = model.potential_for(pair)
        if potential not in two:
            two[potential] = functools.cache(functools.partial(_two_particle_eigh, model, potential))
        channels.append(KroneckerChannel(model, one, pair, two[potential]))
    return tuple(channels)


def build_split(model: LatticeModel) -> FewBodySplit:
    """The split of :func:`hamiltonian_terms`, carrying :func:`kronecker_channels`."""
    h0, _, pots = hamiltonian_terms(model)
    return FewBodySplit(h0=h0, potentials=tuple(pots), channels=kronecker_channels(model))


def _lowest_eigh(h: np.ndarray, k: Optional[int], method: str) -> list[EigenResult]:
    """Lowest-k eigenpairs of the dense matrix h by subset ``eigh``.

    The engine behind both oracles: h must be exactly symmetric, k (None for
    all) is checked before anything is factored, and LAPACK computes only the
    k wanted eigenpairs. Each residual is recomputed from h, so every
    returned pair certifies itself.
    """
    d = h.shape[0]
    if k is None:
        k = d
    if not 1 <= k <= d:
        raise InvalidInputError(f"eigenpair count must be in 1..{d}, got {k}")
    if not np.array_equal(h, h.T):
        asym = np.max(np.abs(h - h.T))
        raise InvalidInputError(f"assembled Hamiltonian is not exactly symmetric (max {asym})")
    vals, vecs = sla.eigh(h, subset_by_index=[0, k - 1])
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
                method=method,
            )
        )
    return out


# Seed of the Lanczos start vector (and of ARPACK's restarts). Fixed here,
# not taken from the solver's seed, so the oracle does not move with it.
_LANCZOS_SEED = 20240607
# Largest accepted residual relative to the shifted Ritz value (≥ 1).
_LANCZOS_RESIDUAL_TOL = 1e-13


def _orbit_basis(orbits: np.ndarray) -> sp.csr_matrix:
    """P[n, orbit(n)] = 1/√|orbit|, the orthonormal basis of orbit sums, with
    the orbits (the distinct integer labels ≥ 0 of ``orbits``) numbered in label order."""
    count = np.bincount(orbits)
    label, size = (np.cumsum(count > 0) - 1)[orbits], count[orbits]
    return sp.csr_matrix((1.0 / np.sqrt(size), (np.arange(orbits.size), label)))


def _gershgorin_shift(h: sp.spmatrix) -> float:
    """1 − the Gershgorin lower bound of h: h + σI has its spectrum at or above 1."""
    diag = h.diagonal()
    return 1.0 - float(np.min(diag + abs(diag) - abs(h).sum(axis=1).A1))


def _lanczos_ground_state(h: sp.spmatrix, method: str, orbits: np.ndarray) -> EigenResult:
    """Lowest eigenpair of the sparse symmetric h by implicitly restarted Lanczos.

    Exact symmetry is checked on h before anything runs, and a positive
    off-diagonal entry is refused. Lanczos runs on S = PᵀhP, made exactly
    symmetric as (S + Sᵀ)/2, for the :func:`_orbit_basis` P of ``orbits``,
    one label per row of h; for the orbits of a group commuting with h,
    min σ(S) = min σ(h) by Perron–Frobenius. ARPACK
    ``eigsh(which="SA")`` starts from a vector of a generator seeded here,
    which also feeds ARPACK's own restarts, so the result is the same in
    every run. When S has no nonzero off-diagonal entry (one orbit, or t =
    0) ARPACK cannot run, and the ground state is read off its diagonal. The
    vector is embedded back as P·u and its residual recomputed from h, so
    the pair certifies itself; a pair that does not converge, or whose
    residual exceeds its bound, is retried on larger Lanczos bases and then
    refused with SolverFailureError.
    """
    h = sp.csr_matrix(h)
    if (h != h.T).nnz:
        asym = abs(h - h.T).max()
        raise InvalidInputError(f"assembled Hamiltonian is not exactly symmetric (max {asym})")
    if np.any(sp.triu(h, 1).data > 0):  # h is symmetric by now
        raise InvalidInputError("Hamiltonian has a positive off-diagonal entry (no Perron–Frobenius)")
    p = _orbit_basis(orbits)
    s = p.T @ h @ p
    s, m = ((s + s.T) / 2).tocoo(), p.shape[1]
    if not np.any(s.data[s.row != s.col]):
        idx = int(np.argmin(s.diagonal()))
        value, vec = float(s.diagonal()[idx]), p[:, idx].toarray().ravel()
    else:
        # ARPACK misses a Ritz value within about 1e-19 of zero (an isolated
        # configuration of zero energy, say), so it runs on S + σI, whose
        # spectrum the Gershgorin bound puts at or above 1; the certificate
        # is judged against h's own bound
        sigma, sigma_h = _gershgorin_shift(s), _gershgorin_shift(h)
        shifted = s.tocsr() + sigma * sp.identity(m, format="csr")
        # A ground state packed in a tight cluster (tiny hopping against the
        # potential) or degenerate across hard-core ordering sectors can
        # stall a 20-vector basis or leave its Ritz vector far off its
        # estimate; the same start then runs again on larger bases (512
        # spans the whole sector of every model up to L^N = 512). ARPACK stops a
        # decade inside the certificate: machine ε costs up to 2.6× the products.
        for ncv in (20, 128, 512):
            rng = np.random.default_rng(_LANCZOS_SEED)
            v0 = rng.uniform(-1.0, 1.0, m)
            try:
                vals, vecs = spla.eigsh(shifted, k=1, which="SA", tol=_LANCZOS_RESIDUAL_TOL / 10,
                                        v0=v0, rng=rng, ncv=min(ncv, m))
            except spla.ArpackNoConvergence:
                continue
            value, vec = float(vals[0]) - sigma, p @ vecs[:, 0]
            if np.linalg.norm(h @ vec - value * vec) <= _LANCZOS_RESIDUAL_TOL * (value + sigma_h):
                break
        else:
            raise SolverFailureError(f"Lanczos ground state not certified at dim {m}",
                                     diagnostics={"dim": m})
    return EigenResult(
        value=value,
        vector=vec,
        residual_norm=float(np.linalg.norm(h @ vec - value * vec)),
        iterations=0,
        method=method,
    )


def dense_oracle_spectrum(model: LatticeModel, k: Optional[int] = None) -> list[EigenResult]:
    """The lowest k eigenpairs of H = H0 + Σα Vα by subset ``eigh``.

    This is the brute-force ground truth every decomposition identity is
    measured against: a dense LAPACK symmetric eigensolver, independent of
    the LU and inverse iteration it certifies. Only the k wanted eigenpairs
    are computed (k=None: all of them), and residuals are recomputed from
    the assembled matrix so each returned pair certifies itself.
    """
    return _lowest_eigh(_dense(build_hamiltonian(model), "dense oracle"), k, "dense-eigh")


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
    It is built by stride arithmetic, as the configuration index array with
    its axes transposed by π⁻¹.
    """
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(1, model.N + 1)):
        raise InvalidInputError(f"{perm} is not a permutation of 1..{model.N}")
    configs = np.arange(model.dimension, dtype=np.int64).reshape((model.L,) * model.N)
    return PermutationOperator(perm, configs.transpose(np.argsort(perm)).ravel(), _parity(perm))
