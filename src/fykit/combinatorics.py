"""Pairs, two-cluster partitions, and chains of partitions for N-particle systems.

The four-body component decomposition is indexed by *chains*: a two-cluster
partition ``a`` of the particles together with a pair ``alpha`` whose two
particles sit inside one cluster of ``a`` (written ``alpha ⊂ a``). For four
particles there are 6 pairs, 7 two-cluster partitions (4 of kind 3+1 and 3 of
kind 2+2) and 18 chains (12 with a 3+1 partition, 6 with a 2+2 partition).

Everything in this module is exact integer bookkeeping: enumeration orders are
canonical and deterministic because they fix the block layout of the operators
assembled elsewhere in the package. Particle labels are the integers
``1..N``. Pairs are stored sorted ascending; partitions store the larger
cluster first (ties broken lexicographically).

For N=3 every pair is contained in exactly one two-cluster partition, so
chains are in bijection with pairs; :func:`enumerate_chains` returns these
degenerate chains so three- and four-body assembly can share one code path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .errors import InternalConsistencyError, InvalidInputError

__all__ = [
    "Pair",
    "TwoClusterPartition",
    "Chain",
    "enumerate_pairs",
    "enumerate_two_cluster_partitions",
    "enumerate_chains",
    "partitions_containing",
    "verify_chain_identity",
    "chain_orbits",
    "all_permutations",
    "permute_pair",
    "permute_partition",
    "permute_chain",
]


@dataclass(frozen=True, order=True)
class Pair:
    """An unordered pair of distinct particle labels, stored sorted.

    A pair indexes one two-body subsystem and its interaction potential.
    """

    members: tuple[int, int]

    def __post_init__(self):
        i, j = self.members
        if i == j:
            raise InvalidInputError(f"pair members must be distinct, got {self.members}")
        if i > j:
            object.__setattr__(self, "members", (j, i))
        if min(self.members) < 1:
            raise InvalidInputError(f"particle labels start at 1, got {self.members}")

    @classmethod
    def of(cls, i: int, j: int) -> "Pair":
        return cls((i, j))

    def __str__(self) -> str:
        return "".join(str(m) for m in self.members)


@dataclass(frozen=True, order=True)
class TwoClusterPartition:
    """A split of the particles ``1..N`` into two disjoint nonempty clusters.

    Canonical form: the larger cluster first; for equal sizes the
    lexicographically smaller cluster first. Each cluster is a sorted tuple.
    """

    clusters: tuple[tuple[int, ...], tuple[int, ...]]

    def __post_init__(self):
        c1, c2 = (tuple(sorted(c)) for c in self.clusters)
        if not c1 or not c2:
            raise InvalidInputError("both clusters must be nonempty")
        if set(c1) & set(c2):
            raise InvalidInputError(f"clusters must be disjoint, got {self.clusters}")
        if (len(c1), c2) < (len(c2), c1):
            c1, c2 = c2, c1
        object.__setattr__(self, "clusters", (c1, c2))

    @property
    def kind(self) -> str:
        """Cluster-size signature, e.g. ``"3+1"`` or ``"2+2"``."""
        return f"{len(self.clusters[0])}+{len(self.clusters[1])}"

    def contains_pair(self, pair: Pair) -> bool:
        """True when both pair members lie in one cluster (``alpha ⊂ a``)."""
        s = set(pair.members)
        return s <= set(self.clusters[0]) or s <= set(self.clusters[1])

    def internal_pairs(self) -> list[Pair]:
        """All pairs contained in this partition, in canonical pair order."""
        out = []
        for cluster in self.clusters:
            out.extend(Pair.of(i, j) for i, j in itertools.combinations(cluster, 2))
        return sorted(out)

    def __str__(self) -> str:
        return "|".join("".join(str(m) for m in c) for c in self.clusters)


@dataclass(frozen=True, order=True)
class Chain:
    """A two-cluster partition together with a pair inside one of its clusters."""

    partition: TwoClusterPartition
    pair: Pair

    def __post_init__(self):
        if not self.partition.contains_pair(self.pair):
            raise InvalidInputError(
                f"pair {self.pair} is not contained in partition {self.partition}"
            )

    def __str__(self) -> str:
        return f"{self.partition},{self.pair}"


def _check_particle_count(n: int, minimum: int) -> None:
    if not isinstance(n, int) or n < minimum:
        raise InvalidInputError(f"particle count must be an integer >= {minimum}, got {n!r}")


def enumerate_pairs(n: int) -> list[Pair]:
    """All n(n-1)/2 pairs of ``1..n`` in canonical (lexicographic) order."""
    _check_particle_count(n, 2)
    return [Pair.of(i, j) for i, j in itertools.combinations(range(1, n + 1), 2)]


def enumerate_two_cluster_partitions(n: int) -> list[TwoClusterPartition]:
    """All 2^(n-1) - 1 unordered bipartitions of ``1..n``, canonically ordered.

    Ordering is by descending size of the leading cluster, then
    lexicographic, which for n=4 puts the four 3+1 partitions before the
    three 2+2 ones, starting with ({1,2,3},{4}).
    """
    _check_particle_count(n, 3)
    labels = tuple(range(1, n + 1))
    seen = set()
    parts = []
    for r in range(n - 1, 0, -1):
        for cluster in itertools.combinations(labels, r):
            rest = tuple(x for x in labels if x not in cluster)
            p = TwoClusterPartition((cluster, rest))
            if p not in seen:
                seen.add(p)
                parts.append(p)
    parts.sort(key=lambda p: (-len(p.clusters[0]), p.clusters))
    return parts


def enumerate_chains(n: int) -> list[Chain]:
    """All chains for n particles, partition-major then pair-minor.

    Supported particle counts are 3 and 4. For n=4 this yields the 18
    chains (12 from 3+1 partitions, 6 from 2+2). For n=3 the three pairs
    appear as degenerate chains, each with its unique 2+1 partition, so the
    same indexing machinery serves the three-body decomposition.
    """
    if n not in (3, 4):
        raise InvalidInputError(f"chains are defined here for 3 or 4 particles, got {n!r}")
    chains = []
    for part in enumerate_two_cluster_partitions(n):
        for pair in part.internal_pairs():
            chains.append(Chain(part, pair))
    return chains


def partitions_containing(pair: Pair, n: int) -> list[TwoClusterPartition]:
    """All two-cluster partitions ``a`` of ``1..n`` with ``pair ⊂ a``."""
    if max(pair.members) > n:
        raise InvalidInputError(f"pair {pair} has labels beyond 1..{n}")
    return [p for p in enumerate_two_cluster_partitions(n) if p.contains_pair(pair)]


@dataclass(frozen=True)
class ChainIdentityReport:
    """Outcome of :func:`verify_chain_identity`; all counts are exact."""

    chain_count: int
    chains_by_kind: dict
    resummation_checked: int
    exactly_once_checked: int
    passed: bool


def verify_chain_identity(n: int) -> ChainIdentityReport:
    """Certify the two index identities the four-body derivation rests on.

    First, for every chain ``(a, alpha)`` the double sum over ``beta ⊂ a,
    beta != alpha`` and partitions ``b ⊃ beta`` enumerates exactly the same
    (b, beta) multiset whether one iterates pair-first or partition-first;
    this justifies exchanging the order of summation when the coupled
    equations are assembled. Second, for every pair ``alpha``, collecting
    ``beta != alpha, beta ⊂ a`` over the partitions ``a ⊃ alpha`` produces
    every other pair exactly once when n = 4; this is what makes the
    per-pair sum of chain components collapse back to a pair component. For
    n = 3 the degenerate form holds instead: each pair lies in exactly one
    partition, which contains no second pair, so pair components couple
    directly rather than through partitions.

    Raises :class:`InternalConsistencyError` if either identity fails,
    which would mean the enumeration code itself is broken.
    """
    chains = enumerate_chains(n)
    pairs = enumerate_pairs(n)
    chain_set = set(chains)

    resummed = 0
    for chain in chains:
        a, alpha = chain.partition, chain.pair
        betas = [b for b in a.internal_pairs() if b != alpha]
        pair_first = sorted(
            (b, beta) for beta in betas for b in partitions_containing(beta, n)
        )
        partition_first = sorted(
            (b, beta)
            for b in enumerate_two_cluster_partitions(n)
            for beta in betas
            if b.contains_pair(beta) and Chain(b, beta) in chain_set
        )
        if pair_first != partition_first:
            raise InternalConsistencyError(
                f"summation-order identity violated for chain {chain}"
            )
        resummed += 1

    once = 0
    for alpha in pairs:
        holders = partitions_containing(alpha, n)
        collected: list[Pair] = []
        for a in holders:
            collected.extend(b for b in a.internal_pairs() if b != alpha)
        if n == 4:
            expected = sorted(b for b in pairs if b != alpha)
        else:
            if len(holders) != 1:
                raise InternalConsistencyError(
                    f"pair {alpha} lies in {len(holders)} partitions, expected 1 for n=3"
                )
            expected = []
        if sorted(collected) != expected:
            raise InternalConsistencyError(
                f"exactly-once identity violated for pair {alpha}: {sorted(collected)}"
            )
        once += 1

    by_kind: dict[str, int] = {}
    for c in chains:
        by_kind[c.partition.kind] = by_kind.get(c.partition.kind, 0) + 1
    return ChainIdentityReport(
        chain_count=len(chains),
        chains_by_kind=by_kind,
        resummation_checked=resummed,
        exactly_once_checked=once,
        passed=True,
    )


def all_permutations(n: int) -> list[tuple[int, ...]]:
    """All permutations of labels 1..n, as image tuples: pi[i-1] = pi(i)."""
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def permute_pair(perm: Sequence[int], pair: Pair) -> Pair:
    i, j = pair.members
    return Pair.of(perm[i - 1], perm[j - 1])


def permute_partition(perm: Sequence[int], part: TwoClusterPartition) -> TwoClusterPartition:
    return TwoClusterPartition(
        tuple(tuple(perm[m - 1] for m in cluster) for cluster in part.clusters)
    )


def permute_chain(perm: Sequence[int], chain: Chain) -> Chain:
    return Chain(permute_partition(perm, chain.partition), permute_pair(perm, chain.pair))


def chain_orbits(n: int) -> list[list[Chain]]:
    """Orbits of the chains under relabeling of the particles.

    Every permutation of the particle labels maps chains to chains; the
    orbits of this action are the classes of chains that carry the same
    component shape when all particles are identical. For n=4 there are
    exactly two orbits, of sizes 12 (3+1 chains) and 6 (2+2 chains).

    Orbits are returned with their members in canonical chain order, and the
    orbit list itself is ordered by the first member of each orbit.
    """
    chains = enumerate_chains(n)
    perms = all_permutations(n)
    remaining = dict.fromkeys(chains)
    orbits = []
    for chain in chains:
        if chain not in remaining:
            continue
        orbit = {permute_chain(p, chain) for p in perms}
        for c in orbit:
            remaining.pop(c, None)
        orbits.append(sorted(orbit, key=chains.index))
    orbits.sort(key=lambda orb: chains.index(orb[0]))
    return orbits
