"""Exact bookkeeping tests: pairs, partitions, chains, orbits, relabeling."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fykit.combinatorics import (
    Chain,
    Pair,
    TwoClusterPartition,
    all_permutations,
    chain_orbits,
    enumerate_chains,
    enumerate_pairs,
    enumerate_two_cluster_partitions,
    partitions_containing,
    permute_chain,
    permute_pair,
    verify_chain_identity,
)
from fykit.errors import InvalidInputError
from fykit.faddeev import assemble_faddeev_operator, random_split
from fykit.yakubovsky import coupling_pattern


def test_pair_sorts_members_and_validates():
    assert Pair.of(3, 1).members == (1, 3)
    assert str(Pair.of(2, 4)) == "24"
    with pytest.raises(InvalidInputError):
        Pair.of(2, 2)
    with pytest.raises(InvalidInputError):
        Pair.of(0, 1)


def test_pair_enumeration_order_and_count():
    assert [str(p) for p in enumerate_pairs(3)] == ["12", "13", "23"]
    assert [str(p) for p in enumerate_pairs(4)] == ["12", "13", "14", "23", "24", "34"]


def test_partition_canonical_form():
    p = TwoClusterPartition(((4,), (3, 1, 2)))
    assert p.clusters == ((1, 2, 3), (4,))
    assert p.kind == "3+1"
    assert str(p) == "123|4"
    q = TwoClusterPartition(((3, 4), (1, 2)))
    assert q.clusters == ((1, 2), (3, 4))
    assert q.kind == "2+2"


def test_partition_rejects_bad_clusters():
    with pytest.raises(InvalidInputError):
        TwoClusterPartition(((1, 2), (2, 3)))
    with pytest.raises(InvalidInputError):
        TwoClusterPartition(((), (1, 2)))


def test_partition_census():
    assert len(enumerate_two_cluster_partitions(3)) == 3
    parts = enumerate_two_cluster_partitions(4)
    assert len(parts) == 7
    kinds = [p.kind for p in parts]
    assert kinds.count("3+1") == 4
    assert kinds.count("2+2") == 3
    assert str(parts[0]) == "123|4"
    assert kinds == ["3+1"] * 4 + ["2+2"] * 3


def test_containment_and_internal_pairs():
    p = TwoClusterPartition(((1, 2, 3), (4,)))
    assert p.contains_pair(Pair.of(1, 3))
    assert not p.contains_pair(Pair.of(1, 4))
    assert [str(a) for a in p.internal_pairs()] == ["12", "13", "23"]
    q = TwoClusterPartition(((1, 2), (3, 4)))
    assert [str(a) for a in q.internal_pairs()] == ["12", "34"]


def test_chain_requires_containment():
    good = Chain(TwoClusterPartition(((1, 2, 3), (4,))), Pair.of(1, 2))
    assert str(good) == "123|4,12"
    with pytest.raises(InvalidInputError):
        Chain(TwoClusterPartition(((1, 2, 3), (4,))), Pair.of(1, 4))


def test_chain_census():
    chains = enumerate_chains(4)
    assert len(chains) == 18
    assert len(set(chains)) == 18
    kinds = [c.partition.kind for c in chains]
    assert kinds.count("3+1") == 12
    assert kinds.count("2+2") == 6
    chains3 = enumerate_chains(3)
    assert len(chains3) == 3
    assert [str(c.pair) for c in chains3] == ["12", "13", "23"]
    with pytest.raises(InvalidInputError):
        enumerate_chains(5)


def test_partitions_containing_counts():
    assert len(partitions_containing(Pair.of(1, 2), 4)) == 3
    assert len(partitions_containing(Pair.of(1, 2), 3)) == 1
    names = {str(p) for p in partitions_containing(Pair.of(1, 2), 4)}
    assert names == {"123|4", "124|3", "12|34"}
    with pytest.raises(InvalidInputError):
        partitions_containing(Pair.of(1, 5), 4)


def test_chain_identity_certificate():
    rep = verify_chain_identity(4)
    assert rep.passed
    assert rep.chain_count == 18
    assert rep.chains_by_kind == {"3+1": 12, "2+2": 6}
    assert rep.resummation_checked == 18
    assert rep.exactly_once_checked == 6


def test_chain_identity_degenerate_three_body_form():
    rep = verify_chain_identity(3)
    assert rep.passed
    assert rep.chain_count == 3
    assert rep.chains_by_kind == {"2+1": 3}


def test_relabeling_is_a_group_action():
    perms = all_permutations(4)
    assert len(perms) == 24
    chains = enumerate_chains(4)
    # image tuples: q[i-1] = q(i), so (p after q)(i) = p[q[i-1] - 1]
    sample = [(perms[3], perms[17]), (perms[23], perms[5]), (perms[10], perms[10])]
    for p, q in sample:
        pq = tuple(p[q[i - 1] - 1] for i in range(1, 5))
        for c in chains:
            assert permute_chain(p, permute_chain(q, c)) == permute_chain(pq, c)


def test_relabeling_permutes_pairs():
    swap = (2, 1, 3, 4)
    assert permute_pair(swap, Pair.of(1, 3)) == Pair.of(2, 3)
    assert permute_pair(swap, Pair.of(1, 2)) == Pair.of(1, 2)


@given(perm=st.permutations(range(1, 5)))
def test_relabeling_preserves_the_four_body_coupling_pattern(perm):
    chains = enumerate_chains(4)
    image = [chains.index(permute_chain(perm, c)) for c in chains]
    assert sorted(image) == list(range(18))  # a bijection on the chains
    mask = coupling_pattern(chains)
    assert np.array_equal(mask[np.ix_(image, image)], mask)


@given(perm=st.permutations(range(1, 4)))
def test_relabeling_preserves_the_three_body_faddeev_mask(perm):
    pairs = enumerate_pairs(3)
    image = [pairs.index(permute_pair(perm, p)) for p in pairs]
    assert sorted(image) == list(range(3))
    block = assemble_faddeev_operator(random_split(3, 2, seed=0))
    mask = np.array([[e is not None for e in row] for row in block.entries])
    assert mask.all()
    assert np.array_equal(mask[np.ix_(image, image)], mask)


def test_chain_orbit_structure():
    orbits = chain_orbits(4)
    assert sorted(len(o) for o in orbits) == [6, 12]
    for orbit in orbits:
        kinds = {c.partition.kind for c in orbit}
        assert len(kinds) == 1
    all_members = list(itertools.chain.from_iterable(orbits))
    assert len(all_members) == 18
    assert len(set(all_members)) == 18
    orbits3 = chain_orbits(3)
    assert [len(o) for o in orbits3] == [3]
