"""Shared fixtures and hypothesis strategies: the lattice presets, random models and potentials."""

import pytest
from hypothesis import strategies as st

from fykit.lattice import LatticeModel, PairPotential, build_split

_DEPTH = st.floats(min_value=-10.0, max_value=10.0)
# every pair-potential kind, for the hypothesis model strategies
POTENTIALS = st.one_of(
    st.builds(PairPotential.onsite, _DEPTH),
    st.builds(PairPotential.square, _DEPTH, st.integers(min_value=0, max_value=3)),
    st.builds(PairPotential.gaussian, _DEPTH, st.floats(min_value=0.2, max_value=3.0)),
    st.builds(PairPotential.table, st.lists(_DEPTH, min_size=1, max_size=5)),
)
_PAIR_KEYS = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


@st.composite
def fourbody_models(draw):
    """N=4 lattices (L 2-3, box or ring), identical or with per-pair potentials."""
    per_pair = draw(st.one_of(st.none(), st.dictionaries(
        st.sampled_from(_PAIR_KEYS), POTENTIALS, min_size=1, max_size=4)))
    return LatticeModel(
        N=4,
        L=draw(st.integers(min_value=2, max_value=3)),
        boundary=draw(st.sampled_from(["box", "ring"])),
        potential=draw(POTENTIALS),
        per_pair=per_pair,
    )


@st.composite
def pencil_models(draw):
    """N=3 lattices (L 3-6, box or ring) with or without a hard core."""
    pot = draw(POTENTIALS)
    per_pair = draw(st.one_of(st.none(), st.fixed_dictionaries({(1, 3): POTENTIALS})))
    return LatticeModel(
        N=3,
        L=draw(st.integers(min_value=3, max_value=6)),
        boundary=draw(st.sampled_from(["box", "ring"])),
        potential=pot,
        core_radius=draw(st.sampled_from([None, 0, 1, 2])),
        per_pair=per_pair,
    )


def pytest_terminal_summary(terminalreporter):
    """Print the one-line verdict per acceptance criterion, when they ran."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for line in RESULTS:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def tiny3():
    """Three particles on a 6-site open chain with a gaussian attraction."""
    return LatticeModel(
        N=3,
        L=6,
        boundary="box",
        t=1.0,
        potential=PairPotential("gaussian", (-4.0, 1.0)),
    )


@pytest.fixture(scope="session")
def tiny4():
    """Four particles on a 4-site open chain with an onsite attraction."""
    return LatticeModel(
        N=4,
        L=4,
        boundary="box",
        t=1.0,
        potential=PairPotential("onsite", (-6.0,)),
    )


@pytest.fixture(scope="session")
def tiny3_split(tiny3):
    return build_split(tiny3), tiny3.pairs()


@pytest.fixture(scope="session")
def tiny4_split(tiny4):
    return build_split(tiny4), tiny4.pairs()


def random_symmetric(rng, dim):
    m = rng.standard_normal((dim, dim))
    return 0.5 * (m + m.T)
