"""Assembled operators pinned bit for bit.

``tests/golden/matrices.sha256`` holds the SHA-256 of
``flatten().materialize().tobytes()`` for the Faddeev operator of the tiny3
preset, the Yakubovsky operator of the golden gauss4 model (N=4, L=3) and the
hard-core pencil (A and B) of tiny3 with no core, core 0, core 1 and core 1
with ``surface_only``. Any change to how a block grid is assembled, including
a sign of zero, changes a hash.
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from fykit.faddeev import FewBodySplit, assemble_faddeev_operator
from fykit.hardcore import assemble_hardcore3_pencil
from fykit.lattice import LatticeModel, PairPotential, hamiltonian_terms
from fykit.yakubovsky import YakubovskySystem, assemble_yakubovsky_operator

GOLDEN = Path(__file__).parent / "golden" / "matrices.sha256"

TINY3 = LatticeModel(N=3, L=6, potential=PairPotential("gaussian", (-4.0, 1.0)))
GAUSS4 = LatticeModel(N=4, L=3, potential=PairPotential("gaussian", (-3.0, 1.0)))


def _split(model):
    h0, _, pots = hamiltonian_terms(model)
    return FewBodySplit(h0=h0, potentials=tuple(pots))


def _pencil(core, surface_only=False):
    model = dataclasses.replace(TINY3, core_radius=core)
    return assemble_hardcore3_pencil(model, surface_only=surface_only)


CASES = {
    "faddeev-tiny3": lambda: assemble_faddeev_operator(_split(TINY3)),
    "yakubovsky-gauss4": lambda: assemble_yakubovsky_operator(YakubovskySystem(split=_split(GAUSS4))),
}
for _label, _core, _surface in (("none", None, False), ("0", 0, False), ("1", 1, False),
                                ("1-surface", 1, True)):
    CASES[f"pencil-a-core-{_label}"] = lambda c=_core, s=_surface: _pencil(c, s).a
    CASES[f"pencil-b-core-{_label}"] = lambda c=_core, s=_surface: _pencil(c, s).b


def digest(name):
    flat = CASES[name]().flatten().materialize()
    return hashlib.sha256(flat.tobytes()).hexdigest()


def golden():
    pairs = (line.split() for line in GOLDEN.read_text().splitlines() if line.strip())
    return {name: value for value, name in pairs}


def test_golden_covers_every_case():
    assert set(golden()) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_assembled_matrix_matches_golden(name):
    assert digest(name) == golden()[name]


def test_sparse_flatten_matches_golden():
    assert CASES["pencil-a-core-1"]().flatten().kind == "sparse"
    assert digest("pencil-a-core-1") == golden()["pencil-a-core-1"]
