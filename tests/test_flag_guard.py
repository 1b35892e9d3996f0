"""``faddeev_components`` outcomes next to σ(H0), pinned as data.

``tests/golden/flag-guard.txt`` holds one line per seeded instance: its label
and its outcome, each component's 2-norm to 7 digits or the type of the
exception raised. The instances are tiny3 and criterion 2's random splits at
their ground states, the lowest and highest eigenpairs of
``random_split(n 2–6, dim 1–7)`` and shifts 0 to 1e-6 above min σ(H0) (with
``eigenpair_tol=inf``, Ψ the ground state of H).

``python tests/test_flag_guard.py [lowhigh_seeds shift_seeds]`` prints the
lines; the default seeds are the committed subset, and ``48 24`` gives the
full 6,069-instance set.
"""

import sys
from pathlib import Path

import numpy as np

from fykit.errors import ToolkitError
from fykit.faddeev import faddeev_components, random_split
from fykit.lattice import LatticeModel, PairPotential, build_split

GOLDEN = Path(__file__).parent / "golden" / "flag-guard.txt"
SHIFTS = (0.0, 1e-12, 1e-9, 1e-6)


def _line(label, split, z, psi, eigenpair_tol=1e-8) -> str:
    try:
        comps = faddeev_components(split, z, psi, eigenpair_tol=eigenpair_tol)
    except ToolkitError as exc:
        return f"{label} {type(exc).__name__}"
    return f"{label} " + ",".join(f"{np.linalg.norm(c):.6e}" for c in comps.components)


def instances(lowhigh_seeds: int = 3, shift_seeds: int = 2):
    """The lines of every instance, in a fixed order."""
    tiny3 = LatticeModel(N=3, L=6, potential=PairPotential("gaussian", (-4.0, 1.0)))
    h = build_split(tiny3)
    vals, vecs = np.linalg.eigh(h.total().materialize())
    yield _line("tiny3", h, vals[0], vecs[:, 0])
    for seed in range(20):
        split = random_split(3, 4 + seed % 4, seed=seed)
        vals, vecs = np.linalg.eigh(split.total().materialize())
        yield _line(f"criterion2/{seed}", split, vals[0], vecs[:, 0])
    for n in range(2, 7):
        for dim in range(1, 8):
            for seed in range(lowhigh_seeds):
                split = random_split(n, dim, seed=seed)
                vals, vecs = np.linalg.eigh(split.total().materialize())
                for k in (0, -1):
                    yield _line(f"eig/{n}/{dim}/{seed}/{k}", split, vals[k], vecs[:, k])
    for n in range(2, 6):
        for dim in range(1, 8):
            for seed in range(shift_seeds):
                split = random_split(n, dim, seed=seed)
                psi = np.linalg.eigh(split.total().materialize())[1][:, 0]
                bottom = np.linalg.eigvalsh(split.h0.materialize())[0]
                for s in SHIFTS:
                    z = bottom + s * (1.0 + abs(bottom))
                    yield _line(f"shift/{n}/{dim}/{seed}/{s:g}", split, z, psi, np.inf)


def test_outcomes_match_the_committed_lines():
    expected = GOLDEN.read_text().splitlines()
    got = list(instances())
    assert len(got) == len(expected)
    assert [g for g, e in zip(got, expected) if g != e] == []


if __name__ == "__main__":
    for line in instances(*map(int, sys.argv[1:])):
        print(line)
