"""Seeded cases, independent reference energies and the correctness gate.

A workload turns a seed into a short list of `fy` cases. Each case is one
command line plus the config file it reads; the program sees nothing else.
Reference ground-state energies are computed here from a Hamiltonian this
module builds itself with numpy and scipy, never through fykit, so the gate
does not trust the code under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

EIGENVALUE_TOL = 1e-8
RECONSTRUCTION_TOL = 1e-9
SOLVER_TOL = 1e-10
HARDCORE_SWEEP = ("none", "0", "1")


@dataclass(frozen=True)
class Model:
    """N particles on an L-site open chain with one pair potential."""

    N: int
    L: int
    kind: str
    params: tuple

    def pair_energy(self, r: np.ndarray) -> np.ndarray:
        if self.kind == "onsite":
            return np.where(r == 0, self.params[0], 0.0)
        depth, width = self.params
        return depth * np.exp(-((r / width) ** 2))


@dataclass
class Case:
    name: str
    command: str
    model: Model
    target: Optional[float]
    extra_args: tuple = ()
    # Reference ground energy per core token ("none", "0", ...).
    references: dict = field(default_factory=dict)

    def config_text(self) -> str:
        m = self.model
        target = "auto" if self.target is None else repr(self.target)
        return "\n".join([
            "[model]",
            f"N = {m.N}",
            f"L = {m.L}",
            "boundary = box",
            "t = 1.0",
            f"potential.kind = {m.kind}",
            "potential.params = " + ", ".join(repr(p) for p in m.params),
            "core_radius = none",
            "",
            "[solver]",
            f"target = {target}",
            f"tol = {SOLVER_TOL!r}",
            "max_iter = 200",
            "",
        ])

    def argv(self, config_path: str) -> list[str]:
        return [self.command, "--config", config_path, "--format", "machine", *self.extra_args]

    def describe(self) -> dict:
        return {
            "name": self.name,
            "command": self.command,
            "N": self.model.N,
            "L": self.model.L,
            "potential": [self.model.kind, *self.model.params],
            "target": "auto" if self.target is None else self.target,
            "args": list(self.extra_args),
            "references": self.references,
        }


# ----------------------------------------------------------------------
# independent reference


def hamiltonian(model: Model, core: Optional[int] = None) -> sp.csr_matrix:
    """H on the configurations where every pair is farther apart than ``core``.

    Hopping -1 between neighbouring sites, 2 per particle on the diagonal,
    plus the pair energies; ``core=None`` keeps every configuration.
    """
    n, L = model.N, model.L
    coords = np.indices((L,) * n).reshape(n, -1)
    full = coords.shape[1]
    keep = np.ones(full, dtype=bool)
    diag = np.full(full, 2.0 * n)
    for i in range(n):
        for j in range(i + 1, n):
            r = np.abs(coords[i] - coords[j])
            diag += model.pair_energy(r)
            if core is not None:
                keep &= r > core
    position = np.full(full, -1)
    position[keep] = np.arange(int(keep.sum()))
    rows, cols = [], []
    for p in range(n):
        stride = L ** (n - 1 - p)
        src = np.nonzero(keep & (coords[p] < L - 1))[0]
        dst = src + stride
        ok = keep[dst]
        rows.append(position[src[ok]])
        cols.append(position[dst[ok]])
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    size = int(keep.sum())
    hop = sp.coo_matrix((-np.ones(r.size), (r, c)), shape=(size, size))
    return (hop + hop.T + sp.diags(diag[keep])).tocsr()


def ground_energy(model: Model, core: Optional[int] = None) -> float:
    """Lowest eigenvalue by ARPACK (Lanczos), checked by its own residual."""
    h = hamiltonian(model, core)
    vals, vecs = spla.eigsh(h, k=1, which="SA", tol=0, v0=np.ones(h.shape[0]))
    value, vec = float(vals[0]), vecs[:, 0]
    residual = float(np.linalg.norm(h @ vec - value * vec))
    if residual > 1e-9:
        raise RuntimeError(f"reference eigenpair residual {residual:.2e} for {model}")
    return value


def _core_arg(token: str) -> Optional[int]:
    return None if token == "none" else int(token)


# ----------------------------------------------------------------------
# workloads

def _fourbody(rng: random.Random) -> list[Case]:
    # The unmodified tiny4 preset, then wells of other depths. Targets sit
    # 0.05-0.2 below the ground state; like tiny4 (0.152 below) they make
    # inverse iteration stall once and refactor.
    cases = [Case("tiny4", "solve4", Model(4, 4, "onsite", (-6.0,)), target=-28.6)]
    for k in range(2):
        model = Model(4, 4, "onsite", (round(-6.0 + rng.uniform(-0.5, 0.5), 4),))
        e0 = ground_energy(model)
        offset = round(rng.uniform(0.05, 0.2), 4)
        cases.append(Case(f"well{k + 1}", "solve4", model, target=round(e0 - offset, 6)))
    return cases


def _gaussian(rng: random.Random, n: int, L: int) -> Model:
    depth = round(-4.0 + rng.uniform(-0.5, 0.5), 4)
    width = round(1.0 + rng.uniform(-0.2, 0.2), 4)
    return Model(n, L, "gaussian", (depth, width))


def _threebody(rng: random.Random) -> list[Case]:
    return [Case(f"gauss{k + 1}", "solve3", _gaussian(rng, 3, 12), target=None) for k in range(3)]


def _hardcore(rng: random.Random) -> list[Case]:
    return [
        Case(f"core{k + 1}", "hardcore3", _gaussian(rng, 3, 10), target=None,
             extra_args=("--sweep", ",".join(HARDCORE_SWEEP)))
        for k in range(2)
    ]


WORKLOADS = {"fourbody": _fourbody, "threebody": _threebody, "hardcore": _hardcore}


def make_cases(workload: str, seed: int) -> list[Case]:
    """The workload's cases for ``seed``, each with its reference energies."""
    cases = WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    for case in cases:
        tokens = HARDCORE_SWEEP if case.command == "hardcore3" else ("none",)
        case.references = {tok: ground_energy(case.model, _core_arg(tok)) for tok in tokens}
    return cases


# ----------------------------------------------------------------------
# correctness gate


def check(case: Case, returncode: int, stdout: str) -> list[str]:
    """Reasons the case's output is wrong; an empty list means it passed."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        records = [json.loads(line) for line in stdout.splitlines()
                   if line and not line.startswith("#")]
    except json.JSONDecodeError as exc:
        return [f"unparsable output: {exc}"]
    by_kind: dict[str, list] = {}
    for rec in records:
        by_kind.setdefault(rec.get("record"), []).append(rec)
    problems = []

    def near(label, value, reference):
        if not abs(value - reference) <= EIGENVALUE_TOL:
            problems.append(f"{label}: eigenvalue {value!r} vs reference {reference!r}")

    if case.command == "hardcore3":
        rows = by_kind.get("core_point", [])
        if [r["core"] for r in rows] != list(HARDCORE_SWEEP):
            return [f"expected core rows {list(HARDCORE_SWEEP)}, got {[r['core'] for r in rows]}"]
        for row in rows:
            near(f"core {row['core']}", row["pencil_eigenvalue"], case.references[row["core"]])
            if row["physical"] is not True:
                problems.append(f"core {row['core']}: physical={row['physical']}")
            if not row["restricted_residual"] <= SOLVER_TOL:
                problems.append(f"core {row['core']}: residual {row['restricted_residual']!r}")
        return problems

    solutions = by_kind.get("solution", [])
    if len(solutions) != 1:
        return [f"expected one solution record, got {len(solutions)}"]
    sol = solutions[0]
    near("solution", sol["eigenvalue"], case.references["none"])
    if not sol["residual"] <= SOLVER_TOL:
        problems.append(f"residual {sol['residual']!r} above tol {SOLVER_TOL!r}")
    if case.command == "solve4":
        totals = by_kind.get("totals", [])
        if len(totals) != 1:
            problems.append("no reconstruction totals record")
        elif not totals[0]["total_defect"] <= RECONSTRUCTION_TOL:
            problems.append(f"reconstruction defect {totals[0]['total_defect']!r}")
    return problems
