"""Batch command-line front end.

One command is one process: parse a config, build the model, run the
requested solve or check, print a deterministic table (or line-delimited
JSON records in machine format), and exit with 0 on success, 1 on solver
failure, 2 on configuration or usage errors, 3 on a theorem violation.

Determinism is a contract here: identical config and seed must produce
byte-identical output, so everything printed is derived from the resolved
configuration and fixed-format numbers; no timestamps, no environment noise.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from configparser import ConfigParser, Error as ConfigParserError
from importlib import resources
from typing import Optional

import numpy as np

from . import __version__
from .blockops import dump_matrix_text, shift_invert_eigenpair
from .combinatorics import chain_orbits, enumerate_chains, verify_chain_identity
from .errors import (
    ChannelEnergyError,
    ConfigError,
    InternalConsistencyError,
    InvalidInputError,
    PreconditionError,
    SingularMatrixError,
    SolverFailureError,
    SpuriousEnergyError,
    TooLargeError,
)
from .faddeev import (
    FaddeevComponents,
    FewBodySplit,
    _FaddeevShiftedFactor,
    assemble_faddeev_operator,
    faddeev_components,
    faddeev_residual,
    lippmann_schwinger_residual,
    random_split,
    spectrum_union_check,
)
from .hardcore import (
    Hardcore4Evaluator,
    _ground_state,
    assemble_hardcore3_pencil,
    restricted_oracle,
    restricted_space,
    solve_hardcore3,
)
from .lattice import (
    LatticeModel,
    PairPotential,
    build_split,
)
from .yakubovsky import (
    YakubovskyComponents,
    YakubovskySystem,
    assemble_yakubovsky_operator,
    chain_sum_consistency,
    coupling_pattern,
    solve_fourbody_ground_state,
    yakubovsky_components,
    yakubovsky_residual,
)

_ALLOWED_KEYS = {
    "model": {"N", "L", "boundary", "t", "potential.kind", "potential.params", "core_radius"},
    "solver": {"target", "tol", "max_iter"},
    "output": {"format", "path"},
}

_CHAIN_SUM_EIGENPAIR_TOL = 1e-6  # ‖HΨ − zΨ‖/‖Ψ‖ bound of solve4's chain-sum check


def _g(x: float) -> str:
    """Canonical float text: shortest round-trip form, deterministic."""
    return repr(float(x))


def _e(x: float) -> str:
    """Fixed-width scientific form for table columns."""
    return f"{float(np.real(x)):.12e}"


class RunConfig:
    """Resolved configuration: model, solver knobs, and output options."""

    def __init__(self):
        self.model: Optional[LatticeModel] = None
        self.target: Optional[float] = None
        self.tol: float = 1e-10
        self.max_iter: int = 200
        self.format: str = "table"
        self.path: Optional[str] = None
        self.source: str = "(defaults)"

    def echo(self) -> str:
        """Canonical one-line rendering of every resolved setting."""
        parts = []
        if self.model is not None:
            m = self.model
            parts += [
                f"model.N={m.N}",
                f"model.L={m.L}",
                f"model.boundary={m.boundary}",
                f"model.t={_g(m.t)}",
                f"model.potential.kind={m.potential.kind}",
                "model.potential.params=" + ",".join(_g(p) for p in m.potential.params),
                f"model.core_radius={'none' if m.core_radius is None else m.core_radius}",
            ]
        parts += [
            f"solver.target={'auto' if self.target is None else _g(self.target)}",
            f"solver.tol={_g(self.tol)}",
            f"solver.max_iter={self.max_iter}",
            f"output.format={self.format}",
        ]
        return " ".join(parts)


def _resolve_config_path(name: str) -> str:
    if os.path.exists(name):
        return name
    base = name if name.endswith(".cfg") else name + ".cfg"
    try:
        packaged = resources.files("fykit").joinpath("configs", base)
        if packaged.is_file():
            return str(packaged)
    except (FileNotFoundError, ModuleNotFoundError):
        pass
    raise ConfigError(f"config file not found: {name}")


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        val = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key} must be a number, got {raw!r}") from exc
    if not np.isfinite(val):
        raise ConfigError(f"{section}.{key} must be finite, got {raw!r}")
    return val


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key} must be an integer, got {raw!r}") from exc


def load_config(name: str) -> RunConfig:
    """Read, validate, and resolve a config file (or packaged preset name).

    Unknown sections or keys are rejected outright: a typo that silently
    fell back to a default would poison reproducibility.
    """
    path = _resolve_config_path(name)
    cp = ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        read = cp.read(path, encoding="utf-8")
    except (ConfigParserError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not readable: {path}")

    for section in cp.sections():
        if section not in _ALLOWED_KEYS:
            raise ConfigError(f"unknown config section [{section}] in {path}")
        for key in cp[section]:
            if key not in _ALLOWED_KEYS[section]:
                raise ConfigError(f"unknown key {section}.{key} in {path}")

    cfg = RunConfig()
    cfg.source = path

    if cp.has_section("model"):
        sec = cp["model"]
        required = {"N", "L"}
        missing = required - set(sec)
        if missing:
            raise ConfigError(f"[model] section missing keys: {sorted(missing)}")
        kind = sec.get("potential.kind", "onsite")
        raw_params = sec.get("potential.params", "0.0")
        try:
            params = tuple(float(tok) for tok in raw_params.split(",") if tok.strip())
        except ValueError as exc:
            raise ConfigError(f"model.potential.params must be comma-separated numbers") from exc
        raw_core = sec.get("core_radius", "none").strip().lower()
        core = None if raw_core in ("", "none") else _parse_int("model", "core_radius", raw_core)
        try:
            cfg.model = LatticeModel(
                N=_parse_int("model", "N", sec["N"]),
                L=_parse_int("model", "L", sec["L"]),
                boundary=sec.get("boundary", "box"),
                t=_parse_float("model", "t", sec.get("t", "1.0")),
                potential=PairPotential(kind, params),
                core_radius=core,
            )
        except (InvalidInputError, TooLargeError) as exc:
            raise ConfigError(f"invalid model in {path}: {exc}") from exc

    if cp.has_section("solver"):
        sec = cp["solver"]
        if "target" in sec and sec["target"].strip().lower() not in ("", "auto"):
            cfg.target = _parse_float("solver", "target", sec["target"])
        if "tol" in sec:
            cfg.tol = _parse_float("solver", "tol", sec["tol"])
            if cfg.tol <= 0:
                raise ConfigError(f"solver.tol must be positive, got {cfg.tol}")
        if "max_iter" in sec:
            cfg.max_iter = _parse_int("solver", "max_iter", sec["max_iter"])
            if cfg.max_iter < 1:
                raise ConfigError(f"solver.max_iter must be >= 1, got {cfg.max_iter}")

    if cp.has_section("output"):
        sec = cp["output"]
        if "format" in sec:
            fmt = sec["format"].strip().lower()
            if fmt not in ("table", "machine"):
                raise ConfigError(f"output.format must be 'table' or 'machine', got {fmt!r}")
            cfg.format = fmt
        if "path" in sec:
            cfg.path = sec["path"].strip() or None
    return cfg


class _Out:
    """Deterministic line buffer with table/machine dual rendering."""

    def __init__(self, machine: bool, quiet: bool):
        self.machine = machine
        self.quiet = quiet
        self.lines: list[str] = []

    def comment(self, text: str) -> None:
        if not self.quiet:
            self.lines.append("# " + text)

    def record(self, rec: str, table_line: str, **data) -> None:
        if self.machine:
            payload = {"record": rec}
            payload.update(data)
            self.lines.append(json.dumps(payload, sort_keys=True))
        else:
            self.lines.append(table_line)

    def emit(self, path: Optional[str]) -> None:
        text = "\n".join(self.lines) + ("\n" if self.lines else "")
        sys.stdout.write(text)
        if path:
            with open(path, "w") as fh:
                fh.write(text)


def _header(out: _Out, command: str, cfg: Optional[RunConfig], seed: int) -> None:
    out.comment(f"fykit {__version__}")
    out.comment(f"command: {command}")
    if cfg is not None:
        out.comment(f"config: {cfg.source}")
        out.comment(f"resolved: {cfg.echo()}")
    out.comment(f"seed: {seed}")


def _require_model(cfg: RunConfig, n: Optional[int] = None, forbid_core: bool = False) -> LatticeModel:
    if cfg.model is None:
        raise ConfigError("this command needs a [model] section in the config")
    if n is not None and cfg.model.N != n:
        raise ConfigError(f"this command needs model.N={n}, got {cfg.model.N}")
    if forbid_core and cfg.model.has_core:
        raise ConfigError(
            "this command handles core-free models; use 'fy hardcore3' for hard cores"
        )
    return cfg.model


# ----------------------------------------------------------------------
# commands


def cmd_chains(args, out: _Out, cfg: RunConfig) -> int:
    n = args.n
    chains = enumerate_chains(n)
    orbits = chain_orbits(n)
    orbit_of = {}
    for oid, orbit in enumerate(orbits):
        for c in orbit:
            orbit_of[c] = oid
    report = verify_chain_identity(n)
    out.comment(f"{len(chains)} chains, kinds {report.chains_by_kind}, "
                f"orbit sizes {[len(o) for o in orbits]}, identity passed={report.passed}")
    out.record("columns", "idx  chain       kind  orbit", columns=["idx", "chain", "kind", "orbit"])
    for i, c in enumerate(chains):
        out.record(
            "chain",
            f"{i:3d}  {str(c):<10s}  {c.partition.kind:<4s}  {orbit_of[c]}",
            idx=i,
            chain=str(c),
            kind=c.partition.kind,
            orbit=orbit_of[c],
        )
    return 0


def cmd_yak_pattern(args, out: _Out, cfg: RunConfig) -> int:
    chains = enumerate_chains(4)
    mask = coupling_pattern(chains)
    labels = [str(c) for c in chains]
    width = max(len(s) for s in labels)
    out.comment("cell = pair of the row's potential where the row couples to the column;")
    out.comment("'#' marks the diagonal (kinetic-plus-potential) blocks, '.' an exact zero")
    header = " " * (width + 2) + " ".join(f"{j:>3d}" for j in range(18))
    out.record("columns", header, columns=labels)
    counts = {"3+1": set(), "2+2": set()}
    for i, c in enumerate(chains):
        cells = []
        row = {}
        for j in range(18):
            if i == j:
                cells.append("  #")
                row[labels[j]] = "#"
            elif mask[i, j]:
                cells.append(f"{str(c.pair):>3s}")
                row[labels[j]] = str(c.pair)
            else:
                cells.append("  .")
                row[labels[j]] = "."
        counts[c.partition.kind].add(int(mask[i].sum()))
        out.record(
            "row",
            f"{labels[i]:<{width}s}  " + " ".join(cells),
            chain=labels[i],
            cells=row,
        )
    total = int(mask.sum())
    out.comment(
        f"off-diagonal nonzero blocks: {total}; per-row counts: "
        f"3+1 -> {sorted(counts['3+1'])}, 2+2 -> {sorted(counts['2+2'])}"
    )
    out.record(
        "census",
        f"census  blocks={total}  row_3p1={sorted(counts['3+1'])[0]}  row_2p2={sorted(counts['2+2'])[0]}",
        blocks=total,
        row_3p1=sorted(counts["3+1"])[0],
        row_2p2=sorted(counts["2+2"])[0],
    )
    return 0


def cmd_spectrum_check(args, out: _Out, cfg: RunConfig) -> int:
    if args.n < 2 or args.dim < 1 or args.seeds < 1:
        raise ConfigError("spectrum-check needs --n >= 2, --dim >= 1, --seeds >= 1")
    tol = args.tol
    out.record(
        "columns",
        "seed  n  dim  hermitian  max_distance      status",
        columns=["seed", "n", "dim", "hermitian", "max_distance", "status"],
    )
    worst = 0.0
    failures = 0
    for i in range(args.seeds):
        split = random_split(args.n, args.dim, seed=i, hermitian=args.hermitian)
        rep = spectrum_union_check(split, tol=tol)
        worst = max(worst, rep.max_matching_distance)
        status = "PASS" if rep.passed else "FAIL"
        if not rep.passed:
            failures += 1
        out.record(
            "instance",
            f"{i:4d}  {args.n}  {args.dim:3d}  {str(args.hermitian).lower():<9s}  "
            f"{_e(rep.max_matching_distance)}  {status}",
            seed=i,
            n=args.n,
            dim=args.dim,
            hermitian=args.hermitian,
            max_distance=rep.max_matching_distance,
            status=status,
        )
    summary = "PASS" if failures == 0 else "FAIL"
    out.record(
        "summary",
        f"summary  instances={args.seeds}  failures={failures}  worst={_e(worst)}  {summary}",
        instances=args.seeds,
        failures=failures,
        worst=worst,
        status=summary,
    )
    return 0 if failures == 0 else 3


def cmd_oracle(args, out: _Out, cfg: RunConfig) -> int:
    model = _require_model(cfg)
    kept = restricted_space(model)
    if model.has_core:
        out.comment(
            f"hard core c={model.core_radius}: restricted dimension {kept.shape[0]} "
            f"of {model.dimension}"
        )
    results = restricted_oracle(model, min(args.k, kept.shape[0]))
    out.record("columns", "idx  eigenvalue            residual",
               columns=["idx", "eigenvalue", "residual"])
    for i, r in enumerate(results):
        out.record(
            "eigenpair",
            f"{i:3d}  {_e(r.value)}  {_e(r.residual_norm)}",
            idx=i,
            eigenvalue=float(np.real(r.value)),
            residual=r.residual_norm,
        )
    return 0


def _record_solution(out: _Out, z: float, res) -> None:
    out.record(
        "solution",
        f"eigenvalue {_e(z)}  residual {_e(res.residual_norm)}  iterations {res.iterations}  "
        f"factorizations {res.factorizations}",
        eigenvalue=z,
        residual=res.residual_norm,
        iterations=res.iterations,
        factorizations=res.factorizations,
    )


def _target(out: _Out, cfg: RunConfig, model: LatticeModel, split: FewBodySplit) -> float:
    """The configured target, or else the Lanczos ground state of the split's H,
    announced in a comment line."""
    if cfg.target is not None:
        return cfg.target
    target = _ground_state(model, split.total().to_sparse()).value
    out.comment(f"auto target from lanczos oracle: {_g(target)}")
    return target


def cmd_solve3(args, out: _Out, cfg: RunConfig) -> int:
    model = _require_model(cfg, n=3, forbid_core=True)
    split = build_split(model)
    flat = assemble_faddeev_operator(split).flatten()
    if args.dump_matrix:
        dump_matrix_text(args.dump_matrix, flat)
    res = shift_invert_eigenpair(flat, _target(out, cfg, model, split), tol=cfg.tol,
                                 max_iter=cfg.max_iter, seed=args.seed,
                                 shifted_factor=lambda z: _FaddeevShiftedFactor(split, z))
    z = float(np.real(res.value))
    nearest = split.auxiliary_distance(z)
    if nearest is not None:
        out.comment(
            f"warning: eigenvalue within {_e(nearest)} of the unperturbed spectrum; "
            "likely a spurious (auxiliary) root"
        )
    comps = tuple(np.split(np.real_if_close(res.vector), 3))
    fc = FaddeevComponents(z=z, components=comps)
    fe = faddeev_residual(split, fc)
    _record_solution(out, z, res)
    try:
        ls = lippmann_schwinger_residual(split, z, fc.total())
    except SpuriousEnergyError as exc:
        out.comment(f"lippmann-schwinger residual undefined: {exc}; check skipped")
    else:
        out.record(
            "reconstruction",
            f"lippmann-schwinger residual of reconstructed state {_e(ls)}",
            lippmann_schwinger_residual=ls,
        )
    out.record("columns", "pair  norm              fe_residual",
               columns=["pair", "norm", "fe_residual"])
    for pair, comp, r in zip(model.pairs(), comps, fe):
        out.record(
            "component",
            f"{str(pair):<4s}  {_e(np.linalg.norm(comp))}  {_e(r)}",
            pair=str(pair),
            norm=float(np.linalg.norm(comp)),
            fe_residual=float(r),
        )
    return 0


def cmd_solve4(args, out: _Out, cfg: RunConfig) -> int:
    model = _require_model(cfg, n=4, forbid_core=True)
    split = build_split(model)
    sysy = YakubovskySystem(split=split)
    if args.dump_matrix:
        dump_matrix_text(args.dump_matrix, assemble_yakubovsky_operator(sysy).flatten())
    res = solve_fourbody_ground_state(sysy, _target(out, cfg, model, split), tol=cfg.tol,
                                      max_iter=cfg.max_iter, seed=args.seed)
    nearest = split.auxiliary_distance(res.value, range(split.n))
    if nearest is not None:
        out.comment(
            f"warning: eigenvalue {res.value} lies within {nearest:.2e} of an unperturbed or "
            "channel spectrum point; likely an auxiliary (non-physical) root"
        )
    z = float(np.real(res.value))
    comps = tuple(np.split(np.real_if_close(res.vector), 18))
    yc = YakubovskyComponents(z=z, components=comps)
    ye = yakubovsky_residual(sysy, yc)
    _record_solution(out, z, res)
    out.record("columns", "chain       kind  norm              ye_residual",
               columns=["chain", "kind", "norm", "ye_residual"])
    for chain, comp, r in zip(sysy.chains, comps, ye):
        out.record(
            "component",
            f"{str(chain):<10s}  {chain.partition.kind:<4s}  {_e(np.linalg.norm(comp))}  {_e(r)}",
            chain=str(chain),
            kind=chain.partition.kind,
            norm=float(np.linalg.norm(comp)),
            ye_residual=float(r),
        )
    psi = yc.total()
    try:
        fc = faddeev_components(split, z, psi, eigenpair_tol=_CHAIN_SUM_EIGENPAIR_TOL)
    except PreconditionError as exc:
        out.comment(
            f"reconstructed state is not an eigenvector: eigenpair residual {_e(exc.measured)} "
            f"exceeds {_g(_CHAIN_SUM_EIGENPAIR_TOL)}; chain-sum check skipped"
        )
        return 0
    rep = chain_sum_consistency(sysy, yc, fc)
    out.record("columns", "pair  chain_sum_defect",
               columns=["pair", "chain_sum_defect"])
    for pair, d in zip(sysy.pairs, rep.per_pair):
        out.record(
            "chain_sum",
            f"{str(pair):<4s}  {_e(d)}",
            pair=str(pair),
            chain_sum_defect=float(d),
        )
    out.record(
        "totals",
        f"total reconstruction defect {_e(rep.total_defect)}",
        total_defect=rep.total_defect,
    )
    return 0


def _parse_core_token(tok: str) -> Optional[int]:
    tok = tok.strip().lower()
    if tok in ("none", ""):
        return None
    try:
        return int(tok)
    except ValueError as exc:
        raise ConfigError(f"core radius must be an integer or 'none', got {tok!r}") from exc


def cmd_hardcore3(args, out: _Out, cfg: RunConfig) -> int:
    model = _require_model(cfg, n=3)
    if args.sweep:
        cores = [_parse_core_token(tok) for tok in args.sweep.split(",")]
    elif args.core is not None:
        cores = [_parse_core_token(args.core)]
    else:
        cores = [model.core_radius]
    target = args.target  # explicit only; per-core auto target otherwise
    out.comment("target: restricted-oracle ground state per core radius"
                if target is None else f"target: {_g(target)}")
    if args.dump_matrix:
        pencil = assemble_hardcore3_pencil(
            dataclasses.replace(model, core_radius=cores[0]), surface_only=args.surface_only
        )
        dump_matrix_text(args.dump_matrix, pencil.a.flatten())
    out.record(
        "columns",
        "core  dim   pencil_eigenvalue     oracle_eigenvalue     difference        "
        "core_vanishing    restricted_residual  physical",
        columns=["core", "dim", "pencil_eigenvalue", "oracle_eigenvalue", "difference",
                 "core_vanishing", "restricted_residual", "physical"],
    )
    bad = 0
    for core in cores:
        m = dataclasses.replace(model, core_radius=core)
        result = solve_hardcore3(
            m, target=target, tol=cfg.tol, max_iter=cfg.max_iter,
            surface_only=args.surface_only, seed=args.seed,
        )
        if not result.physical:
            out.comment(
                f"warning: pencil eigenvalue {result.eigen.value} failed physicality filters "
                f"(core vanishing {result.core_vanishing:.2e}, restricted residual "
                f"{result.restricted_residual:.2e}); auxiliary root"
            )
        oracle, rdim = result.ground_state, result.restricted_dim
        z = float(np.real(result.eigen.value))
        diff = abs(z - oracle.value)
        ok = result.physical and diff <= 1e-8
        if not ok:
            bad += 1
        core_txt = "none" if m.core_radius is None else str(m.core_radius)
        out.record(
            "core_point",
            f"{core_txt:<4s}  {rdim:4d}  {_e(z)}  {_e(oracle.value)}  {_e(diff)}  "
            f"{_e(result.core_vanishing)}  {_e(result.restricted_residual)}  "
            f"{str(ok).lower()}",
            core=core_txt,
            dim=rdim,
            pencil_eigenvalue=z,
            oracle_eigenvalue=float(oracle.value),
            difference=diff,
            core_vanishing=result.core_vanishing,
            restricted_residual=result.restricted_residual,
            physical=bool(ok),
        )
    return 0 if bad == 0 else 3


def cmd_hardcore4_check(args, out: _Out, cfg: RunConfig) -> int:
    model = _require_model(cfg, n=4)
    if args.core is not None:
        model = dataclasses.replace(model, core_radius=_parse_core_token(args.core))
    split = build_split(model)
    sysy = YakubovskySystem(split=split)
    evaluator = Hardcore4Evaluator(sysy, model)
    out.comment(
        "components built from the restricted-oracle ground state via the "
        "chain construction (definition-level; eigenpair precondition waived)"
        if model.has_core else
        "no core: zero constraint sites, defect is exactly zero by construction"
    )
    seed_pair = restricted_oracle(model, 1)[0]
    z, psi = seed_pair.value, seed_pair.vector
    fc = faddeev_components(split, z, psi, eigenpair_tol=np.inf)
    yc = yakubovsky_components(sysy, z, fc)
    rep = evaluator.evaluate(yc)
    out.record("columns", "chain       kind  sites  defect",
               columns=["chain", "kind", "sites", "defect"])
    for chain, sites, d in zip(sysy.chains, evaluator.sites, rep.per_chain):
        out.record(
            "constraint",
            f"{str(chain):<10s}  {chain.partition.kind:<4s}  {sites.shape[0]:5d}  {_e(d)}",
            chain=str(chain),
            kind=chain.partition.kind,
            sites=int(sites.shape[0]),
            defect=float(d),
        )
    out.record(
        "summary",
        f"sites {rep.site_count}  max_defect {_e(rep.max_defect)}  "
        f"relative_defect {_e(rep.relative_defect)}",
        sites=rep.site_count,
        max_defect=rep.max_defect,
        relative_defect=rep.relative_defect,
    )
    return 0 if np.isfinite(rep.max_defect) else 3


# ----------------------------------------------------------------------
# argument parsing and dispatch


@functools.cache  # parse_args leaves the parser as it was, so one serves every main call
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["table", "machine"], default=None,
                        help="output format (overrides config)")
    common.add_argument("--output", default=None, metavar="PATH",
                        help="also write the output to this file")
    common.add_argument("--quiet", action="store_true", help="suppress header comments")
    common.add_argument("--seed", type=int, default=12345,
                        help="seed for iterative-solver start vectors")
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True)

    p = argparse.ArgumentParser(prog="fy", description=__doc__)
    p.add_argument("--version", action="version", version=f"fykit {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("chains", parents=[common], help="list chains with orbit ids")
    sp.set_defaults(run=cmd_chains)
    sp.add_argument("--n", type=int, choices=[3, 4], default=4)

    sp = sub.add_parser("yak-pattern", parents=[common],
                        help="print the 18x18 coupling pattern of the four-body operator")
    sp.set_defaults(run=cmd_yak_pattern)

    sp = sub.add_parser("spectrum-check", parents=[common],
                        help="verify the spectrum identity on seeded random splits")
    sp.set_defaults(run=cmd_spectrum_check)
    sp.add_argument("--n", type=int, default=3, help="number of potentials in the split")
    sp.add_argument("--dim", type=int, default=4, help="base dimension")
    sp.add_argument("--seeds", type=int, default=20, help="number of seeded instances")
    sp.add_argument("--hermitian", action="store_true", help="draw symmetric operators")
    sp.add_argument("--tol", type=float, default=1e-8, help="max matching distance allowed")

    sp = sub.add_parser("oracle", parents=[common, config],
                        help="dense (or restricted) brute-force spectrum")
    sp.set_defaults(run=cmd_oracle)
    sp.add_argument("--k", type=int, default=8, help="number of lowest eigenpairs")

    sp = sub.add_parser("solve3", parents=[common, config], help="three-body coupled-component solve")
    sp.set_defaults(run=cmd_solve3)
    sp.add_argument("--dump-matrix", default=None, metavar="PATH",
                    help="write the assembled flatten as text")

    sp = sub.add_parser("solve4", parents=[common, config], help="four-body coupled-component solve")
    sp.set_defaults(run=cmd_solve4)
    sp.add_argument("--dump-matrix", default=None, metavar="PATH")

    sp = sub.add_parser("hardcore3", parents=[common, config],
                        help="hard-core pencil vs restricted oracle")
    sp.set_defaults(run=cmd_hardcore3)
    sp.add_argument("--core", default=None, metavar="C",
                    help="core radius override (integer or 'none')")
    sp.add_argument("--sweep", default=None, metavar="C1,C2,...",
                    help="comma-separated core radii to sweep")
    sp.add_argument("--surface-only", action="store_true",
                    help="constrain only the separation = c shell (research knob)")
    sp.add_argument("--target", type=float, default=None,
                    help="explicit shift target (default: restricted-oracle ground state)")
    sp.add_argument("--dump-matrix", default=None, metavar="PATH")

    sp = sub.add_parser("hardcore4-check", parents=[common, config],
                        help="evaluate the four-body chain boundary conditions")
    sp.set_defaults(run=cmd_hardcore4_check)
    sp.add_argument("--core", default=None, metavar="C",
                    help="core radius override (integer or 'none')")
    return p


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
        cfg.format = args.format or cfg.format  # the format in effect, as the header echoes it
        out = _Out(machine=(cfg.format == "machine"), quiet=args.quiet)
        _header(out, args.command, cfg if getattr(args, "config", None) else None, args.seed)
        rc = args.run(args, out, cfg)
        out.emit(args.output or cfg.path)
        return rc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (InvalidInputError, TooLargeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (SolverFailureError, SingularMatrixError,
            ChannelEnergyError, SpuriousEnergyError, PreconditionError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1
    except InternalConsistencyError as exc:
        print(f"consistency violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
