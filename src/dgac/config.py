"""Run configuration: JSON schema, validation, canonical hashing.

The file format is strict JSON whose field set, value types and defaults
are the dataclasses below.  Unknown keys and ill-typed values are rejected
with their full path, so typos fail loudly instead of silently falling
back to defaults or being coerced.  The cross-field rules (problem
dimension, element degree, quadrature exactness) are those of the
constructors themselves, which parse_config runs on a one-cell mesh.
"""

from __future__ import annotations

import hashlib
import json
import math
import typing
from dataclasses import asdict, dataclass, field, is_dataclass, replace

from .assembly import SpaceOperators
from .forward import NewtonConfig
from .linalg import LinearSolveConfig
from .mesh import build_interval_mesh, build_square_mesh
from .problems import make_problem
from .space import build_space
from .timebase import TimePartition, make_time_basis


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending path."""


@dataclass(frozen=True)
class MeshConfig:
    n: int | None = None
    n_per_side: int | None = None


@dataclass(frozen=True)
class TimeConfig:
    T: float = 1.0
    N_slabs: int = 8
    k: int = 1


@dataclass(frozen=True)
class SpaceConfig:
    degree_l: int = 1


@dataclass(frozen=True)
class ProblemConfig:
    manufactured: str | None = None
    initial_profile: str | None = None


@dataclass(frozen=True)
class SolverConfig:
    newton_abs_tol: float = 1e-12
    newton_rel_tol: float = 1e-12
    max_iter: int = 30
    linear: LinearSolveConfig = field(default_factory=LinearSolveConfig)


@dataclass(frozen=True)
class QuadratureConfig:
    # None means "exact for the integrand degrees" in each direction.
    time_points: int | None = None
    space_order: int | None = None
    allow_inexact: bool = False


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "runs"
    run_id: str = "run"


@dataclass(frozen=True)
class RunConfig:
    dimension: int = 1
    mesh: MeshConfig = field(default_factory=MeshConfig)
    time: TimeConfig = field(default_factory=TimeConfig)
    space: SpaceConfig = field(default_factory=SpaceConfig)
    epsilon: float = 0.5
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    quadrature: QuadratureConfig = field(default_factory=QuadratureConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


# Numbers whose range parse_config checks by name; every other number must
# be positive.
_RANGED = ("dimension", "time.k")
_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _leaf(hint, value, path: str):
    """Check one value exactly against its annotation; only int widens to float."""
    kinds = typing.get_args(hint) or (hint,)
    if value is None and type(None) in kinds:
        return None
    kind = kinds[0]
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or (kind is not bool and isinstance(value, bool)):
        raise ConfigError(f"'{path}' must be {_KIND_NAMES[kind]}, got {value!r}")
    if kind is float:
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"'{path}' must be finite, got {value!r}")
    if kind in (int, float) and path not in _RANGED and not value > 0:
        raise ConfigError(f"'{path}' must be positive, got {value!r}")
    return value


def _build(cls, doc, path: str = ""):
    """Instantiate the dataclass cls from doc; absent fields take their defaults."""
    if not isinstance(doc, dict):
        raise ConfigError(f"field '{path}' must be an object")
    hints = typing.get_type_hints(cls)  # resolves the string annotations; one per field
    values = {}
    for key, val in doc.items():
        here = f"{path}.{key}" if path else key
        if key not in hints:
            raise ConfigError(f"unknown field '{here}'")
        hint = hints[key]
        values[key] = (_build(hint, val, here) if is_dataclass(hint)
                       else _leaf(hint, val, here))
    return cls(**values)


def parse_config(doc: dict) -> RunConfig:
    """Validate a parsed JSON document and return a RunConfig that
    instantiates: a ValueError of instantiate's constructors, run on a
    one-cell mesh, becomes a ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be a JSON object")
    cfg = _build(RunConfig, doc)

    dim = cfg.dimension
    if dim not in (1, 2):
        raise ConfigError(f"'dimension' must be 1 or 2, got {dim!r}")
    mesh = cfg.mesh
    if dim == 1:
        if mesh.n_per_side is not None:
            raise ConfigError("'mesh.n_per_side' is a 2-d field; use 'mesh.n' in 1-d")
        mesh = MeshConfig(n=32 if mesh.n is None else mesh.n)
    else:
        if mesh.n is not None:
            raise ConfigError("'mesh.n' is a 1-d field; use 'mesh.n_per_side' in 2-d")
        mesh = MeshConfig(n_per_side=16 if mesh.n_per_side is None else mesh.n_per_side)

    if cfg.time.k < 0:
        raise ConfigError(f"'time.k' must be >= 0, got {cfg.time.k}")

    try:  # the constructors are the one validator: build the run on one cell
        _discretize(cfg, 1)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return replace(cfg, mesh=mesh)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """object_pairs_hook that rejects a key given twice in one JSON object."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"duplicate key {key!r} in configuration")
        doc[key] = value
    return doc


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON configuration file; a key given twice in
    one object is an error, not last-one-wins."""
    try:
        with open(path) as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise ConfigError(f"configuration file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}")
    return parse_config(doc)


def config_to_dict(cfg: RunConfig) -> dict:
    """Fully explicit dictionary form (defaults filled in)."""
    doc = asdict(cfg)
    for choice in ("mesh", "problem"):  # a valid config sets exactly one field of each
        doc[choice] = {key: val for key, val in doc[choice].items() if val is not None}
    return doc


def config_hash(cfg: RunConfig) -> str:
    """Twelve hex digits of the sha256 of the canonical JSON form."""
    canon = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


@dataclass
class Discretization:
    """Everything a run needs, built once from a configuration."""

    problem: object
    space: object
    ops: SpaceOperators
    partition: TimePartition
    basis: object
    newton: NewtonConfig
    linear: LinearSolveConfig


def instantiate(cfg: RunConfig) -> Discretization:
    """Build problem, spaces, operators, and solver settings from a config."""
    return _discretize(cfg, cfg.mesh.n or cfg.mesh.n_per_side)


def _discretize(cfg: RunConfig, cells: int) -> Discretization:
    """instantiate on a mesh of the given cells per side."""
    mesh = build_interval_mesh(cells) if cfg.dimension == 1 else build_square_mesh(cells)
    space = build_space(mesh, cfg.space.degree_l)
    ops = SpaceOperators(space, exact_degree=cfg.quadrature.space_order)
    basis = make_time_basis(cfg.time.k, quad_points=cfg.quadrature.time_points,
                            allow_inexact=cfg.quadrature.allow_inexact)
    partition = TimePartition.uniform(cfg.time.T, cfg.time.N_slabs)
    problem = make_problem(dimension=cfg.dimension, epsilon=cfg.epsilon, T=cfg.time.T,
                           manufactured=cfg.problem.manufactured,
                           initial_profile=cfg.problem.initial_profile)
    newton = NewtonConfig(abs_tol=cfg.solver.newton_abs_tol,
                          rel_tol=cfg.solver.newton_rel_tol,
                          max_iterations=cfg.solver.max_iter)
    return Discretization(problem=problem, space=space, ops=ops,
                          partition=partition, basis=basis,
                          newton=newton, linear=cfg.solver.linear)
