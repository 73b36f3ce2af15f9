"""Run configuration: JSON schema, validation, canonical hashing.

The file format is strict JSON with a fixed field set; unknown keys are
rejected with their full path so typos fail loudly instead of silently
falling back to defaults.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .assembly import SpaceOperators
from .forward import NewtonConfig
from .linalg import LinearSolveConfig
from .mesh import build_interval_mesh, build_square_mesh
from .problems import MANUFACTURED, PROFILES, make_problem
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


_SCHEMA = {
    "dimension": None,
    "epsilon": None,
    "mesh": {"n": None, "n_per_side": None},
    "time": {"T": None, "N_slabs": None, "k": None},
    "space": {"degree_l": None},
    "problem": {"manufactured": None, "initial_profile": None},
    "solver": {
        "newton_abs_tol": None, "newton_rel_tol": None, "max_iter": None,
        "linear": {"rel_tolerance": None},
    },
    "quadrature": {"time_points": None, "space_order": None, "allow_inexact": None},
    "output": {"directory": None, "run_id": None},
}


def _reject_unknown(doc: dict, schema: dict, path: str = "") -> None:
    for key, val in doc.items():
        here = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"unknown field '{here}'")
        sub = schema[key]
        if isinstance(sub, dict):
            if not isinstance(val, dict):
                raise ConfigError(f"field '{here}' must be an object")
            _reject_unknown(val, sub, here)


def _positive(value, name: str) -> None:
    if not (isinstance(value, (int, float)) and value > 0):
        raise ConfigError(f"'{name}' must be positive, got {value!r}")


def parse_config(doc: dict) -> RunConfig:
    """Validate a parsed JSON document and return a RunConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be a JSON object")
    _reject_unknown(doc, _SCHEMA)

    dim = doc.get("dimension", 1)
    if dim not in (1, 2):
        raise ConfigError(f"'dimension' must be 1 or 2, got {dim!r}")

    mesh_doc = doc.get("mesh", {})
    mesh = MeshConfig(n=mesh_doc.get("n"), n_per_side=mesh_doc.get("n_per_side"))
    if dim == 1:
        if mesh.n_per_side is not None:
            raise ConfigError("'mesh.n_per_side' is a 2-d field; use 'mesh.n' in 1-d")
        if mesh.n is None:
            mesh = MeshConfig(n=32)
        _positive(mesh.n, "mesh.n")
    else:
        if mesh.n is not None:
            raise ConfigError("'mesh.n' is a 1-d field; use 'mesh.n_per_side' in 2-d")
        if mesh.n_per_side is None:
            mesh = MeshConfig(n_per_side=16)
        _positive(mesh.n_per_side, "mesh.n_per_side")

    tdoc = doc.get("time", {})
    time = TimeConfig(T=float(tdoc.get("T", 1.0)), N_slabs=int(tdoc.get("N_slabs", 8)),
                      k=int(tdoc.get("k", 1)))
    _positive(time.T, "time.T")
    _positive(time.N_slabs, "time.N_slabs")
    if time.k < 0:
        raise ConfigError(f"'time.k' must be >= 0, got {time.k}")

    sdoc = doc.get("space", {})
    space = SpaceConfig(degree_l=int(sdoc.get("degree_l", 1)))
    _positive(space.degree_l, "space.degree_l")

    epsilon = float(doc.get("epsilon", 0.5))
    _positive(epsilon, "epsilon")

    pdoc = doc.get("problem", {})
    problem = ProblemConfig(manufactured=pdoc.get("manufactured"),
                            initial_profile=pdoc.get("initial_profile"))
    if (problem.manufactured is None) == (problem.initial_profile is None):
        raise ConfigError(
            "'problem' needs exactly one of 'manufactured' or 'initial_profile'")
    if problem.manufactured is not None and problem.manufactured not in MANUFACTURED:
        raise ConfigError(
            f"unknown manufactured solution '{problem.manufactured}'; "
            f"known: {sorted(MANUFACTURED)}")
    if problem.initial_profile is not None and problem.initial_profile not in PROFILES:
        raise ConfigError(
            f"unknown initial profile '{problem.initial_profile}'; "
            f"known: {sorted(PROFILES)}")

    soldoc = doc.get("solver", {})
    lindoc = soldoc.get("linear", {})
    rel_tolerance = float(lindoc.get("rel_tolerance", 1e-11))
    _positive(rel_tolerance, "solver.linear.rel_tolerance")
    linear = LinearSolveConfig(rel_tolerance=rel_tolerance)
    solver = SolverConfig(newton_abs_tol=float(soldoc.get("newton_abs_tol", 1e-12)),
                          newton_rel_tol=float(soldoc.get("newton_rel_tol", 1e-12)),
                          max_iter=int(soldoc.get("max_iter", 30)),
                          linear=linear)
    _positive(solver.newton_abs_tol, "solver.newton_abs_tol")
    _positive(solver.newton_rel_tol, "solver.newton_rel_tol")
    _positive(solver.max_iter, "solver.max_iter")

    qdoc = doc.get("quadrature", {})
    quad = QuadratureConfig(time_points=qdoc.get("time_points"),
                            space_order=qdoc.get("space_order"),
                            allow_inexact=bool(qdoc.get("allow_inexact", False)))
    if quad.time_points is not None:
        _positive(quad.time_points, "quadrature.time_points")
    if quad.space_order is not None:
        _positive(quad.space_order, "quadrature.space_order")

    odoc = doc.get("output", {})
    output = OutputConfig(directory=str(odoc.get("directory", "runs")),
                          run_id=str(odoc.get("run_id", "run")))

    return RunConfig(dimension=dim, mesh=mesh, time=time, space=space,
                     epsilon=epsilon, problem=problem, solver=solver,
                     quadrature=quad, output=output)


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON configuration file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"configuration file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}")
    return parse_config(doc)


def config_to_dict(cfg: RunConfig) -> dict:
    """Fully explicit dictionary form (defaults filled in)."""
    mesh = {"n": cfg.mesh.n} if cfg.dimension == 1 else {"n_per_side": cfg.mesh.n_per_side}
    problem = ({"manufactured": cfg.problem.manufactured}
               if cfg.problem.manufactured is not None
               else {"initial_profile": cfg.problem.initial_profile})
    return {
        "dimension": cfg.dimension,
        "mesh": mesh,
        "time": {"T": cfg.time.T, "N_slabs": cfg.time.N_slabs, "k": cfg.time.k},
        "space": {"degree_l": cfg.space.degree_l},
        "epsilon": cfg.epsilon,
        "problem": problem,
        "solver": {
            "newton_abs_tol": cfg.solver.newton_abs_tol,
            "newton_rel_tol": cfg.solver.newton_rel_tol,
            "max_iter": cfg.solver.max_iter,
            "linear": {"rel_tolerance": cfg.solver.linear.rel_tolerance},
        },
        "quadrature": {"time_points": cfg.quadrature.time_points,
                       "space_order": cfg.quadrature.space_order,
                       "allow_inexact": cfg.quadrature.allow_inexact},
        "output": {"directory": cfg.output.directory, "run_id": cfg.output.run_id},
    }


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
    if cfg.dimension == 1:
        mesh = build_interval_mesh(cfg.mesh.n)
    else:
        mesh = build_square_mesh(cfg.mesh.n_per_side)
    space = build_space(mesh, cfg.space.degree_l)
    if cfg.quadrature.space_order is not None:
        ops = SpaceOperators(space, exact_degree=cfg.quadrature.space_order)
    else:
        ops = SpaceOperators(space)
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
