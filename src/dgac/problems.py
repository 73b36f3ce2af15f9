"""Problem definitions: the Allen-Cahn data and the built-in registry.

The equation solved is

    u_t - Laplace(u) + (1/eps^2) (u^3 - u) = f   on (0, T) x Omega,
    u = 0 on the boundary,  u(0) = u_0,

with eps the interface-width parameter.  Manufactured solutions are
products a(t) s(x) of a time factor and a spatial factor, with the
derivatives needed to form forcing loads and error norms; initial profiles
provide data without an exact solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class ManufacturedSolution:
    """Smooth product-form solution u(t, x) = a(t) s(x).

    a and da (the time factor and its derivative) act elementwise on a
    time or an array of times.  s, grad_s and lap_s take spatial
    arguments of shape (..., dimension) and drop the last axis, except
    grad_s, which returns (..., dimension).  A caller evaluating u at one
    point set for many times samples s and grad_s once and scales them.
    """

    name: str
    dimension: int
    a: Callable
    da: Callable
    s: Callable[[np.ndarray], np.ndarray]
    grad_s: Callable[[np.ndarray], np.ndarray]
    lap_s: Callable[[np.ndarray], np.ndarray]

    def value(self, t: float, x: np.ndarray) -> np.ndarray:
        return self.a(t) * self.s(x)

    def dt(self, t: float, x: np.ndarray) -> np.ndarray:
        return self.da(t) * self.s(x)

    def grad(self, t: float, x: np.ndarray) -> np.ndarray:
        return self.a(t) * self.grad_s(x)

    def laplacian(self, t: float, x: np.ndarray) -> np.ndarray:
        return self.a(t) * self.lap_s(x)


@dataclass(frozen=True)
class InitialProfile:
    """Initial data without a known solution; forcing is zero.

    The value may depend on epsilon (interface profiles do), hence the
    extra argument.
    """

    name: str
    dimension: int
    value: Callable[[np.ndarray, float], np.ndarray]


def _decay(t):
    return np.exp(-t)


def _decay_rate(t):
    return -np.exp(-t)


def _expsine() -> ManufacturedSolution:
    pi = np.pi

    def s(x):
        return np.sin(pi * x[..., 0])

    def grad_s(x):
        return (pi * np.cos(pi * x[..., 0]))[..., None]

    def lap_s(x):
        return -(pi**2) * s(x)

    return ManufacturedSolution("expsine", 1, _decay, _decay_rate, s, grad_s, lap_s)


def _expsine2d() -> ManufacturedSolution:
    pi = np.pi

    def s(x):
        return np.sin(pi * x[..., 0]) * np.sin(pi * x[..., 1])

    def grad_s(x):
        sx, sy = np.sin(pi * x[..., 0]), np.sin(pi * x[..., 1])
        cx, cy = np.cos(pi * x[..., 0]), np.cos(pi * x[..., 1])
        return pi * np.stack([cx * sy, sx * cy], axis=-1)

    def lap_s(x):
        return -2.0 * pi**2 * s(x)

    return ManufacturedSolution("expsine2d", 2, _decay, _decay_rate, s, grad_s, lap_s)


def _interface_profile(x: np.ndarray, epsilon: float) -> np.ndarray:
    return np.tanh((x[..., 0] - 0.5) / (np.sqrt(2.0) * epsilon))


MANUFACTURED: dict[str, ManufacturedSolution] = {
    "expsine": _expsine(),
    "expsine2d": _expsine2d(),
}

def _zero_profile(x: np.ndarray, epsilon: float) -> np.ndarray:
    return np.zeros(x.shape[:-1])


PROFILES: dict[str, InitialProfile] = {
    "interface": InitialProfile("interface", 1, _interface_profile),
    "zero": InitialProfile("zero", 1, _zero_profile),
    "zero2d": InitialProfile("zero2d", 2, _zero_profile),
}


@dataclass(frozen=True)
class ProblemSpec:
    """Fully specified initial boundary value problem instance.

    The forcing is that of the manufactured solution exact, zero when exact
    is None (forward.forcing_loads turns it into loads).
    """

    dimension: int
    epsilon: float
    T: float
    u0: Callable[[np.ndarray], np.ndarray]
    exact: Optional[ManufacturedSolution]
    name: str

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not self.T > 0:
            raise ValueError("final time must be positive")
        if self.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")


def make_problem(
    dimension: int,
    epsilon: float,
    T: float,
    manufactured: str | None = None,
    initial_profile: str | None = None,
) -> ProblemSpec:
    """Build a ProblemSpec from a registry id.

    Exactly one of manufactured / initial_profile must be given, and its
    dimension must match.
    """
    if (manufactured is None) == (initial_profile is None):
        raise ValueError("give exactly one of manufactured or initial_profile")
    if manufactured is not None:
        if manufactured not in MANUFACTURED:
            raise ValueError(
                f"unknown manufactured solution {manufactured!r}; "
                f"known: {sorted(MANUFACTURED)}"
            )
        exact = MANUFACTURED[manufactured]
        if exact.dimension != dimension:
            raise ValueError(
                f"{manufactured!r} is {exact.dimension}d but config says {dimension}d"
            )
        return ProblemSpec(
            dimension=dimension,
            epsilon=epsilon,
            T=T,
            u0=lambda x: exact.value(0.0, x),
            exact=exact,
            name=manufactured,
        )
    if initial_profile not in PROFILES:
        raise ValueError(
            f"unknown initial profile {initial_profile!r}; known: {sorted(PROFILES)}"
        )
    prof = PROFILES[initial_profile]
    if prof.dimension != dimension:
        raise ValueError(
            f"{initial_profile!r} is {prof.dimension}d but config says {dimension}d"
        )
    eps = epsilon
    return ProblemSpec(
        dimension=dimension,
        epsilon=eps,
        T=T,
        u0=lambda x: prof.value(x, eps),
        exact=None,
        name=initial_profile,
    )
