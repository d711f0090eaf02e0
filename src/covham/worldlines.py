"""Prescribed point-particle worldlines.

Worldlines are parameterized by proper time tau with u_dot.u_dot = 1
(factors of c live in the species constants, not here).  One formula
covers every shape: a drift at velocity beta plus a circle of radius r
in the xy-plane about the moving anchor,

    u(tau)     = (t_start + gamma tau,
                  position + gamma tau beta + r (cos phi, sin phi, 0)),
    u_dot(tau) = (gamma, gamma beta + r omega gamma (-sin phi, cos phi, 0)),

with phi = omega gamma tau + phase0 and
gamma = 1 / sqrt(1 - beta.beta - (r omega)^2).  SHAPE_PARAMS says which
of beta, radius, omega and phase0 each kind takes: static is beta = 0
and r = 0, uniform is r = 0, circular is beta = 0.  Coordinate time is
linear in tau, so the equal-time crossing u0(tau*) = x0 has the closed
form tau* = (x0 - t_start) / gamma.  A worldline is active for
tau >= tau_on; before that it sources nothing (sharp switch-on,
boundary included).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import CrossingError

if TYPE_CHECKING:  # pragma: no cover
    from .dirac import DiracCoupling

# the shape parameters each kind takes; the others stay at zero
SHAPE_PARAMS = {"static": (), "uniform": ("beta",),
                "circular": ("radius", "omega", "phase0")}


@dataclass(frozen=True)
class Worldline:
    """A timelike worldline of fixed shape plus its coupling strength.

    kind is a key of SHAPE_PARAMS, and a shape parameter that kind does
    not take must keep its zero default; beta is stored as zeros when
    absent.  coupling multiplies the source term (charge for vector
    coupling, scalar charge g for rank-0, overall scale of the coupling
    spinors for spinor sources).  xi holds the spinor coupling data when
    the worldline drives a spinor field; it is ignored otherwise.
    """

    kind: str
    coupling: float
    position: np.ndarray  # spatial anchor: location, start point, or center
    t_start: float = 0.0
    tau_on: float = 0.0
    beta: np.ndarray | None = None  # uniform: velocity, |beta| < 1
    radius: float = 0.0  # circular
    omega: float = 0.0  # circular: coordinate angular velocity
    phase0: float = 0.0  # circular: angle at tau = 0
    xi: "DiracCoupling | None" = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in SHAPE_PARAMS:
            raise ValueError(f"unknown worldline kind {self.kind!r}")
        if self.kind == "uniform" and self.beta is None:
            raise ValueError("uniform worldline needs beta")
        for name in ("position", "beta"):
            vec = getattr(self, name)
            vec = np.array(np.zeros(3) if vec is None else vec, dtype=float)
            if vec.shape != (3,):
                raise ValueError(f"{name} must be a spatial 3-vector")
            object.__setattr__(self, name, vec)
        # a NaN switch-on would leave the source inactive on every slice
        for name in ("coupling", "position", "t_start", "tau_on", "beta",
                     "radius", "omega", "phase0"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        takes = SHAPE_PARAMS[self.kind]
        for name in ("beta", "radius", "omega", "phase0"):
            if name not in takes and np.any(getattr(self, name)):
                raise ValueError(f"a {self.kind} worldline takes no {name}")
        if self._speed_squared() >= 1.0:
            raise ValueError("speed must be < 1 for a timelike worldline")

    def _speed_squared(self) -> float:
        v = self.radius * self.omega
        return float(np.dot(self.beta, self.beta)) + v * v

    @cached_property
    def gamma(self) -> float:
        """du0/dtau, constant for every shape."""
        return float(1.0 / np.sqrt(1.0 - self._speed_squared()))

    @property
    def straight(self) -> bool:
        """True for static and uniform worldlines."""
        return self.kind != "circular"

    def state(self, tau) -> tuple[np.ndarray, np.ndarray]:
        """Position u(tau) and four-velocity u_dot(tau), both contravariant.

        tau is a float or an array; each result has shape tau.shape + (4,).
        """
        tau = np.asarray(tau, dtype=float)
        g = self.gamma
        phi = self.omega * g * tau + self.phase0
        cos, sin = np.cos(phi), np.sin(phi)
        r, w = self.radius, self.radius * self.omega * g
        u = np.empty(tau.shape + (4,))
        udot = np.empty(tau.shape + (4,))
        u[..., 0] = self.t_start + g * tau
        u[..., 1:] = self.position + (g * tau)[..., None] * self.beta
        u[..., 1] += r * cos
        u[..., 2] += r * sin
        udot[..., 0] = g
        udot[..., 1:] = g * self.beta
        udot[..., 1] -= w * sin
        udot[..., 2] += w * cos
        return u, udot

    def active_at(self, x0):
        """True when the equal-time slice x0 meets the active segment;
        one bool per entry for an array of slices."""
        return x0 >= self.switch_on_time()

    def switch_on_time(self) -> float:
        """Coordinate time at which the source becomes active."""
        return self.t_start + self.gamma * self.tau_on


def equal_time_crossing(worldline: Worldline, x0):
    """Proper time tau* with u0(tau*) = x0, per entry for an array x0.

    Raises CrossingError exactly when active_at(x0) is false (for any
    entry); callers that want "no contribution yet" should test
    active_at first.
    """
    if not np.all(worldline.active_at(x0)):
        raise CrossingError(
            f"x0 = {x0} precedes the worldline switch-on at "
            f"u0 = {worldline.switch_on_time()}"
        )
    # on a slice active_at admits, rounding can still put tau* a hair
    # before tau_on (x0 = switch_on_time() itself, for instance)
    return np.maximum((x0 - worldline.t_start) / worldline.gamma,
                      worldline.tau_on)


def static_worldline(position, coupling: float, t_start: float = 0.0,
                     tau_on: float = 0.0, xi=None) -> Worldline:
    return Worldline(kind="static", coupling=coupling, position=position,
                     t_start=t_start, tau_on=tau_on, xi=xi)


def uniform_worldline(position, beta, coupling: float, t_start: float = 0.0,
                      tau_on: float = 0.0, xi=None) -> Worldline:
    """Constant-velocity worldline through position (at tau = 0)."""
    return Worldline(kind="uniform", coupling=coupling, position=position,
                     beta=beta, t_start=t_start, tau_on=tau_on, xi=xi)


def circular_worldline(center, radius: float, omega: float, coupling: float,
                       phase0: float = 0.0, t_start: float = 0.0,
                       tau_on: float = 0.0, xi=None) -> Worldline:
    """Circular orbit of given radius about center in the xy-plane."""
    return Worldline(kind="circular", coupling=coupling, position=center,
                     radius=radius, omega=omega, phase0=phase0,
                     t_start=t_start, tau_on=tau_on, xi=xi)
