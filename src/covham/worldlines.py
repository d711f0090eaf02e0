"""Prescribed point-particle worldlines.

Worldlines are parameterized by proper time tau with u_dot.u_dot = 1
(factors of c live in the species constants, not here).  All supported
shapes have coordinate time linear in tau,

    u0(tau) = t_start + gamma * tau,

so the equal-time crossing u0(tau*) = x0 has the closed form
tau* = (x0 - t_start) / gamma.  A worldline is active for tau >= tau_on;
before that it sources nothing (sharp switch-on, boundary included).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import CrossingError

if TYPE_CHECKING:  # pragma: no cover
    from .dirac import DiracCoupling


@dataclass(frozen=True)
class Worldline:
    """A timelike worldline of fixed shape plus its coupling strength.

    kind is one of "static", "uniform", "circular".  coupling multiplies
    the source term (charge for vector coupling, scalar charge g for
    rank-0, overall scale of the coupling spinors for spinor sources).
    xi holds the spinor coupling data when the worldline drives a
    spinor field; it is ignored otherwise.
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
        object.__setattr__(
            self, "position", np.asarray(self.position, dtype=float).copy()
        )
        if self.position.shape != (3,):
            raise ValueError("position must be a spatial 3-vector")
        if self.kind == "uniform":
            if self.beta is None:
                raise ValueError("uniform worldline needs beta")
            beta = np.asarray(self.beta, dtype=float).copy()
            if beta.shape != (3,):
                raise ValueError("beta must be a spatial 3-vector")
            if np.linalg.norm(beta) >= 1.0:
                raise ValueError("|beta| must be < 1 for a timelike worldline")
            object.__setattr__(self, "beta", beta)
        elif self.kind == "circular":
            if abs(self.radius * self.omega) >= 1.0:
                raise ValueError(
                    "|radius * omega| must be < 1 for a timelike worldline"
                )
        elif self.kind != "static":
            raise ValueError(f"unknown worldline kind {self.kind!r}")

    @property
    def gamma(self) -> float:
        """du0/dtau, constant for all supported shapes."""
        if self.kind == "uniform":
            return 1.0 / np.sqrt(1.0 - float(np.dot(self.beta, self.beta)))
        if self.kind == "circular":
            v = self.radius * self.omega
            return 1.0 / np.sqrt(1.0 - v * v)
        return 1.0

    def state(self, tau) -> tuple[np.ndarray, np.ndarray]:
        """Position u(tau) and four-velocity u_dot(tau), both contravariant.

        tau is a float or an array; each result has shape tau.shape + (4,).
        """
        tau = np.asarray(tau, dtype=float)
        g = self.gamma
        u = np.empty(tau.shape + (4,))
        udot = np.empty(tau.shape + (4,))
        u[..., 0] = self.t_start + g * tau
        udot[..., 0] = g
        if self.kind == "static":
            u[..., 1:] = self.position
            udot[..., 1:] = 0.0
        elif self.kind == "uniform":
            u[..., 1:] = self.position + (g * tau)[..., None] * self.beta
            udot[..., 1:] = g * self.beta
        else:  # circular, in the xy-plane about position
            angle = self.omega * g * tau + self.phase0
            cos, sin = np.cos(angle), np.sin(angle)
            r = self.radius
            u[..., 1] = self.position[0] + r * cos
            u[..., 2] = self.position[1] + r * sin
            u[..., 3] = self.position[2]
            udot[..., 1] = -r * self.omega * g * sin
            udot[..., 2] = r * self.omega * g * cos
            udot[..., 3] = 0.0
        return u, udot

    def active_at(self, x0):
        """True when the equal-time slice x0 meets the active segment;
        one bool per entry for an array of slices."""
        return x0 >= self.t_start + self.gamma * self.tau_on

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
