"""Closed-form retarded fields of simple worldlines.

Independent targets for validating reconstructed mode sums; everything
here is built directly from the retarded Green function of the wave
operator, never from the mode machinery.

Covered cases:

* static or uniformly moving charge, em four-potential
  (Coulomb / Lienard-Wiechert, exact inside the causal front);
* static massive scalar source (Yukawa, steady state after the front
  has passed);
* uniformly moving massive scalar source (boosted Yukawa, steady
  state).

A sharp switch-on at proper time tau_on makes the massless fields exact
once the front from the switch-on event has passed; massive fields keep
a transient tail that decays only algebraically, so their oracles are
steady-state limits, to be compared against suitably time-averaged
reconstructions.
"""
from __future__ import annotations

import numpy as np

from .fields import FieldSpec
from .minkowski import lower_index, minkowski_dot
from .worldlines import Worldline


def _retarded_proper_time(w: Worldline, x: np.ndarray) -> float:
    """tau_r with u(tau_r) on the past light cone of x (straight lines only).

    Solves (x - u(tau))^2 = 0 for uniform or static worldlines; the
    timelike normalization makes the quadratic explicit:
    tau_r = d.udot - sqrt((d.udot)^2 - d.d) with d = x - u(0).
    """
    if not w.straight:
        raise ValueError("retarded time in closed form needs a straight line")
    u0, udot = w.state(0.0)
    d = np.asarray(x, dtype=float) - u0
    dd = minkowski_dot(d, d)
    du = minkowski_dot(d, udot)
    disc = du * du - dd
    if disc < 0.0:
        raise ValueError("point has no real retarded root (spacelike data)")
    return float(du - np.sqrt(disc))


def em_potential(w: Worldline, x: np.ndarray) -> np.ndarray:
    """Lienard-Wiechert four-potential A_nu (lower index) at x.

    Zero before the switch-on front arrives.  For a static charge this
    is A_0 = e / r.
    """
    x = np.asarray(x, dtype=float)
    tau_r = _retarded_proper_time(w, x)
    if tau_r < w.tau_on:
        return np.zeros(4)
    u, udot = w.state(tau_r)
    d = x - u
    denom = minkowski_dot(d, udot)
    return w.coupling * lower_index(udot) / denom


def scalar_yukawa(field: FieldSpec, w: Worldline, x: np.ndarray) -> complex:
    """Steady-state scalar field of a straight-line source.

    phi(x) = -(g / a2) exp(-kappa rho) / (4 pi rho) with
    rho = sqrt((d.udot)^2 - d.d) the proper distance from the line;
    zero before the massless front from the switch-on event.
    """
    x = np.asarray(x, dtype=float)
    tau_r = _retarded_proper_time(w, x)
    if tau_r < w.tau_on:
        return 0.0 + 0.0j
    u0, udot = w.state(0.0)
    d = x - u0
    du = minkowski_dot(d, udot)
    rho = float(np.sqrt(du * du - minkowski_dot(d, d)))
    if rho == 0.0:
        raise ZeroDivisionError("field point lies on the worldline")
    amp = -(w.coupling / field.a2) * np.exp(-field.kappa * rho) / (4.0 * np.pi * rho)
    return complex(amp)


def green_oracle(field: FieldSpec, worldlines: list[Worldline], x: np.ndarray):
    """Superposed closed-form field of all worldlines at x.

    Dispatches on the species: em gives the summed four-potential,
    scalar (rank 0) the summed Yukawa value.  Unsupported combinations
    raise ValueError.
    """
    x = np.asarray(x, dtype=float)
    if field.kind == "em":
        total = np.zeros(4)
        for w in worldlines:
            total = total + em_potential(w, x)
        return total
    if field.kind in ("scalar", "tensor") and field.rank == 0:
        total = 0.0 + 0.0j
        for w in worldlines:
            total = total + scalar_yukawa(field, w, x)
        return total
    raise ValueError(
        f"no closed-form oracle for species {field.kind!r} rank {field.rank}"
    )
