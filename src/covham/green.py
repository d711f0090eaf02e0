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
from .worldlines import Worldline, equal_time_crossing


def _retarded_separation(w: Worldline, x: np.ndarray):
    """(tau_r, d, udot) for the point u(tau_r) of a straight line on the
    past light cone of x: d = x - u(tau_r), udot the line's velocity.

    Anchored at the crossing u(tau*) of x's slice (on a slice before the
    switch-on, the switch-on state), with u^0 = x^0 exactly, as
    dynamics._crossings takes it: with a = x - u(tau*) the timelike
    normalization makes (a + lag udot)^2 = 0 explicit in lag = tau* -
    tau_r, lag = sqrt((a.udot)^2 - a.a) - a.udot, and d = a + lag udot.
    An anchor far along the line, such as u(0), would cancel the digits
    of (d.udot)^2 - d.d.
    """
    if not w.straight:
        raise ValueError("retarded time in closed form needs a straight line")
    x = np.asarray(x, dtype=float)
    on = max(x[0], w.switch_on_time())
    tau = equal_time_crossing(w, on)
    u, udot = w.state(tau)
    u[0] = on  # exact, where t_start + gamma tau rounds
    a = x - u
    au = minkowski_dot(a, udot)
    lag = np.sqrt(au * au - minkowski_dot(a, a)) - au
    return float(tau - lag), a + lag * udot, udot


def em_potential(w: Worldline, x: np.ndarray) -> np.ndarray:
    """Lienard-Wiechert four-potential A_nu (lower index) at x.

    Zero before the switch-on front arrives.  For a static charge this
    is A_0 = e / r.
    """
    tau_r, d, udot = _retarded_separation(w, x)
    if tau_r < w.tau_on:
        return np.zeros(4)
    return w.coupling * lower_index(udot) / minkowski_dot(d, udot)


def scalar_yukawa(field: FieldSpec, w: Worldline, x: np.ndarray) -> complex:
    """Steady-state scalar field of a straight-line source.

    phi(x) = -(g / a2) exp(-kappa rho) / (4 pi rho) with rho = d.udot
    the proper distance from the line, d the retarded separation; zero
    before the massless front from the switch-on event.
    """
    tau_r, d, udot = _retarded_separation(w, x)
    if tau_r < w.tau_on:
        return 0.0 + 0.0j
    rho = float(minkowski_dot(d, udot))
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
