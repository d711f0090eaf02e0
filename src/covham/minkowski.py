"""Minkowski kinematics with signature (+, -, -, -).

Conventions used throughout the package:

* Four-vectors are length-4 numpy arrays holding contravariant
  components (x^0, x^1, x^2, x^3).
* Lowering an index flips the sign of the spatial entries; with a
  diagonal metric that is all there is to it.
* The positive-energy mass shell fixes k^0 = +sqrt(|k|^2 + kappa^2).
"""
from __future__ import annotations

import numpy as np

from .errors import ZeroModeError

# diag(eta) for signature (+,-,-,-)
METRIC_DIAG = np.array([1.0, -1.0, -1.0, -1.0])

# sample offsets, in units of the spacing h, of the five-point stencil
FIVE_POINT_OFFSETS = np.array([-2, -1, 1, 2])


def five_point(samples, h: float):
    """Fourth-order central first derivative from stacked samples.

    samples holds f(x + o h) for o in FIVE_POINT_OFFSETS on axis 0, with
    any trailing axes; the result has the trailing shape.  The
    derivative checks of the J gradients and of the Hamilton equations
    in both representations use it; the mode equation takes the same
    stencil on four shifted views of a history, with no stacked copy.
    """
    return np.tensordot(np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h),
                        samples, axes=1)


def minkowski_dot(a, b):
    """Lorentz-invariant product a.b = a^0 b^0 - a_spatial . b_spatial.

    Bilinear, not sesquitlinear: complex inputs are multiplied without
    conjugation.  Accepts stacked vectors with the Lorentz index on the
    last axis and broadcasts like numpy.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    return (METRIC_DIAG * a * b).sum(axis=-1)


def lower_index(v):
    """Covariant components of a contravariant vector (and vice versa)."""
    return METRIC_DIAG * np.asarray(v)


def mass_shell_energy(k_spatial, kappa: float):
    """Positive shell energy sqrt(|k|^2 + kappa^2).

    Accepts a single spatial vector (3,) or a stack (..., 3).  Raises
    ZeroModeError if any entry has kappa = 0 and k = 0, where the shell
    touches the light-cone tip and 1/(2 k0) is meaningless.
    """
    k_spatial = np.asarray(k_spatial, dtype=float)
    return _positive_shell(
        np.sqrt(np.sum(k_spatial**2, axis=-1) + float(kappa) ** 2))


def _positive_shell(k0):
    """k0, or ZeroModeError if any entry is the massless zero mode."""
    if np.any(k0 == 0.0):
        raise ZeroModeError(
            "k0 = 0 encountered: massless zero mode (kappa = 0, k = 0) "
            "is not on the positive-energy shell"
        )
    return k0


def on_shell_k(k_spatial, kappa: float) -> np.ndarray:
    """Contravariant on-shell wave four-vector(s) for given spatial k."""
    k_spatial = np.asarray(k_spatial, dtype=float)
    k0 = mass_shell_energy(k_spatial, kappa)
    return np.concatenate([np.asarray(k0)[..., None], k_spatial], axis=-1)


def component_signs(rank: int) -> np.ndarray:
    """Sign tensor sigma with shape (4,)*rank, sigma[nu1..nur] = prod eta[nui].

    Raising every index of a rank-r tensor multiplies each component by
    this sign; it is what full contractions against the metric reduce to.
    rank = 0 gives the scalar 1.0.
    """
    if rank < 0:
        raise ValueError("rank must be >= 0")
    sigma = np.array(1.0)
    for _ in range(rank):
        sigma = np.multiply.outer(sigma, METRIC_DIAG)
    return sigma
