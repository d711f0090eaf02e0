"""Position-representation Hamiltonian density and its checks.

The covariant Hamiltonian density per species, with fields and
polymomenta stored lower-index:

* tensor rank l (complex):  theta_{mu c} = a2 d_mu conj(T)_c and
  H = (1/a2) <theta, theta> + b2 <T, T>, angle brackets contracting
  every index against the metric with the first factor conjugated;
* em (real):  theta_{mu nu} = -(1/4 pi c) d_mu A_nu = 2 a2 d_mu A_nu
  and H = -2 pi c theta.theta = theta.theta / (4 a2): the tensor
  formulas with the factor field.real_factor = 2 of a real field;
* spinor:  theta_mu = -(i s / 2) gamma_mu psi is a constraint, not a
  definition, so H carries Lagrange-multiplier terms
  H = 2 Re[chibar_mu (theta^mu + (i s / 2) gamma^mu psi)] + m c psibar psi
  that vanish identically on consistent data for any multiplier chi.

Particle interaction terms are delta-supported on the worldlines and
carry no pointwise value; densities here are the field parts, valid
away from the particles.  The momentum-representation machinery in
canonical.py handles the sourced dynamics.

polymomentum and dw_density take any leading point axes.  Both checks
read the field through reconstruct_field, the program's own mode sum:
parseval_check samples every lattice point of every slice in one call,
and position_hamilton_residual samples x in one and all 16 stencil
points in another, on any grid (a hand-built one-node grid is a single
plane wave, on shell or not).
"""
from __future__ import annotations

import numpy as np

from .dirac import GAMMA, dirac_adjoint
from .dynamics import reconstruct_field
from .errors import ScenarioError
from .fields import FieldSpec, family_pair, with_conjugate
from .minkowski import (FIVE_POINT_OFFSETS, METRIC_DIAG, five_point,
                        lower_index)
from .modes import ModeGrid, box_mode_grid


def polymomentum(field: FieldSpec, deriv: np.ndarray | None,
                 value: np.ndarray | None = None) -> np.ndarray:
    """Polymomentum theta_{mu ...} from derivatives (or value, spinor).

    deriv holds d_mu applied to the stored lower-index components,
    shape (..., 4) + component_shape, any leading axes being points.
    The spinor species ignores deriv and builds its constraint momentum
    from the field value, shape (..., 4).
    """
    comp = field.component_shape
    if field.kind == "spinor":
        if value is None:
            raise ValueError("spinor polymomentum is built from the value")
        return -0.5j * field.a2 * np.einsum(  # eta_mumu gamma^mu psi
            "m,mab,...b->...ma", METRIC_DIAG, GAMMA,
            np.asarray(value, dtype=complex))
    deriv = np.asarray(deriv)
    tail = (4,) + comp
    if deriv.shape[max(deriv.ndim - len(tail), 0):] != tail:
        raise ValueError(f"deriv shape {deriv.shape}, expected (...,) + {tail}")
    return field.real_factor * field.a2 * np.conj(deriv)


def dw_density(field: FieldSpec, value: np.ndarray, theta: np.ndarray,
               chi: np.ndarray | None = None):
    """Hamiltonian density H(x) away from the particle worldlines.

    value has shape (...,) + component_shape and theta (..., 4) +
    component_shape; any leading axes are points, and the result has
    their shape (a float for a single point).  chi is the spinor
    Lagrange multiplier (the paper's chi_mu, equal to d_mu psi on
    solutions), shaped like theta; it multiplies the constraint and
    drops out whenever theta is consistent with the value.  Other
    species ignore it.
    """
    value = np.asarray(value, dtype=complex)
    theta = np.asarray(theta, dtype=complex)
    comp = field.component_shape
    lead = value.shape[:max(value.ndim - len(comp), 0)]
    if value.shape != lead + comp or theta.shape != lead + (4,) + comp:
        raise ValueError("value/theta shapes do not match the species")
    sigma = np.asarray(field.pairing_signs(), dtype=float)
    quad = np.real(np.sum(sigma * np.conj(value) * value,
                          axis=tuple(range(-len(comp), 0))))
    if field.kind == "spinor":
        density = field.b2 * quad
        if chi is not None:
            chi = np.asarray(chi, dtype=complex)
            gap = theta - polymomentum(field, None, value)
            cterm = np.einsum("m,...ma,...ma->...", METRIC_DIAG,
                              dirac_adjoint(chi), gap)
            density = density + 2.0 * np.real(cterm)
    else:
        # eta^{mu mu} sigma_c raises every index of theta
        signs = np.multiply.outer(METRIC_DIAG, sigma)
        pair = np.real(np.sum(signs * np.conj(theta) * theta,
                              axis=tuple(range(-1 - len(comp), 0))))
        density = pair / (field.real_factor**2 * field.a2) + field.b2 * quad
    return float(density) if not lead else density


def _value_theta(field: FieldSpec, grid: ModeGrid, coeff_plus, coeff_minus,
                 x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(value, theta) at the points x (..., 4) of the mode sum of
    coeff_plus / coeff_minus (N,) + component_shape (minus None for em)
    on grid, in one reconstruct_field call."""
    # per mode and family: the value row and the four d_mu rows,
    # d_mu e^{-ik.x} = -i k_mu e^{-ik.x} (conjugated for minus)
    n, comp = len(grid), field.component_shape
    rows = np.concatenate([np.ones((n, 1)), -1j * lower_index(grid.k)],
                          axis=1).reshape((n, 5) + (1,) * len(comp))
    coeffs = [r * np.asarray(c)[:, None] for r, c in zip(
        with_conjugate(rows),
        field.families(coeff_plus, coeff_minus, "coefficient"))]
    sampled = reconstruct_field(field, grid, *family_pair(coeffs), x)
    points = (slice(None),) * (np.ndim(x) - 1)
    value, deriv = sampled[points + (0,)], sampled[points + (slice(1, None),)]
    return value, polymomentum(field, deriv, value)


def position_hamilton_residual(field: FieldSpec, grid: ModeGrid, coeff_plus,
                               coeff_minus, x: np.ndarray,
                               h: float = 1e-3) -> tuple[float, float]:
    """Defects of the position-space Hamilton equations at x.

    The field is the mode sum of coeff_plus / coeff_minus (N,) +
    component_shape (minus None for em) on grid, sampled by
    reconstruct_field: one call at x, one on all 16 stencil points.  For
    the second-order species:

        r1 = max |d_mu value - dH/dtheta^mu| / (1 + max |dH/dtheta|)
        r2 = max |d^mu theta_mu + dH/dvalue| / (|a2| (1 + max |value|))

    with minkowski.five_point stencils for the derivatives.  The
    spinor r1 is the (FD-free) constraint defect and r2 the residual of
    the Dirac equation i a2 gamma^mu d_mu psi = b2 psi.  Off-shell data
    make r2 grow like |k.k - kappa^2|, so the check detects wrong
    dynamics rather than merely measuring stencil noise.
    """
    value0, theta0 = _value_theta(field, grid, coeff_plus, coeff_minus, x)
    # points[o, mu]: x shifted by o h along axis mu
    points = x + h * FIVE_POINT_OFFSETS[:, None, None] * np.eye(4)
    # d_mu value and d_mu theta_nu, mu leading
    dvalue, dtheta = (five_point(v, h) for v in _value_theta(
        field, grid, coeff_plus, coeff_minus, points))
    div_theta = np.einsum("m,mm...->...", METRIC_DIAG, dtheta)

    norm = abs(field.a2) * (1.0 + float(np.max(np.abs(value0))))
    if field.kind == "spinor":
        gap = theta0 - polymomentum(field, None, value0)
        slash_d = np.einsum("mab,mb->a", GAMMA, dvalue)
        defect = 1j * field.a2 * slash_d - field.b2 * value0
        return (float(np.max(np.abs(gap))) / norm,
                float(np.max(np.abs(defect))) / norm)
    rhs1 = np.conj(theta0) / (field.real_factor * field.a2)
    defect2 = div_theta + field.b2 * np.conj(value0)
    r1 = float(np.max(np.abs(dvalue - rhs1))) / (
        1.0 + float(np.max(np.abs(rhs1))))
    return r1, float(np.max(np.abs(defect2))) / norm


def parseval_check(field: FieldSpec, box_length: float, entries,
                   x0_span: tuple[float, float] = (0.0, 1.0),
                   n_x: int | None = None, n_t: int = 4) -> float:
    """Space-time integral of H against the mode-sum of H~_free.

    entries is a list of (n, C_plus, C_minus) with n an integer triple;
    the field is the free superposition of the corresponding periodic
    box modes.  Over one spatial period and any x0 interval

        int d^4x H  =  sum_k w_k int dx0 (b2/k0)(|C+|^2 + |C-|^2),

    exactly, provided no mode is paired with its spatial opposite
    (cross terms between k and -k survive the box integral).  Returns
    |lhs - rhs| / |rhs| (absolute difference when the reference is 0).
    n_t, and n_x when given, must be integers >= 1 (ValueError).
    """
    for name, count in (("n_t", n_t), ("n_x", 1 if n_x is None else n_x)):
        if not isinstance(count, (int, np.integer)) or count < 1:
            raise ValueError(f"{name} must be an integer >= 1, got "
                             f"{count!r}")
    if not field.has_parseval_identity:
        raise ScenarioError(
            "parseval check covers the second-order complex species, "
            f"not {field.kind}")
    if not entries:
        return 0.0
    n_list = []
    for n, _, _ in entries:
        trip = tuple(int(v) for v in np.asarray(n).tolist())
        neg = tuple(-v for v in trip)
        if np.any(np.asarray(n, dtype=float) != np.asarray(trip, dtype=float)):
            raise ScenarioError(f"box mode {n} is not commensurate")
        if trip == (0, 0, 0):
            raise ScenarioError(
                "the k=0 box mode breaks the cross-term cancellation")
        if trip in n_list:
            raise ScenarioError(f"duplicate box mode {trip}")
        if neg in n_list:
            raise ScenarioError(
                f"box modes {trip} and {neg} are spatial opposites; "
                "their cross terms do not integrate to zero")
        n_list.append(trip)
    grid = box_mode_grid(box_length, n_list, field.kappa)

    comp = field.component_shape
    amps = [np.asarray(a, dtype=complex) for _, cp, cm in entries
            for a in (cp, cm)]
    if any(a.shape != comp for a in amps):
        raise ScenarioError(f"mode coefficients must have shape {comp}")
    c_plus, c_minus = np.asarray(amps[0::2]), np.asarray(amps[1::2])

    sigma_flat = np.asarray(field.pairing_signs(), dtype=float).reshape(-1)
    rhs_rate = float(np.sum(grid.weight * (field.b2 / grid.k0) * (
        (np.abs(c_plus.reshape(len(grid), -1))**2 @ sigma_flat)
        + (np.abs(c_minus.reshape(len(grid), -1))**2 @ sigma_flat))))
    span = x0_span[1] - x0_span[0]
    rhs = rhs_rate * span

    max_n = max(max(abs(v) for v in trip) for trip in n_list)
    if n_x is None:
        n_x = 4 * max_n + 1  # resolves every frequency present in H
    axis = (np.arange(n_x) + 0.5) * (box_length / n_x)
    cell = (box_length / n_x) ** 3
    t_samples = x0_span[0] + (np.arange(n_t) + 0.5) * (span / n_t)
    dt = span / n_t

    points = np.stack(np.meshgrid(t_samples, axis, axis, axis,
                                  indexing="ij"), axis=-1).reshape(-1, 4)
    density = dw_density(field, *_value_theta(field, grid, c_plus, c_minus,
                                              points))
    lhs = float(np.sum(density)) * cell * dt

    if rhs == 0.0:
        return abs(lhs - rhs)
    return abs(lhs - rhs) / abs(rhs)
