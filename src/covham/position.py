"""Position-representation Hamiltonian density and its checks.

The covariant Hamiltonian density per species, with fields and
polymomenta stored lower-index:

* tensor rank l (complex):  theta_{mu c} = a2 d_mu conj(T)_c and
  H = (1/a2) <theta, theta> + b2 <T, T>, angle brackets contracting
  every index against the metric with the first factor conjugated;
* em (real):  theta_{mu nu} = -(1/4 pi c) d_mu A_nu = 2 a2 d_mu A_nu
  and H = -2 pi c theta.theta;
* spinor:  theta_mu = -(i s / 2) gamma_mu psi is a constraint, not a
  definition, so H carries Lagrange-multiplier terms
  H = 2 Re[chibar_mu (theta^mu + (i s / 2) gamma^mu psi)] + m c psibar psi
  that vanish identically on consistent data for any multiplier chi.

Particle interaction terms are delta-supported on the worldlines and
carry no pointwise value; densities here are the field parts, valid
away from the particles.  The momentum-representation machinery in
canonical.py handles the sourced dynamics.
"""
from __future__ import annotations

import numpy as np

from .dirac import GAMMA, dirac_adjoint
from .errors import ScenarioError
from .fields import FieldSpec
from .minkowski import METRIC_DIAG, lower_index, minkowski_dot
from .modes import box_mode_grid
from .worldlines import Worldline, equal_time_crossing


def polymomentum(field: FieldSpec, deriv: np.ndarray | None,
                 value: np.ndarray | None = None) -> np.ndarray:
    """Polymomentum theta_{mu ...} from derivatives (or value, spinor).

    deriv holds d_mu applied to the stored lower-index components,
    shape (4,) + component_shape.  The spinor species ignores deriv and
    builds its constraint momentum from the field value.
    """
    comp = field.component_shape
    if field.kind == "spinor":
        if value is None:
            raise ValueError("spinor polymomentum is built from the value")
        value = np.asarray(value, dtype=complex)
        out = np.empty((4,) + comp, dtype=complex)
        for mu in range(4):
            out[mu] = -0.5j * field.a2 * METRIC_DIAG[mu] * (GAMMA[mu] @ value)
        return out
    deriv = np.asarray(deriv)
    if deriv.shape != (4,) + comp:
        raise ValueError(f"deriv shape {deriv.shape}, expected {(4,) + comp}")
    if field.kind == "em":
        return 2.0 * field.a2 * deriv
    return field.a2 * np.conj(deriv)


def _metric_pair_signs(field: FieldSpec) -> np.ndarray:
    """Sign tensor eta^{mu mu} sigma_c for (4,) + component arrays."""
    sigma = field.pairing_signs()
    return np.multiply.outer(np.asarray(METRIC_DIAG, dtype=float),
                             np.asarray(sigma, dtype=float))


def dw_density(field: FieldSpec, value: np.ndarray, theta: np.ndarray,
               chi: np.ndarray | None = None) -> float:
    """Hamiltonian density H(x) away from the particle worldlines.

    chi is the spinor Lagrange multiplier (the paper's chi_mu, equal to
    d_mu psi on solutions); it multiplies the constraint and drops out
    whenever theta is consistent with the value.  Other species ignore
    it.
    """
    value = np.asarray(value, dtype=complex)
    theta = np.asarray(theta, dtype=complex)
    comp = field.component_shape
    if value.shape != comp or theta.shape != (4,) + comp:
        raise ValueError("value/theta shapes do not match the species")
    if field.kind == "spinor":
        density = field.b2 * float(np.real(np.sum(dirac_adjoint(value)
                                                  * value)))
        if chi is not None:
            chi = np.asarray(chi, dtype=complex)
            cterm = 0.0 + 0.0j
            for mu in range(4):
                gap = theta[mu] + 0.5j * field.a2 * METRIC_DIAG[mu] * (
                    GAMMA[mu] @ value)
                cterm += METRIC_DIAG[mu] * np.sum(
                    dirac_adjoint(chi[mu]) * gap)
            density += 2.0 * float(np.real(cterm))
        return density
    signs = _metric_pair_signs(field)
    pair = float(np.real(np.sum(signs * np.conj(theta) * theta)))
    if field.kind == "em":
        c_light = -1.0 / (8.0 * np.pi * field.a2)
        return -2.0 * np.pi * c_light * pair
    sigma = np.asarray(field.pairing_signs(), dtype=float)
    quad = float(np.real(np.sum(sigma * np.conj(value) * value)))
    return pair / field.a2 + field.b2 * quad


def plane_wave(field: FieldSpec, k: np.ndarray, coeff_plus,
               coeff_minus=None):
    """Sampler x -> (value, theta) for a single plane-wave mode.

    Complex species: T = C+ exp(-i k.x) + C- exp(+i k.x); em builds the
    real field C exp(-i k.x) + c.c.; spinor uses both families with the
    constraint momentum.  k need not be on shell, which makes off-shell
    waves available as negative controls.
    """
    k = np.asarray(k, dtype=float)
    k_low = lower_index(k)
    comp = field.component_shape
    c_plus = np.asarray(coeff_plus, dtype=complex)
    if c_plus.shape != comp:
        raise ValueError(f"coeff_plus shape {c_plus.shape}, expected {comp}")
    if field.kind == "em":
        if coeff_minus is not None:
            raise ValueError("em plane wave is C exp(-i k.x) + c.c.")
        c_minus = np.conj(c_plus)
    else:
        if coeff_minus is None:
            raise ValueError("complex species need both coefficients")
        c_minus = np.asarray(coeff_minus, dtype=complex)
        if c_minus.shape != comp:
            raise ValueError(
                f"coeff_minus shape {c_minus.shape}, expected {comp}")

    comp_ones = (1,) * len(comp)
    k_col = k_low.reshape((4,) + comp_ones)

    def sampler(x):
        phase = np.exp(-1j * minkowski_dot(k, np.asarray(x, dtype=float)))
        value = c_plus * phase + c_minus * np.conj(phase)
        deriv = (-1j * k_col * c_plus * phase
                 + 1j * k_col * c_minus * np.conj(phase))
        if field.kind == "em":
            value = np.real(value) + 0.0j
            deriv = np.real(deriv) + 0.0j
        theta = polymomentum(field, deriv, value)
        return value, theta

    return sampler


def position_hamilton_residual(field: FieldSpec, sampler, x: np.ndarray,
                               h: float = 1e-3) -> tuple[float, float]:
    """Defects of the position-space Hamilton equations at x.

    sampler(x) -> (value, theta).  For the second-order species:

        r1 = max |d_mu value - dH/dtheta^mu| / (1 + max |dH/dtheta|)
        r2 = max |d^mu theta_mu + dH/dvalue| / (|a2| (1 + max |value|))

    with fourth-order five-point stencils for the derivatives.  The
    spinor r1 is the (FD-free) constraint defect and r2 the residual of
    the Dirac equation i a2 gamma^mu d_mu psi = b2 psi.  Off-shell data
    make r2 grow like |k.k - kappa^2|, so the check detects wrong
    dynamics rather than merely measuring stencil noise.
    """
    x = np.asarray(x, dtype=float)
    value0, theta0 = sampler(x)
    value0 = np.asarray(value0, dtype=complex)
    theta0 = np.asarray(theta0, dtype=complex)
    coeffs = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
    offsets = (-2, -1, 1, 2)

    dvalue = np.empty_like(theta0)
    div_theta = np.zeros_like(value0)
    for mu in range(4):
        vs = []
        ts = []
        for off in offsets:
            shifted = x.copy()
            shifted[mu] += off * h
            v, t = sampler(shifted)
            vs.append(np.asarray(v, dtype=complex))
            ts.append(np.asarray(t, dtype=complex)[mu])
        dvalue[mu] = sum(c * v for c, v in zip(coeffs, vs)) / h
        div_theta += METRIC_DIAG[mu] * sum(
            c * t for c, t in zip(coeffs, ts)) / h

    scale_v = float(np.max(np.abs(value0)))
    if field.kind == "spinor":
        gap = np.empty_like(theta0)
        for mu in range(4):
            gap[mu] = theta0[mu] + 0.5j * field.a2 * METRIC_DIAG[mu] * (
                GAMMA[mu] @ value0)
        r1 = float(np.max(np.abs(gap))) / (abs(field.a2) * (1.0 + scale_v))
        slash_d = sum(GAMMA[mu] @ dvalue[mu] for mu in range(4))
        defect = 1j * field.a2 * slash_d - field.b2 * value0
        r2 = float(np.max(np.abs(defect))) / (abs(field.a2)
                                              * (1.0 + scale_v))
        return r1, r2
    if field.kind == "em":
        rhs1 = theta0 / (2.0 * field.a2)
        defect2 = div_theta
    else:
        rhs1 = np.conj(theta0) / field.a2
        defect2 = div_theta + field.b2 * np.conj(value0)
    r1 = float(np.max(np.abs(dvalue - rhs1))) / (
        1.0 + float(np.max(np.abs(rhs1))))
    r2 = float(np.max(np.abs(defect2))) / (abs(field.a2) * (1.0 + scale_v))
    return r1, r2


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
    """
    if field.kind == "em":
        raise ScenarioError(
            "em parseval reference is identically zero on shell; "
            "the identity carries no content for this species")
    if field.kind == "spinor":
        raise ScenarioError(
            "parseval check covers the second-order tensor species")
    if not entries:
        return 0.0
    n_list = []
    for n, _, _ in entries:
        trip = tuple(int(v) for v in np.asarray(n).tolist())
        if np.any(np.asarray(n, dtype=float) != np.asarray(trip, dtype=float)):
            raise ScenarioError(f"box mode {n} is not commensurate")
        if trip == (0, 0, 0):
            raise ScenarioError(
                "the k=0 box mode breaks the cross-term cancellation")
        n_list.append(trip)
    seen = set()
    for trip in n_list:
        if trip in seen:
            raise ScenarioError(f"duplicate box mode {trip}")
        neg = (-trip[0], -trip[1], -trip[2])
        if neg in seen:
            raise ScenarioError(
                f"box modes {trip} and {neg} are spatial opposites; "
                "their cross terms do not integrate to zero")
        seen.add(trip)
    grid = box_mode_grid(box_length, n_list, field.kappa)

    comp = field.component_shape
    c_plus = np.empty((len(grid),) + comp, dtype=complex)
    c_minus = np.empty_like(c_plus)
    for i, (_, cp, cm) in enumerate(entries):
        cp = np.asarray(cp, dtype=complex)
        cm = np.asarray(cm, dtype=complex)
        if cp.shape != comp or cm.shape != comp:
            raise ScenarioError(f"mode coefficients must have shape {comp}")
        c_plus[i] = cp
        c_minus[i] = cm

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

    # per mode and family: the value row and the four d_mu rows, so one
    # (points, modes) phase matrix per slice gives value and derivatives
    n = len(grid)
    rows = grid.weight[:, None] * np.concatenate(
        [np.ones((n, 1)), -1j * lower_index(grid.k)], axis=1)
    coef_plus, coef_minus = (
        np.einsum("nr,nc->nrc", r, c.reshape(n, -1)).reshape(n, -1)
        for r, c in ((rows, c_plus), (np.conj(rows), c_minus)))
    points = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                      axis=-1).reshape(-1, 3)
    spatial = np.exp(1j * points @ grid.k_spatial.T)
    lhs = 0.0
    for t in t_samples:
        phase = np.exp(-1j * t * grid.k0) * spatial  # exp(-i k.x)
        sampled = (phase @ coef_plus + np.conj(phase) @ coef_minus).reshape(
            (len(points), 5) + comp)
        slice_sum = 0.0
        for f in sampled:
            slice_sum += dw_density(field, f[0], polymomentum(field, f[1:]))
        lhs += slice_sum * cell * dt

    if rhs == 0.0:
        return abs(lhs - rhs)
    return abs(lhs - rhs) / abs(rhs)


def density_on_worldline(worldlines: list[Worldline], x: np.ndarray,
                         tol: float = 1e-9) -> bool:
    """True when x coincides with an active particle (density singular)."""
    x = np.asarray(x, dtype=float)
    for w in worldlines or []:
        if not w.active_at(x[0]):
            continue
        tau = equal_time_crossing(w, x[0])
        u, _ = w.state(tau)
        if np.max(np.abs(u[1:] - x[1:])) <= tol:
            return True
    return False
