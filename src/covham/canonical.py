"""Covariant canonical mode variables and the momentum-space Hamiltonian.

Per on-shell mode k, the complex amplitude pair T~_pm is traded for real
canonical variables through a fixed complex gauge constant z:

    w_+ = z T~_+            w_- = z* T~_-
    pi_pm_{mu c} = 2 eps k_mu Re w_pm_c
    q_+_c = -2 eps Im w_+_c          q_-_c = +2 eps Im w_-_c

with component label c (tensor multi-index or spinor index) and a
species normalization eps fixed by matching the momentum-space
Hamiltonian J to the spacetime integral of the de Donder-Weyl density:

    tensor / scalar    eps^2 = a2 / (2 k0 |z|^2)
    spinor             eps^2 = a2 / (4 k0 kappa |z|^2)
    em (real field)    eps^2 = -a2 / k0      (z enters as a pure phase)

The em field has a single family, w_nu = (z*/|z|) A~_nu, with
q_nu = +2 eps Im w_nu, pi_{mu nu} = 2 eps k_mu Re w_nu.  These
per-branch factors g_b, signs s_b (Im w_b = s_b q_b / (2 eps)) and
eps come from the species table (fields.FieldSpec), as do the em
free-part sign and coupling strength, so only the spinor's first-order
coupling row and mode_hamiltonian test the species here.

J as a phase-space function uses the off-shell extension
Re w_c = pi_{0 c} / (2 eps k0): interaction terms are linear in the
amplitudes and source only the time row of the Hamilton equations,
which the k-collinear structure of pi would otherwise violate.  With
this extension the covariant Hamilton equations

    d_mu q_c = dJ/dpi^{mu c}         d^mu pi_{mu c} = -dJ/dq^c

hold exactly along sourced evolutions; gradients are taken with all
indices raised (metric signs on mu and tensor components, Dirac-adjoint
signs (1, 1, -1, -1) on spinor components).

The sources active on the slice (dynamics.source_terms) enter the
canonical J through one complex coupling row per branch,

    J_int = Re sum_c A_b,c w_b,c,

each source adding its current times exp(i k.(x - u)) and a gauge
factor.  Since Re w_c = pi_{0 c} / (2 eps k0) and Im w_c = s_b q_c /
(2 eps), the same row gives the interaction gradients

    dJ/dpi^{0 c} = sigma_c Re A_b,c / (2 eps k0)
    dJ/dq^c      = -s_b sigma_c Im A_b,c / (2 eps)

mode_hamiltonian, the amplitude form written out per species, is the
independent reference the canonical value is checked against; it and
hamilton_residual take one k.  The rest also take stacked k (..., 4),
one per leading entry of the amplitudes or rows, each mode scaled alone.

The canonical state of a mode or a stack is one array of rows,
(..., branches, 5, components), the components flat in
brackets.StateLayout's C order: per branch (plus, then minus; em keeps
plus only) row 0 holds q_c and row 1 + mu holds pi_{mu c}, lower-index
as stored.  So q, pi, pi_0 and one branch are the fixed views [..., 0,
:], [..., 1:, :], [..., 1, :] and [..., b, :] at every rank; only
to_canonical and from_canonical see the component shape.  The rows keep
no field and no wave vector: every function that takes rows also takes
both, and rejects rows whose trailing shape is not the field's.

The constants of one (field, gauge z) are built once and kept: g_b, s_b
and 2 s_b, sigma_c, row_signs, the free gradient factor of each row and
1 / g_plus.  Each call writes and reads its rows in place, one code path
for one mode and for a stack, so a one-mode call pays for little more
than its arithmetic.  gradient_consistency evaluates J on the probes of
every stored entry and applies one five_point stencil to all of them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dirac import dirac_adjoint, slash
from .dynamics import source_terms
from .errors import CanonicalStructureError
from .fields import FieldSpec, contract_full, family_pair, with_conjugate
from .minkowski import (FIVE_POINT_OFFSETS, METRIC_DIAG, five_point,
                        lower_index, minkowski_dot)
from .worldlines import Worldline


@dataclass(frozen=True)
class CanonicalGauge:
    """The arbitrary complex constant z entering the variable split."""

    z: complex = 2**-0.5 + 0j

    def __post_init__(self):
        if self.z == 0:
            raise ValueError("gauge constant z must be nonzero")


DEFAULT_GAUGE = CanonicalGauge()

# relative bound on pi's departure from k pi_0 / k0 in from_canonical
COLLINEAR_TOL = 1e-10


def row_signs(field: FieldSpec) -> np.ndarray:
    """Index-raising signs of the rows, (5, components): sigma_c on q and
    eta_mumu sigma_c on pi_mu, the [1, eta] (x) sigma rule."""
    return np.multiply.outer(np.concatenate([[1.0], METRIC_DIAG]),
                             field.pairing_signs().reshape(-1))


@dataclass(frozen=True)
class _Constants:
    """What the canonical map needs of one (field, gauge z), built once.

    Arrays are read-only and shaped against w (..., branches, components)
    or rows (..., branches, 5, components).
    """

    field: FieldSpec
    z: complex
    g: np.ndarray            # g_b, (branches, 1)
    q_signs: np.ndarray      # s_b, (branches, 1)
    two_q_signs: np.ndarray  # 2 s_b
    sigma: np.ndarray        # sigma_c, (components,)
    q_sigma: np.ndarray      # s_b sigma_c, (branches, components)
    row_signs: np.ndarray    # row_signs(field), (5, components)
    free_rows: np.ndarray    # free gradient factor per row, (5, 1)
    zeta: complex            # 1 / g_plus, the coupling rows' gauge factor


@lru_cache(maxsize=64)
def _constants(field: FieldSpec, z: complex) -> _Constants:
    q_signs = np.reshape(field.q_signs, (-1, 1))
    sigma = field.pairing_signs().reshape(-1)
    free = field.free_sign * np.concatenate([[field.kappa**2], np.ones(4)])
    arrays = {"g": np.reshape(field.gauge_factors(z), (-1, 1)),
              "q_signs": q_signs, "two_q_signs": q_signs * 2.0,
              "sigma": sigma, "q_sigma": q_signs * sigma,
              "row_signs": row_signs(field), "free_rows": free[:, None]}
    for a in arrays.values():
        a.setflags(write=False)
    return _Constants(field=field, z=z, **arrays,
                      zeta=1.0 / field.gauge_factors(z)[0])


def _mode_scales(c: _Constants, k: np.ndarray):
    """eps and k0 of each wave vector of k (..., 4) against w (...,
    branches, components), its lowered k_mu against pi (..., branches, 4,
    components)."""
    k0 = k[..., 0, None, None]
    return (c.field.epsilon(k0, c.z), k0, lower_index(k)[..., None, :, None])


def to_canonical(
    field: FieldSpec,
    k: np.ndarray,
    amp_plus: np.ndarray,
    amp_minus: np.ndarray | None,
    gauge: CanonicalGauge = DEFAULT_GAUGE,
) -> np.ndarray:
    """Canonical rows from amplitude values T~_pm at one point.

    amp_plus / amp_minus are the full amplitudes including their plane
    wave phases; passing the bare coefficients C_pm corresponds to the
    point x = 0.  For the em species amp_plus holds A~ and amp_minus
    must be None.  Leading amplitude axes stay leading axes of the rows;
    both families must share one shape, and stacked k (..., 4) must
    broadcast against the leading axes.
    """
    c = _constants(field, gauge.z)
    k = np.asarray(k, dtype=float)
    eps, _, k_mu = _mode_scales(c, k)
    comp = field.component_shape
    amp_plus = np.asarray(amp_plus, dtype=complex)
    lead = amp_plus.shape[:amp_plus.ndim - len(comp)]
    if amp_plus.shape[len(lead):] != comp:
        raise ValueError(f"amp_plus shape {amp_plus.shape}, expected {comp}")
    w = np.empty(lead + c.q_sigma.shape, dtype=complex)  # (branches, comps)
    for b, amp in enumerate(field.families(amp_plus, amp_minus)):
        if np.shape(amp) != amp_plus.shape:
            raise ValueError(f"amp_minus shape {np.shape(amp)}, expected "
                             f"the shape of amp_plus {amp_plus.shape}")
        w[..., b, :].reshape(amp_plus.shape)[...] = amp  # a view of w
    np.multiply(c.g, w, out=w)  # w_b = g_b T~_b
    q = c.two_q_signs * eps * w.imag
    rows = np.empty(q.shape[:-1] + (5,) + q.shape[-1:])
    rows[..., 0, :] = q
    np.multiply(2.0 * eps[..., None, :] * k_mu, w.real[..., None, :],
                out=rows[..., 1:, :])
    return rows


def _check_rows(field: FieldSpec, rows: np.ndarray) -> None:
    """Raise ValueError unless rows end in the field's (branches, 5,
    components)."""
    want = (len(field.branches), 5, field.n_components)
    if np.shape(rows)[-3:] != want:
        raise ValueError(f"rows shape {np.shape(rows)}, expected "
                         f"(..., {', '.join(map(str, want))})")


def _check_collinear(rows: np.ndarray, k0, k_mu) -> None:
    """Each (mode, branch)'s pi rows against k pi_0 / k0, scaled by its
    own 1 + max |pi|; non-finite rows fail too."""
    pi = rows[..., 1:, :]
    model = k_mu * rows[..., 1:2, :] / k0[..., None, :]
    defect = np.abs(pi - model).max(axis=(-2, -1))
    scale = 1.0 + np.abs(pi).max(axis=(-2, -1))
    if not ((defect <= COLLINEAR_TOL * scale).all()
            and np.isfinite(rows).all()):
        raise CanonicalStructureError(
            f"pi is not collinear with k (defect {np.max(defect):.3e}); "
            "not the canonical image of an on-shell mode"
        )


def _w_values(c: _Constants, rows: np.ndarray, eps: np.ndarray,
              k0: np.ndarray) -> np.ndarray:
    """Complex w, (..., branches, components), via the pi_0 extension
    (exact on-shell); eps and k0 as _mode_scales shapes them."""
    return (rows[..., 1, :] / (2.0 * eps * k0)
            + 1j * (c.q_signs * rows[..., 0, :] / (2.0 * eps)))


def from_canonical(
    field: FieldSpec,
    k: np.ndarray,
    rows: np.ndarray,
    gauge: CanonicalGauge = DEFAULT_GAUGE,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Amplitudes T~_pm back from canonical variables.

    Raises CanonicalStructureError when any pi row fails to be
    proportional to k, which no on-shell mode can produce, or when a row
    is not finite; the bound, COLLINEAR_TOL, scales with each mode's own
    pi.
    """
    _check_rows(field, rows)
    c = _constants(field, gauge.z)
    eps, k0, k_mu = _mode_scales(c, np.asarray(k, dtype=float))
    _check_collinear(rows, k0, k_mu)
    amps = _w_values(c, rows, eps, k0) / c.g
    shape = amps.shape[:-2] + field.component_shape
    return family_pair([amps[..., b, :].reshape(shape)
                        for b in range(len(field.branches))])


def mode_hamiltonian(
    field: FieldSpec,
    k: np.ndarray,
    amp_plus: np.ndarray,
    amp_minus: np.ndarray | None,
    x0: float,
    worldlines: list[Worldline] | None = None,
) -> float:
    """Momentum-space Hamiltonian J of one mode, amplitude form.

    Amplitudes are the coefficients C_pm on the slice x0 (their plane
    wave phases carry no content here: J is evaluated on-shell, where
    interaction phases collapse to exp(-i k.u(tau*))).  The value is
    manifestly independent of the canonical gauge.
    """
    k = np.asarray(k, dtype=float)
    amp_plus = np.asarray(amp_plus, dtype=complex)
    k0 = k[0]
    sources = source_terms(field, worldlines, x0)

    if field.kind == "em":
        if amp_minus is not None:
            raise ValueError("em species carries a single amplitude family")
        c_light = -1.0 / (8.0 * np.pi * field.a2)
        k2 = minkowski_dot(k, k)
        value = (-k2 / (4.0 * np.pi * c_light * k0)) * float(
            np.real(contract_full(amp_plus, amp_plus)))
        for w, u, udot, current in sources:
            phase = np.exp(-1j * minkowski_dot(k, u))
            pair = contract_full(current, amp_plus, conjugate_first=False)
            value += (w.coupling / (c_light * udot[0])) * 2.0 * float(
                np.real(pair * phase))
        return value

    amp_minus = np.asarray(amp_minus, dtype=complex)
    if field.kind == "spinor":
        signs = field.pairing_signs()
        value = (field.a2 * field.kappa / (2.0 * k0)) * float(np.real(
            np.sum(signs * (np.conj(amp_plus) * amp_plus
                            + np.conj(amp_minus) * amp_minus))))
        if sources:
            m_plus = field.kappa * np.eye(4) + slash(k)
            m_minus = field.kappa * np.eye(4) - slash(k)
            for w, u, udot, current in sources:
                xibar = dirac_adjoint(w.coupling * current)
                phase = np.exp(-1j * minkowski_dot(k, u))
                term = xibar @ (m_plus @ amp_plus) * phase
                term += xibar @ (m_minus @ amp_minus) * np.conj(phase)
                value += float(np.real(term)) / (field.kappa * udot[0])
        return value

    value = (field.b2 / k0) * float(np.real(
        contract_full(amp_plus, amp_plus)
        + contract_full(amp_minus, amp_minus)))
    for w, u, udot, current in sources:
        phase = np.exp(-1j * minkowski_dot(k, u))
        pair = contract_full(current, amp_plus + np.conj(amp_minus),
                             conjugate_first=False)
        value += (w.coupling / udot[0]) * 2.0 * float(np.real(pair * phase))
    return value


def _coupling_rows(field: FieldSpec, k: np.ndarray, x: np.ndarray,
                   worldlines: list[Worldline] | None,
                   gauge: CanonicalGauge) -> np.ndarray | None:
    """Interaction rows A, (..., branches, components): J_int = Re sum_c
    A_b,c w_b,c at x, one per wave vector of k (..., 4).

    None when no source is active on the slice x0 = x[0].  The gauge
    factor is 1 / g_plus (field.gauge_factors); the minus row carries
    the conjugate phase, and spinor rows close with kappa +- slash(k).
    The phase is taken on an array even for one mode, so one mode rounds
    as an entry of a stack does.
    """
    sources = source_terms(field, worldlines, x[0])
    if not sources:
        return None
    c = _constants(field, gauge.z)
    rows = [0.0 for _ in field.branches]
    for w, u, udot, current in sources:
        if field.kind == "spinor":
            row = dirac_adjoint(current) * (w.coupling
                                            / (field.kappa * udot[0]))
        else:
            row = c.sigma * current.reshape(-1) * (
                field.coupling_strength * w.coupling / udot[0])
        phase = c.zeta * np.exp(1j * minkowski_dot(k, x - u)[..., None])
        rows = [r + row * ph for r, ph in zip(rows, with_conjugate(phase))]
    if field.kind == "spinor":
        rows = [(r[..., None, :] @ op)[..., 0, :]  # r @ op per mode
                for r, op in zip(rows, field.shell_operators(k))]
    return np.stack(rows, axis=-2)


def mode_hamiltonian_canonical(
    field: FieldSpec,
    k: np.ndarray,
    rows: np.ndarray,
    x: np.ndarray,
    worldlines: list[Worldline] | None = None,
    gauge: CanonicalGauge = DEFAULT_GAUGE,
) -> float | np.ndarray:
    """J evaluated through the canonical variables at the point x, one
    value per stacked mode.

    The slice is x0 = x[0].  On canonical data built from amplitudes at
    the same x this reproduces mode_hamiltonian for any x and any gauge:
    the explicit x dependence of the variables and of the interaction
    phases cancels in the value.
    """
    _check_rows(field, rows)
    k, x = np.asarray(k, dtype=float), np.asarray(x, dtype=float)
    coupling = _coupling_rows(field, k, x, worldlines, gauge)
    return _canonical_value(field, k, rows, coupling, gauge)


def _canonical_value(field, k, rows, coupling, gauge):
    """J as a phase-space function, one value per entry of leading axes.

    The free part is 1/2 sum_c sigma_c [pi_c.pi_c + kappa^2 q_c^2] per
    branch, with an overall minus for the em species (whose value
    vanishes on the massless shell while its gradients do not); the
    coupling rows (None: no active source) add Re sum_c A_b,c w_b,c,
    one branch after the other so the round-off order stays fixed.
    """
    c = _constants(field, gauge.z)
    pipi = np.einsum("m,m...->...", METRIC_DIAG,
                     np.moveaxis(rows[..., 1:, :]**2, -2, 0))
    free = 0.5 * np.sum(c.sigma * (pipi + field.kappa**2
                                   * rows[..., 0, :]**2), axis=-1)
    value = field.free_sign * np.sum(free, axis=-1)
    if coupling is None:
        return value
    eps, k0, _ = _mode_scales(c, k)
    terms = np.real(np.sum(coupling * _w_values(c, rows, eps, k0), axis=-1))
    for b in range(terms.shape[-1]):
        value = value + terms[..., b]
    return value


def mode_hamiltonian_gradients(
    field: FieldSpec,
    k: np.ndarray,
    rows: np.ndarray,
    x: np.ndarray,
    worldlines: list[Worldline] | None = None,
    gauge: CanonicalGauge = DEFAULT_GAUGE,
) -> np.ndarray:
    """Raised phase-space gradients of J at the point x.

    Returns rows of the same shape holding dJ/dq^c in row 0 and
    dJ/dpi^{mu c} in row 1 + mu, index raising included (metric signs on
    mu and tensor components, adjoint signs on spinor components).  The
    free parts reduce to dJ/dpi^{mu c} = pm pi_{mu c}, dJ/dq^c = pm
    kappa^2 q_c (minus for em); sources add only to the mu = 0 momentum
    row and to the q gradient, both read off the coupling rows A_b (see
    the module docstring).
    """
    _check_rows(field, rows)
    k, x = np.asarray(k, dtype=float), np.asarray(x, dtype=float)
    return _gradients(field, k, rows,
                      _coupling_rows(field, k, x, worldlines, gauge), gauge)


def _gradients(field: FieldSpec, k: np.ndarray, rows: np.ndarray,
               coupling: np.ndarray | None,
               gauge: CanonicalGauge) -> np.ndarray:
    """mode_hamiltonian_gradients on coupling rows already built
    (_coupling_rows; None when no source is active)."""
    c = _constants(field, gauge.z)
    grads = c.free_rows * rows
    if coupling is not None:
        eps, k0, _ = _mode_scales(c, k)
        grads[..., 0, :] -= c.q_sigma * coupling.imag / (2.0 * eps)
        grads[..., 1, :] += c.sigma * coupling.real / (2.0 * eps * k0)
    return grads


_GRADIENT_STEP = 1e-3  # spacing of the gradient_consistency stencil
# bytes of the probes gradient_consistency holds at once: entries are
# probed in blocks, 4 copies of the stacked rows per entry
_PROBE_BYTES = 2**24


def gradient_consistency(
    field: FieldSpec,
    k: np.ndarray,
    rows: np.ndarray,
    x: np.ndarray,
    worldlines: list[Worldline] | None = None,
    gauge: CanonicalGauge = DEFAULT_GAUGE,
) -> float:
    """Max defect between analytic gradients of J and finite differences.

    minkowski.five_point differences in every stored phase-space
    component, on coupling rows built once for the analytic gradients
    and every probe (no probe moves a source);
    exact for the quadratic-plus-linear J up to roundoff.  J is
    evaluated once per block of entries, on the probes of those entries
    stacked, the blocks sized by _PROBE_BYTES; a probe moves its entry
    in every stacked mode at once, since each mode's J sees its own rows
    only.  One stencil then runs over the J values of all blocks, so the
    result does not depend on the block size.  Lowered finite-difference
    gradients are raised with row_signs before comparison.  Each mode's
    defect is scaled by its own 1 + max |gradient|; returns the largest.
    """
    _check_rows(field, rows)
    k, x = np.asarray(k, dtype=float), np.asarray(x, dtype=float)
    coupling = _coupling_rows(field, k, x, worldlines, gauge)
    analytic = _gradients(field, k, rows, coupling, gauge)
    signs = _constants(field, gauge.z).row_signs
    entries = (-3, -2, -1)  # one mode's axes
    n = len(field.branches) * signs.size
    block = max(1, _PROBE_BYTES // (4 * rows.nbytes))
    values = []
    for lo in range(0, n, block):
        moved = np.arange(lo, min(lo + block, n))
        # probes[o, i]: the rows with entry moved[i] of every mode moved
        # by offset o
        probes = np.broadcast_to(rows, (4, len(moved)) + rows.shape).copy()
        probes.reshape(4, len(moved), -1, n)[
            :, np.arange(len(moved)), :, moved] += (
                FIVE_POINT_OFFSETS[:, None] * _GRADIENT_STEP)
        values.append(_canonical_value(field, k, probes, coupling, gauge))
    # J of every probe, (4, n, ...), under one stencil
    fd = np.moveaxis(five_point(np.concatenate(values, axis=1),
                                _GRADIENT_STEP), 0, -1)
    return float(np.max(np.abs(fd.reshape(analytic.shape) * signs - analytic)
                        / (1.0 + np.max(np.abs(analytic), axis=entries,
                                        keepdims=True))))


def canonical_at_point(
    field: FieldSpec,
    k: np.ndarray,
    coeff_plus: np.ndarray,
    coeff_minus: np.ndarray | None,
    x: np.ndarray,
    gauge: CanonicalGauge = DEFAULT_GAUGE,
) -> np.ndarray:
    """Canonical rows at x from slice coefficients C_pm(x0 = x[0]).

    Restores the plane wave phases T~_pm = C_pm exp(mp i k.x) before the
    canonical split; em uses the single family with exp(-i k.x) and
    ignores coeff_minus.  Wave vectors, points (..., 4) and coefficients
    may be stacked; their leading axes broadcast.
    """
    k = np.asarray(k, dtype=float)
    x = np.asarray(x, dtype=float)
    phase = np.exp(-1j * minkowski_dot(k, x))
    phase = phase.reshape(phase.shape + (1,) * len(field.component_shape))
    amps = [np.asarray(c, dtype=complex) * ph
            for _, c, ph in zip(field.branches, (coeff_plus, coeff_minus),
                                with_conjugate(phase))]
    return to_canonical(field, k, *family_pair(amps), gauge)


def hamilton_residual(
    field: FieldSpec,
    k: np.ndarray,
    amp_at,
    x: np.ndarray,
    worldlines: list[Worldline] | None = None,
    gauge: CanonicalGauge = DEFAULT_GAUGE,
    h: float | None = None,
) -> tuple[float, float]:
    """Defect of the covariant Hamilton equations at the point x.

    amp_at(x0) must return the coefficient pair (C_plus, C_minus) on the
    requested slice (C_minus ignored for em), consistent with the
    evolution equations; free fields pass constants.  Both equations are
    probed with minkowski.five_point stencils of spacing h in all four
    coordinate directions (time displacements re-evaluate the
    coefficients, spatial ones move only the explicit phases):

        r1 = max |d_mu q_c - dJ/dpi^{mu c}| / (1 + max |dJ/dpi|)
        r2 = max |d^mu pi_{mu c} + dJ/dq^c| / (1 + max |dJ/dq|)

    each branch scaled by its own gradient maximum, the worst branch
    returned.

    h defaults to 5e-3 / (1 + k0), keeping the k0 h phase step small;
    an h that is not positive and finite raises ValueError.
    """
    k = np.asarray(k, dtype=float)
    x = np.asarray(x, dtype=float)
    if h is None:
        h = 5e-3 / (1.0 + k[0])
    elif not 0.0 < h < np.inf:
        raise ValueError(f"h must be positive and finite, got {h!r}")
    at_x = amp_at(x[0])
    grads = mode_hamiltonian_gradients(
        field, k, canonical_at_point(field, k, *at_x, x, gauge), x,
        worldlines, gauge)
    # points[o, mu]: x shifted by o h along axis mu, converted in one call
    points = x + h * FIVE_POINT_OFFSETS[:, None, None] * np.eye(4)
    # their coefficient pairs, stacked once: (4, 4, branches, *comp)
    n_b = len(field.branches)
    coeffs = np.empty((4, 4, n_b) + np.shape(at_x[0]), dtype=complex)
    for pair, t in zip(coeffs.reshape((16,) + coeffs.shape[2:]),
                       points[..., 0].ravel()):
        pair[...] = amp_at(t)[:n_b]
    shifted = canonical_at_point(
        field, k, *family_pair(np.moveaxis(coeffs, 2, 0)), points, gauge)
    # d_mu of every row, mu leading: (4, branches, 5, components)
    d = five_point(shifted, h)
    g_q, g_pi = grads[..., 0, :], grads[..., 1:, :]
    # d_mu q_c against dJ/dpi^{mu c}, both mu leading
    r1 = (np.abs(d[..., 0, :] - g_pi.swapaxes(0, 1)).max(axis=(0, 2))
          / (1.0 + np.abs(g_pi).max(axis=(1, 2))))
    div_pi = np.einsum("m,mbmc->bc", METRIC_DIAG, d[..., 1:, :])
    r2 = (np.abs(div_pi + g_q).max(axis=1)
          / (1.0 + np.abs(g_q).max(axis=1)))
    return float(r1.max()), float(r2.max())


def constant_amplitudes(coeff_plus, coeff_minus=None):
    """amp_at provider for free evolution (constant coefficients)."""
    c_plus = np.asarray(coeff_plus, dtype=complex)
    c_minus = None if coeff_minus is None else np.asarray(coeff_minus,
                                                          dtype=complex)

    def amp_at(_x0: float):
        return c_plus, c_minus

    return amp_at


def history_amplitudes(history, mode_index: int = 0):
    """amp_at provider reading exact samples from an AmplitudeHistory.

    Requested slices must coincide with recorded samples (the residual
    stencil must align with the integrator grid); off-sample requests
    raise.
    """
    x0 = history.x0
    h = history.spacing()

    def amp_at(t: float):
        idx = int(round((t - x0[0]) / h))
        if idx < 0 or idx >= len(x0) or abs(x0[idx] - t) > 1e-9 * (1 + abs(t)):
            raise ValueError(f"slice {t} is not a recorded history sample")
        return family_pair(history.coeffs[idx, :, mode_index])

    return amp_at
