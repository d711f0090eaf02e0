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

The constants of one (field, gauge z) are built once and kept: g_b, s_b
and 2 s_b, sigma_c, row_signs, the free gradient factor of each row, and
the index tuples that pick q, pi and pi_0 out of the (..., branches, 5,
*comp) rows.  Each call then writes and reads its rows in place by basic
indexing, one code path for one mode and for a stack, so a one-mode call
pays for little more than its arithmetic.  gradient_consistency
evaluates J on the probes of every stored entry and applies one
five_point stencil to all of them.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
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


@dataclass(frozen=True)
class CanonicalMode:
    """Canonical variables of one mode or a stack, one array of rows.

    rows has shape (..., branches, 5, *component_shape): per branch
    (plus, then minus; the em field keeps plus only) row 0 holds q_c and
    row 1 + mu holds pi_{mu c}, lower-index as stored.  k is (4,) or one
    wave vector per leading entry; brackets.StateLayout holds a grid's.
    """

    field: FieldSpec
    k: np.ndarray
    rows: np.ndarray

    @property
    def q(self) -> np.ndarray:
        """q_c per branch, (..., branches, *component_shape), a view."""
        return self.rows[(..., 0) + (slice(None),)
                         * len(self.field.component_shape)]

    @property
    def pi(self) -> np.ndarray:
        """pi_{mu c} per branch, (..., branches, 4, *component_shape),
        a view."""
        return self.rows[(..., slice(1, None)) + (slice(None),)
                         * len(self.field.component_shape)]


def row_signs(field: FieldSpec) -> np.ndarray:
    """Index-raising signs of the rows, (5, *component_shape): sigma_c on
    q and eta_mumu sigma_c on pi_mu, the [1, eta] (x) sigma rule."""
    return np.multiply.outer(np.concatenate([[1.0], METRIC_DIAG]),
                             field.pairing_signs())


@dataclass(frozen=True)
class _Constants:
    """What the canonical map needs of one (field, gauge z), built once.

    Arrays are read-only and shaped against w (..., branches, *comp) or
    rows (..., branches, 5, *comp); the index tuples pick rows out of
    those by basic indexing, so no call restacks or moves an axis.
    """

    field: FieldSpec
    z: complex
    comp: tuple[int, ...]
    g: np.ndarray            # g_b, (branches, *ones)
    q_signs: np.ndarray      # s_b, (branches, *ones)
    two_q_signs: np.ndarray  # 2 s_b
    sigma: np.ndarray        # sigma_c, comp
    q_sigma: np.ndarray      # s_b sigma_c, (branches, *comp)
    row_signs: np.ndarray    # row_signs(field), (5, *comp)
    free_rows: np.ndarray    # free gradient factor per row, (5, *ones)
    zeta: complex            # 1 / g_plus, the coupling rows' gauge factor
    q_at: tuple              # row 0: (..., branches, *comp)
    pi_at: tuple             # rows 1-4: (..., branches, 4, *comp)
    pi0_at: tuple            # row 1, pi_0
    pi0_kept: tuple          # row 1 as (..., branches, 1, *comp)
    branch_at: tuple         # per branch b, entry b of the branch axis
    new_row: tuple           # inserts a row axis before the components
    mu_comp_axes: tuple      # the mu and component axes of pi
    comp_axes: tuple


@lru_cache(maxsize=64)
def _constants(field: FieldSpec, z: complex) -> _Constants:
    comp = field.component_shape
    ones = (1,) * len(comp)
    cs = (slice(None),) * len(comp)
    q_signs = np.reshape(field.q_signs, (-1,) + ones)
    sigma = field.pairing_signs()
    free = field.free_sign * np.concatenate([[field.kappa**2], np.ones(4)])
    arrays = {"g": np.reshape(field.gauge_factors(z), (-1,) + ones),
              "q_signs": q_signs, "two_q_signs": q_signs * 2.0,
              "sigma": sigma, "q_sigma": q_signs * sigma,
              "row_signs": row_signs(field),
              "free_rows": free.reshape((5,) + ones)}
    for a in arrays.values():
        a.setflags(write=False)
    return _Constants(
        field=field, z=z, comp=comp, **arrays,
        zeta=1.0 / field.gauge_factors(z)[0],
        q_at=(..., 0) + cs, pi_at=(..., slice(1, None)) + cs,
        pi0_at=(..., 1) + cs, pi0_kept=(..., slice(1, 2)) + cs,
        branch_at=tuple((..., b) + cs for b in range(len(field.branches))),
        new_row=(..., None) + cs,
        mu_comp_axes=tuple(range(-1 - len(comp), 0)),
        comp_axes=tuple(range(-len(comp), 0)))


def _mode_scales(c: _Constants, k: np.ndarray):
    """eps and k0 of each wave vector of k (..., 4) against w (...,
    branches, *comp), its lowered k_mu against pi (..., branches, 4, *comp)."""
    lead, ones = k.shape[:-1], (1,) * len(c.comp)
    k0 = k[..., 0].reshape(lead + (1,) + ones)
    return (c.field.epsilon(k0, c.z), k0,
            lower_index(k).reshape(lead + (1, 4) + ones))


def to_canonical(
    field: FieldSpec,
    k: np.ndarray,
    amp_plus: np.ndarray,
    amp_minus: np.ndarray | None,
    gauge: CanonicalGauge = DEFAULT_GAUGE,
) -> CanonicalMode:
    """Canonical variables from amplitude values T~_pm at one point.

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
    comp = c.comp
    amp_plus = np.asarray(amp_plus, dtype=complex)
    if amp_plus.shape[amp_plus.ndim - len(comp):] != comp:
        raise ValueError(f"amp_plus shape {amp_plus.shape}, expected {comp}")
    w = np.empty(amp_plus.shape[:amp_plus.ndim - len(comp)]
                 + c.g.shape[:1] + comp, dtype=complex)
    for at, amp in zip(c.branch_at, field.families(amp_plus, amp_minus)):
        if np.shape(amp) != amp_plus.shape:
            raise ValueError(f"amp_minus shape {np.shape(amp)}, expected "
                             f"the shape of amp_plus {amp_plus.shape}")
        w[at] = amp
    np.multiply(c.g, w, out=w)  # w_b = g_b T~_b
    q = c.two_q_signs * eps * w.imag
    rows = np.empty(q.shape[:q.ndim - len(comp)] + (5,) + comp)
    rows[c.q_at] = q
    np.multiply(2.0 * eps[c.new_row] * k_mu, w.real[c.new_row],
                out=rows[c.pi_at])
    return CanonicalMode(field=field, k=k, rows=rows)


def _check_collinear(c: _Constants, mode: CanonicalMode, k0, k_mu,
                     tol: float) -> None:
    """Each (mode, branch)'s pi rows against k pi_0 / k0, scaled by its
    own 1 + max |pi|; non-finite rows fail too."""
    pi = mode.rows[c.pi_at]
    model = k_mu * mode.rows[c.pi0_kept] / k0[c.new_row]
    defect = np.abs(pi - model).max(axis=c.mu_comp_axes)
    if not ((defect <= tol * (1.0 + np.abs(pi).max(axis=c.mu_comp_axes)))
            .all() and np.isfinite(mode.rows).all()):
        raise CanonicalStructureError(
            f"pi is not collinear with k (defect {np.max(defect):.3e}); "
            "not the canonical image of an on-shell mode"
        )


def _w_values(c: _Constants, mode: CanonicalMode, eps: np.ndarray,
              k0: np.ndarray) -> np.ndarray:
    """Complex w, (..., branches, *comp), via the pi_0 extension (exact
    on-shell); eps and k0 as _mode_scales shapes them."""
    return (mode.rows[c.pi0_at] / (2.0 * eps * k0)
            + 1j * (c.q_signs * mode.rows[c.q_at] / (2.0 * eps)))


def from_canonical(
    field: FieldSpec,
    k: np.ndarray,
    mode: CanonicalMode,
    gauge: CanonicalGauge = DEFAULT_GAUGE,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Amplitudes T~_pm back from canonical variables.

    Raises CanonicalStructureError when any pi row fails to be
    proportional to k, which no on-shell mode can produce, or when a row
    is not finite; the bound, COLLINEAR_TOL, scales with each mode's own
    pi.
    """
    c = _constants(field, gauge.z)
    eps, k0, k_mu = _mode_scales(c, np.asarray(k, dtype=float))
    _check_collinear(c, mode, k0, k_mu, COLLINEAR_TOL)
    amps = _w_values(c, mode, eps, k0) / c.g
    return family_pair([amps[at] for at in c.branch_at])


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
    """Interaction rows A, (..., branches, *comp): J_int = Re sum_c A_b,c
    w_b,c at x, one per wave vector of k (..., 4).

    None when no source is active on the slice x0 = x[0].  The gauge
    factor is 1 / g_plus (field.gauge_factors); the minus row carries
    the conjugate phase, and spinor rows close with kappa +- slash(k).
    """
    sources = source_terms(field, worldlines, x[0])
    if not sources:
        return None
    c = _constants(field, gauge.z)
    ones = (1,) * len(c.comp)
    rows = [0.0 for _ in field.branches]
    for w, u, udot, current in sources:
        if field.kind == "spinor":
            row = dirac_adjoint(current) * (w.coupling
                                            / (field.kappa * udot[0]))
        else:
            row = c.sigma * current * (field.coupling_strength * w.coupling
                                       / udot[0])
        phase = c.zeta * np.exp(1j * minkowski_dot(k, x - u))
        phase = phase.reshape(phase.shape + ones)
        rows = [r + row * ph for r, ph in zip(rows, with_conjugate(phase))]
    if field.kind == "spinor":
        rows = [(r[..., None, :] @ op)[..., 0, :]  # r @ op per mode
                for r, op in zip(rows, field.shell_operators(k))]
    return np.stack(rows, axis=-1 - len(ones))


def mode_hamiltonian_canonical(
    field: FieldSpec,
    k: np.ndarray,
    mode: CanonicalMode,
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
    k, x = np.asarray(k, dtype=float), np.asarray(x, dtype=float)
    coupling = _coupling_rows(field, k, x, worldlines, gauge)
    return _canonical_value(field, k, mode, coupling, gauge)


def _canonical_value(field, k, mode, coupling, gauge):
    """J as a phase-space function, one value per entry of leading axes.

    The free part is 1/2 sum_c sigma_c [pi_c.pi_c + kappa^2 q_c^2] per
    branch, with an overall minus for the em species (whose value
    vanishes on the massless shell while its gradients do not); the
    coupling rows (None: no active source) add Re sum_c A_b,c w_b,c,
    one branch after the other so the round-off order stays fixed.
    """
    c = _constants(field, gauge.z)
    pipi = np.einsum("m,m...->...", METRIC_DIAG,
                     np.moveaxis(mode.rows[c.pi_at]**2, -1 - len(c.comp), 0))
    free = 0.5 * np.sum(c.sigma * (pipi + field.kappa**2
                                   * mode.rows[c.q_at]**2), axis=c.comp_axes)
    value = field.free_sign * np.sum(free, axis=-1)
    if coupling is None:
        return value
    eps, k0, _ = _mode_scales(c, k)
    terms = np.real(np.sum(coupling * _w_values(c, mode, eps, k0),
                           axis=c.comp_axes))
    for b in range(terms.shape[-1]):
        value = value + terms[..., b]
    return value


def mode_hamiltonian_gradients(
    field: FieldSpec,
    k: np.ndarray,
    mode: CanonicalMode,
    x: np.ndarray,
    worldlines: list[Worldline] | None = None,
    gauge: CanonicalGauge = DEFAULT_GAUGE,
) -> CanonicalMode:
    """Raised phase-space gradients of J at the point x.

    Returns a CanonicalMode whose rows hold dJ/dq^c in row 0 and
    dJ/dpi^{mu c} in row 1 + mu, index raising included (metric signs on
    mu and tensor components, adjoint signs on spinor components).  The
    free parts reduce to dJ/dpi^{mu c} = pm pi_{mu c}, dJ/dq^c = pm
    kappa^2 q_c (minus for em); sources add only to the mu = 0 momentum
    row and to the q gradient, both read off the coupling rows A_b (see
    the module docstring).
    """
    k, x = np.asarray(k, dtype=float), np.asarray(x, dtype=float)
    c = _constants(field, gauge.z)
    grads = c.free_rows * mode.rows
    coupling = _coupling_rows(field, k, x, worldlines, gauge)
    if coupling is not None:
        eps, k0, _ = _mode_scales(c, k)
        grads[c.q_at] -= c.q_sigma * coupling.imag / (2.0 * eps)
        grads[c.pi0_at] += c.sigma * coupling.real / (2.0 * eps * k0)
    return CanonicalMode(field=field, k=k, rows=grads)


_GRADIENT_STEP = 1e-3  # spacing of the gradient_consistency stencil
# bytes of the probes gradient_consistency holds at once: entries are
# probed in blocks, 4 copies of the stacked rows per entry
_PROBE_BYTES = 2**24


def gradient_consistency(
    field: FieldSpec,
    k: np.ndarray,
    mode: CanonicalMode,
    x: np.ndarray,
    worldlines: list[Worldline] | None = None,
    gauge: CanonicalGauge = DEFAULT_GAUGE,
) -> float:
    """Max defect between analytic gradients of J and finite differences.

    minkowski.five_point differences in every stored phase-space
    component, on coupling rows built once (no probe moves a source);
    exact for the quadratic-plus-linear J up to roundoff.  J is
    evaluated once per block of entries, on the probes of those entries
    stacked, the blocks sized by _PROBE_BYTES; a probe moves its entry
    in every stacked mode at once, since each mode's J sees its own rows
    only.  One stencil then runs over the J values of all blocks, so the
    result does not depend on the block size.  Lowered finite-difference
    gradients are raised with row_signs before comparison.  Each mode's
    defect is scaled by its own 1 + max |gradient|; returns the largest.
    """
    k, x = np.asarray(k, dtype=float), np.asarray(x, dtype=float)
    analytic = mode_hamiltonian_gradients(field, k, mode, x, worldlines,
                                          gauge).rows
    coupling = _coupling_rows(field, k, x, worldlines, gauge)
    signs = _constants(field, gauge.z).row_signs
    entries = tuple(range(-1 - signs.ndim, 0))  # one mode's axes
    n = len(field.branches) * signs.size
    block = max(1, _PROBE_BYTES // (4 * mode.rows.nbytes))
    values = []
    for lo in range(0, n, block):
        moved = np.arange(lo, min(lo + block, n))
        # probes[o, i]: the rows with entry moved[i] of every mode moved
        # by offset o
        probes = np.broadcast_to(mode.rows, (4, len(moved))
                                 + mode.rows.shape).copy()
        probes.reshape(4, len(moved), -1, n)[
            :, np.arange(len(moved)), :, moved] += (
                FIVE_POINT_OFFSETS[:, None] * _GRADIENT_STEP)
        values.append(_canonical_value(
            field, k, replace(mode, rows=probes), coupling, gauge))
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
) -> CanonicalMode:
    """Canonical variables at x from slice coefficients C_pm(x0 = x[0]).

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

    h defaults to 5e-3 / (1 + k0), keeping the k0 h phase step small.
    """
    k = np.asarray(k, dtype=float)
    x = np.asarray(x, dtype=float)
    if h is None:
        h = 5e-3 / (1.0 + k[0])
    grads = mode_hamiltonian_gradients(
        field, k, canonical_at_point(field, k, *amp_at(x[0]), x, gauge), x,
        worldlines, gauge)
    # points[o, mu]: x shifted by o h along axis mu, converted in one call
    points = x + h * FIVE_POINT_OFFSETS[:, None, None] * np.eye(4)
    coeffs = [np.reshape(c, (4, 4) + np.shape(c[0])) for c in
              zip(*(amp_at(t) for t in points[..., 0].ravel()))]
    shifted = canonical_at_point(field, k, *coeffs, points, gauge)
    # d_mu of every row, mu leading: (4, branches, 5, *comp)
    d = five_point(shifted.rows, h)
    c = _constants(field, gauge.z)
    g_q, g_pi = grads.rows[c.q_at], grads.rows[c.pi_at]
    n_b = len(g_q)
    # d_mu q_c against dJ/dpi^{mu c}, both mu leading
    r1 = (np.abs(d[c.q_at] - g_pi.swapaxes(0, 1)).reshape(4, n_b, -1)
          .max(axis=(0, 2))
          / (1.0 + np.abs(g_pi).reshape(n_b, -1).max(axis=1)))
    div_pi = np.einsum("m,mbm...->b...", METRIC_DIAG, d[c.pi_at])
    r2 = (np.abs(div_pi + g_q).reshape(n_b, -1).max(axis=1)
          / (1.0 + np.abs(g_q).reshape(n_b, -1).max(axis=1)))
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
