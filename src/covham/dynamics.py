"""Evolution of on-shell mode coefficients driven by worldline sources.

Mode conventions
----------------
Complex species (scalar, tensor, spinor) carry two coefficient families,

    T~_pm(k, x0) = C_pm(k, x0) exp(mp i k.x),

positive / negative frequency along the slicing direction.  The em field
is real and carries a single family, A~_nu = C_nu exp(-i k.x), with the
conjugate branch implied by reality.  Away from sources every C is
constant: all free-field oscillation lives in the explicit phases.

On the equal-time slice x0 each active worldline contributes at its
crossing tau* (u0(tau*) = x0), the delta in coordinate time having been
resolved against 1 / u_dot^0:

    scalar/tensor  dC_pm/dx0 = mp (i/a2) sum_j g_j U_j exp(pm i k.u_j) / udot_j^0
                   U_j = product of lowered udot components (empty = 1)
    em             dC_nu/dx0 = 4 pi i sum_j e_j udot_{j nu} exp(+i k.u_j) / udot_j^0
    spinor         dC_pm/dx0 = mp (i/a2) (kappa pm slash(k)) sum_j
                                  xi_j exp(pm i k.u_j) / udot_j^0

A source switches on sharply at tau_on (boundary active); before that it
contributes nothing, so coefficients inherit free values bit for bit.

source_terms is the one walk over the worldline crossings: for each
source active on the slice it returns u_j, udot_j and the species
current (U_j, udot_{j nu} or xi_j above).  source_rate contracts the
currents with the plane-wave phases and the rate normalization; the
generator J and its gradients in canonical.py read the same terms.

The integrator is composite Simpson over uniform panels, globally fourth
order; rates are independent of the state, so this is plain cumulative
quadrature and superposes exactly over sources.

Static and uniform worldlines need no integrator.  Along a straight
line k.u is linear in x0: with a_j the switch-on time of source j and
s_j = k.udot_j / udot_j^0 > 0, its rate on slice y >= a_j is
rate_j(a_j) exp(pm i s_j (y - a_j)).  With L = x0 - a_j the coefficient
integral has the closed form (the degenerate case of Filon quadrature)

    C_pm(x0) = sum_j rate_j,pm(a_j) L exp(pm i s_j L / 2) sinc(s_j L / 2),

written with sinc so that it stays accurate as s_j L -> 0.
straight_line_amplitudes evaluates it on any slice; circular orbits
still need evolve_amplitudes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dirac import interaction_spinor, slash
from .fields import FieldSpec
from .minkowski import lower_index, minkowski_dot
from .modes import ModeGrid
from .worldlines import Worldline, equal_time_crossing


def source_terms(field: FieldSpec, worldlines: list[Worldline] | None,
                 x0: float) -> list[tuple]:
    """(worldline, u, udot, current) for every source active on slice x0.

    u, udot are the worldline position and velocity at the crossing
    tau* of the slice.  current is the species coupling of the source
    before its strength and 1 / udot^0: the lowered velocity monomial
    U of the field rank (1 for scalars, udot_nu for em) or the
    interaction spinor xi(tau*) for the spinor species.
    """
    out = []
    for w in worldlines or []:
        if not w.active_at(x0):
            continue
        tau = equal_time_crossing(w, x0)
        u, udot = w.state(tau)
        if field.kind == "spinor":
            if w.xi is None:
                raise ValueError(
                    "spinor field needs coupling spinors on every worldline"
                )
            current = interaction_spinor(w.xi, udot)
        else:
            current = np.array(1.0)
            for _ in range(field.rank):
                current = np.multiply.outer(current, lower_index(udot))
        out.append((w, u, udot, current))
    return out


def source_rate(
    field: FieldSpec,
    worldlines: list[Worldline],
    k: np.ndarray,
    x0: float,
) -> tuple[np.ndarray, np.ndarray | None]:
    """dC/dx0 for every mode in k at slice x0.

    k has shape (N, 4) or (4,); returns (rate_plus, rate_minus) with
    shape (N, *component_shape) matching the input batching.  For the em
    species rate_minus is None (single coefficient family).
    """
    k = np.asarray(k, dtype=float)
    single = k.ndim == 1
    k = np.atleast_2d(k)
    n = k.shape[0]
    comp = field.component_shape
    sum_plus = np.zeros((n,) + comp, dtype=complex)
    sum_minus = np.zeros((n,) + comp, dtype=complex)

    for w, u, udot, current in source_terms(field, worldlines, x0):
        phase_plus = np.exp(1j * minkowski_dot(k, u))
        scale = w.coupling / udot[0]
        sum_plus += np.multiply.outer(phase_plus, current) * scale
        if field.kind != "em":
            sum_minus += np.multiply.outer(np.conj(phase_plus),
                                           current) * scale

    if field.kind == "em":
        rate_plus = 4.0j * np.pi * sum_plus
        rate_minus = None
    elif field.kind == "spinor":
        kap = field.kappa
        op_plus = kap * np.eye(4) + slash(k)  # (n, 4, 4)
        op_minus = kap * np.eye(4) - slash(k)
        rate_plus = (-1j / field.a2) * np.einsum("nab,nb->na", op_plus, sum_plus)
        rate_minus = (+1j / field.a2) * np.einsum("nab,nb->na", op_minus, sum_minus)
    else:
        rate_plus = (-1j / field.a2) * sum_plus
        rate_minus = (+1j / field.a2) * sum_minus

    if single:
        rate_plus = rate_plus[0]
        rate_minus = None if rate_minus is None else rate_minus[0]
    return rate_plus, rate_minus


def straight_line_amplitudes(
    field: FieldSpec,
    worldlines: list[Worldline],
    grid: ModeGrid,
    x0: float,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Exact coefficients (plus, minus) on slice x0 for straight sources.

    Every coefficient starts from zero before each switch-on, as in
    evolve_amplitudes from a window opening before every source; minus
    is None for the em species.  Raises ValueError for a circular
    worldline, whose phase is not linear in x0.
    """
    if any(w.kind not in ("static", "uniform") for w in worldlines):
        raise ValueError("closed-form amplitudes need static or uniform "
                         "worldlines")
    n = len(grid)
    expand = (n,) + (1,) * len(field.component_shape)
    plus = np.zeros((n,) + field.component_shape, dtype=complex)
    minus = None if field.kind == "em" else np.zeros_like(plus)
    for w in worldlines:
        start = w.switch_on_time()
        span = x0 - start
        if span <= 0.0:
            continue
        rate_plus, rate_minus = source_rate(field, [w], grid.k, start)
        _, udot = w.state(w.tau_on)
        half = 0.5 * span * minkowski_dot(grid.k, udot) / udot[0]
        # np.sinc(x) = sin(pi x) / (pi x)
        factor = span * np.exp(1j * half) * np.sinc(half / np.pi)
        plus += rate_plus * factor.reshape(expand)
        if minus is not None:
            minus += rate_minus * np.conj(factor).reshape(expand)
    return plus, minus


@dataclass(frozen=True)
class AmplitudeHistory:
    """Mode coefficients sampled along an evolution.

    x0 has shape (S,), plus has shape (S, N, *component_shape); minus is
    None for the em species.  With save="last" only the final slice is
    kept (S = 1).
    """

    field: FieldSpec
    x0: np.ndarray
    plus: np.ndarray
    minus: np.ndarray | None

    @property
    def final_plus(self) -> np.ndarray:
        return self.plus[-1]

    @property
    def final_minus(self) -> np.ndarray | None:
        return None if self.minus is None else self.minus[-1]

    def spacing(self) -> float:
        """Uniform sample spacing; raises if sampling is not uniform."""
        if len(self.x0) < 2:
            raise ValueError("history has no spacing with fewer than 2 samples")
        h = np.diff(self.x0)
        if not np.allclose(h, h[0], rtol=1e-9, atol=1e-12):
            raise ValueError("history is not uniformly sampled")
        return float(h[0])


def evolve_amplitudes(
    field: FieldSpec,
    worldlines: list[Worldline],
    grid: ModeGrid,
    x0_start: float,
    x0_end: float,
    steps: int,
    init_plus: np.ndarray | None = None,
    init_minus: np.ndarray | None = None,
    save: str = "all",
) -> AmplitudeHistory:
    """Integrate the coefficient rates from x0_start to x0_end.

    steps uniform Simpson panels (two rate evaluations per panel beyond
    the first).  init_plus / init_minus default to zero coefficients.
    save="all" records every panel boundary, save="last" only the final
    state, which keeps long evolutions on large grids in memory budget.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if x0_end <= x0_start:
        raise ValueError("x0_end must exceed x0_start")
    if save not in ("all", "last"):
        raise ValueError("save must be 'all' or 'last'")
    comp = field.component_shape
    n = len(grid)
    has_minus = field.kind != "em"

    c_plus = np.zeros((n,) + comp, dtype=complex)
    if init_plus is not None:
        c_plus[...] = init_plus
    c_minus = np.zeros((n,) + comp, dtype=complex) if has_minus else None
    if has_minus and init_minus is not None:
        c_minus[...] = init_minus

    times = np.linspace(x0_start, x0_end, steps + 1)
    h = (x0_end - x0_start) / steps
    record = save == "all"
    if record:
        out_plus = np.empty((steps + 1,) + c_plus.shape, dtype=complex)
        out_plus[0] = c_plus
        out_minus = None
        if has_minus:
            out_minus = np.empty_like(out_plus)
            out_minus[0] = c_minus

    f_plus, f_minus = source_rate(field, worldlines, grid.k, times[0])
    for i in range(steps):
        m_plus, m_minus = source_rate(field, worldlines, grid.k,
                                      times[i] + 0.5 * h)
        g_plus, g_minus = source_rate(field, worldlines, grid.k, times[i + 1])
        c_plus = c_plus + (h / 6.0) * (f_plus + 4.0 * m_plus + g_plus)
        if has_minus:
            c_minus = c_minus + (h / 6.0) * (f_minus + 4.0 * m_minus + g_minus)
        f_plus, f_minus = g_plus, g_minus
        if record:
            out_plus[i + 1] = c_plus
            if has_minus:
                out_minus[i + 1] = c_minus

    if record:
        return AmplitudeHistory(field=field, x0=times, plus=out_plus,
                                minus=out_minus)
    return AmplitudeHistory(
        field=field,
        x0=times[-1:],
        plus=c_plus[None, ...],
        minus=None if not has_minus else c_minus[None, ...],
    )


def reconstruct_field(
    field: FieldSpec,
    grid: ModeGrid,
    plus: np.ndarray,
    minus: np.ndarray | None,
    x: np.ndarray,
):
    """Field value at the spacetime point x from mode coefficients.

    plus / minus are coefficient arrays of shape (N, *component_shape)
    on the slice x0 = x[0].  Complex species return the complex value
    sum_k w [C+ e^{-ik.x} + C- e^{+ik.x}]; the em species returns the
    real four-potential 2 Re sum_k w C e^{-ik.x}.
    """
    x = np.asarray(x, dtype=float)
    phase = np.exp(-1j * minkowski_dot(grid.k, x))
    w_phase = grid.weight * phase
    value = np.tensordot(w_phase, plus, axes=(0, 0))
    if field.kind == "em":
        return 2.0 * np.real(value)
    if minus is None:
        raise ValueError("complex species need both coefficient families")
    value = value + np.tensordot(grid.weight * np.conj(phase), minus,
                                 axes=(0, 0))
    return value


def mode_equation_residual(
    field: FieldSpec,
    worldlines: list[Worldline],
    grid: ModeGrid,
    history: AmplitudeHistory,
) -> float:
    """Max normalized defect of the coefficient evolution equation.

    Fourth-order five-point first-derivative stencil applied to the
    recorded history at interior samples, compared against the analytic
    rate: max |dC_fd - rate| / (1 + |rate|), over samples, modes,
    components, and branches.
    """
    if len(history.x0) < 5:
        raise ValueError("need at least 5 uniform samples for the stencil")
    h = history.spacing()
    worst = 0.0
    for i in range(2, len(history.x0) - 2):
        rate_plus, rate_minus = source_rate(field, worldlines, grid.k,
                                            history.x0[i])
        for c, rate in ((history.plus, rate_plus), (history.minus, rate_minus)):
            if c is None:
                continue
            deriv = (c[i - 2] - 8.0 * c[i - 1] + 8.0 * c[i + 1] - c[i + 2]) / (12.0 * h)
            scale = 1.0 + float(np.max(np.abs(rate)))
            worst = np.maximum(worst,
                               float(np.max(np.abs(deriv - rate))) / scale)
    return float(worst)
