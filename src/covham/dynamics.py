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
current (U_j, udot_{j nu} or xi_j above).  _weighted_rate_sum contracts
the currents with the plane-wave phases and the rate normalization; the
generator J and its gradients in canonical.py read the same terms.

The stored families, the rate normalizations and the spinor's
kappa pm slash(k) come from the species table (fields.FieldSpec).  The
families are an array axis: a slice's rates or coefficients are one
(branches, N, *component_shape) array, AmplitudeHistory.coeffs stacks
the slices in front, and the public (plus, minus) pairs are its views.

The integrator is composite Simpson over uniform panels, globally fourth
order.  Rates do not depend on the state and are linear in each source's
current, so any Simpson sum is one weighted node sum.  Each row r pairs
a node t with a source j active there:

    sum_t w_t dC_pm/dx0(t) = norm_pm S_pm (E or conj E) @ Cur,
    E[n, r] = exp(i k_n.u_r),   Cur[r] = w_t g_j current_j / udot_j^0,

with S_pm = kappa pm slash(k) for the spinor (identity otherwise) and
the rate norm applied once, after the sum.  _weighted_rate_sum builds E
for _NODE_CHUNK nodes at a time, so it never holds more than N x
_NODE_CHUNK x (sources) phases, whatever the step count.  save="last"
is one such sum over all 2 steps + 1 nodes (weights h/6 at the ends,
h/3 at interior panel boundaries, 4h/6 at midpoints); save="all" adds
one panel's sum to each saved slice; source_rate is the one-node case.
Splitting the panels at a switch-on, for fourth order through it, only
adds nodes and weights.

Static and uniform worldlines need no integrator.  Along a straight
line k.u is linear in x0: with a_j the switch-on time of source j and
s_j = k.udot_j / udot_j^0 > 0, its rate on slice y >= a_j is
rate_j(a_j) exp(pm i s_j (y - a_j)).  With L = x0 - a_j the coefficient
integral has the closed form (the degenerate case of Filon quadrature)

    C_pm(x0) = sum_j rate_j,pm(a_j) L exp(pm i s_j L / 2) sinc(s_j L / 2),

written with sinc so that it stays accurate as s_j L -> 0.
straight_line_amplitudes evaluates it on any slice; circular orbits
still need evolve_amplitudes.  The switch-on rate and s_j depend on the
source only, so _straight_line_mean computes them once per source and
also gives the mean over uniform slices of the coefficients carried to
one reference slice t_ref by their free phase exp(mp i k0 (t - t_ref)):
the time average verify.averaged_profile reconstructs once per point.
On uniform slices its phases turn by a fixed factor per slice, so it
rotates them, _MODE_SLICE modes at a time, instead of re-evaluating them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dirac import interaction_spinor
from .fields import FieldSpec, family_pair, with_conjugate
from .minkowski import FIVE_POINT_OFFSETS, five_point, lower_index
from .modes import ModeGrid
from .worldlines import Worldline, equal_time_crossing

# nodes per block of the phase matrix exp(i k.u): the block, not the
# step count, sets the memory a long evolution needs on a large grid
_NODE_CHUNK = 16
# modes per slice of the rotated time average: bounds its per-mode arrays
_MODE_SLICE = 4096


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
    species rate_minus is None (single coefficient family).  This is the
    one-node case of _weighted_rate_sum: nodes (x0,), weights (1.0,).
    """
    k = np.asarray(k, dtype=float)
    rates = _weighted_rate_sum(field, worldlines, np.atleast_2d(k), (x0,),
                               (1.0,))
    return family_pair(rates[:, 0] if k.ndim == 1 else rates)


def _weighted_rate_sum(field, worldlines, k, nodes, weights) -> np.ndarray:
    """sum_t weights[t] dC/dx0(nodes[t]) for modes k (N, 4): norm S (E or
    conj E) @ Cur over the (node, active source) rows, E built
    _NODE_CHUNK nodes at a time (see the module docstring).  (branches,
    N, *component_shape), exact zeros when no source is ever active.
    """
    n_comp, n_b = field.n_components, len(field.branches)
    # the first block's product starts the sum: filling a zero array
    # first would add an (N, columns) array to the peak memory
    total = None
    for lo in range(0, len(nodes), _NODE_CHUNK):
        rows = [(u, weight * w.coupling / udot[0] * np.ravel(current))
                for t, weight in zip(nodes[lo:lo + _NODE_CHUNK],
                                     weights[lo:lo + _NODE_CHUNK])
                for w, u, udot, current in source_terms(field, worldlines, t)]
        if not rows:
            continue
        u, cur = map(np.array, zip(*rows))
        if n_b == 2:  # conj(E) @ Cur = conj(E @ conj(Cur)): one product
            cur = np.concatenate([cur, np.conj(cur)], axis=1)
        # k.u with u lowered: no (N, 4) copy of k
        part = np.exp(1j * (k @ lower_index(u).T)) @ cur
        total = part if total is None else np.add(total, part, out=total)
    shape = (n_b, len(k)) + field.component_shape
    if total is None:  # no source active on any node
        return np.zeros(shape, dtype=complex)
    # each branch written in place: no stacked copy of the rates
    out = np.empty((n_b, len(k), n_comp), dtype=complex)
    ops = field.shell_operators(k) if field.kind == "spinor" else None
    for b, norm in enumerate(field.rate_norms):
        half = total[:, b * n_comp:(b + 1) * n_comp]
        if b:
            half = np.conj(half)
        if ops is not None:
            half = np.einsum("nab,nb->na", ops[b], half)
        np.multiply(norm, half, out=out[b])
    return out.reshape(shape)


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
    return family_pair(_straight_line_mean(field, worldlines, grid, x0, 0.0,
                                           1, x0))


def _straight_line_mean(field, worldlines, grid, first, spacing, count,
                        t_ref):
    """Mean over the count uniform slices t = first + m spacing of the
    closed-form coefficients, each carried to slice t_ref by its free
    phase:

        D_pm = (1/S) sum_t C_pm(t) exp(mp i k0 (t - t_ref))
             = sum_j rate_j,pm(a_j) g_j   (conj g_j for minus),
        g_j  = (1/S) sum_{t > a_j} Im(z_t) zw_t / c,

    c = s_j / 2 > 0, L = t - a_j, z_t = exp(i c L) and zw_t = z_t
    exp(-i k0 (t - t_ref)), since L exp(i c L) sinc(c L / pi) =
    sin(c L) exp(i c L) / c: accurate as c L -> 0, with no cancellation.
    From one slice to the next z turns by exp(i c spacing) and zw by
    that times exp(-i k0 spacing), so the sum takes no transcendental
    per slice.  Modes go _MODE_SLICE at a time, and each switch-on rate
    is computed once.  One slice at t_ref gives D = C(t_ref), (branches,
    N, *component_shape).
    """
    if any(w.kind not in ("static", "uniform") for w in worldlines):
        raise ValueError("closed-form amplitudes need static or uniform "
                         "worldlines")
    n = len(grid)
    expand = (n,) + (1,) * len(field.component_shape)
    coeffs = np.zeros((len(field.branches), n) + field.component_shape,
                      dtype=complex)
    times = first + spacing * np.arange(count)
    for w in worldlines:
        start = w.switch_on_time()
        skip = int(np.searchsorted(times, start, side="right"))
        if skip == count:  # source j adds nothing up to its switch-on
            continue
        _, udot = w.state(w.tau_on)
        mean = np.empty(n, dtype=complex)
        for lo in range(0, n, _MODE_SLICE):
            k = grid.k[lo:lo + _MODE_SLICE]
            c = 0.5 * (k @ lower_index(udot)) / udot[0]  # s_j / 2
            z = np.exp(1j * c * (times[skip] - start))
            zw = z * np.exp(-1j * k[:, 0] * (times[skip] - t_ref))
            turn = np.exp(1j * c * spacing)
            turn_w = turn * np.exp(-1j * k[:, 0] * spacing)
            total = z.imag * zw
            for _ in range(skip + 1, count):
                z *= turn
                zw *= turn_w
                total += z.imag * zw
            mean[lo:lo + _MODE_SLICE] = total / (c * count)
        rates = source_rate(field, [w], grid.k, start)
        for cf, rate, f in zip(coeffs, rates, with_conjugate(mean)):
            cf += rate * f.reshape(expand)
    return coeffs


@dataclass(frozen=True)
class AmplitudeHistory:
    """Mode coefficients sampled along an evolution.

    x0 has shape (S,) and coeffs (S, branches, N, *component_shape), the
    branches plus then minus (the em species keeps plus only); plus and
    minus are views of it, (S, N, *component_shape), minus None for em.
    With save="last" only the final slice is kept (S = 1).
    """

    field: FieldSpec
    x0: np.ndarray
    coeffs: np.ndarray

    @property
    def plus(self) -> np.ndarray:
        return self.coeffs[:, 0]

    @property
    def minus(self) -> np.ndarray | None:
        return None if self.field.is_real else self.coeffs[:, 1]

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

    steps uniform Simpson panels; a source counts on a node from its
    switch-on on (boundary active).  init_plus / init_minus default to
    zero coefficients.  save="all" records every panel boundary, each
    slice the previous one plus that panel's weighted node sum.
    save="last" keeps only the final state, the initial one plus a
    single node sum over all 2 steps + 1 nodes; long evolutions on large
    grids stay in memory budget either way.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if x0_end <= x0_start:
        raise ValueError("x0_end must exceed x0_start")
    if save not in ("all", "last"):
        raise ValueError("save must be 'all' or 'last'")
    n_b = len(field.branches)
    times = np.linspace(x0_start, x0_end, steps + 1)
    out = np.zeros((1 if save == "last" else steps + 1, n_b, len(grid))
                   + field.component_shape, dtype=complex)
    for b, init in enumerate((init_plus, init_minus)[:n_b]):
        if init is not None:
            out[0, b] = init

    h = (x0_end - x0_start) / steps
    mids = times[:-1] + 0.5 * h
    if save == "last":
        nodes = np.empty(2 * steps + 1)
        nodes[0::2] = times
        nodes[1::2] = mids
        weights = np.full(2 * steps + 1, 4.0 * h / 6.0)
        weights[0::2] = h / 3.0
        weights[[0, -1]] = h / 6.0
        out[0] += _weighted_rate_sum(field, worldlines, grid.k, nodes,
                                     weights)
        times = times[-1:]
    else:
        panel = (h / 6.0, 4.0 * h / 6.0, h / 6.0)
        for i in range(steps):
            out[i + 1] = out[i] + _weighted_rate_sum(
                field, worldlines, grid.k, (times[i], mids[i], times[i + 1]),
                panel)
    return AmplitudeHistory(field=field, x0=times, coeffs=out)


def reconstruct_field(
    field: FieldSpec,
    grid: ModeGrid,
    plus: np.ndarray,
    minus: np.ndarray | None,
    x: np.ndarray,
):
    """Field value at the spacetime points x from mode coefficients.

    x has shape (..., 4), any leading axes being points; plus / minus
    are the slice's coefficients, shape (N, ...) with any trailing axes,
    and the result has shape x.shape[:-1] + those axes.  Complex species
    return sum_k w [C+ e^{-ik.x} + C- e^{+ik.x}]; the em species (minus
    None) returns the real four-potential 2 Re sum_k w C e^{-ik.x}.
    """
    x = np.asarray(x, dtype=float)
    # k.x with x lowered: one (..., 4) @ (4, N) product, no (..., N, 4)
    phase = np.exp(-1j * (lower_index(x) @ grid.k.T))
    terms = zip(field.families(plus, minus, "coefficient"),
                with_conjugate(phase))
    return field.field_value(sum(np.tensordot(grid.weight * ph, c,
                                              axes=(-1, 0))
                                 for c, ph in terms))


def mode_equation_residual(
    field: FieldSpec,
    worldlines: list[Worldline],
    grid: ModeGrid,
    history: AmplitudeHistory,
) -> float:
    """Max normalized defect of the coefficient evolution equation.

    minkowski.five_point applied to the recorded history at interior
    samples, all branches in one call, compared against the analytic
    rate: max |dC_fd - rate| / (1 + max |rate|) per branch, over
    samples, modes, components and branches.  A stencil that straddles a switch-on a (x0[i-2] < a <= x0[i+2]) sees
    the kink in C there, not a dynamics error, and is skipped; a sample
    counts as before a when it is more than 1e-12 earlier, as in the
    simulate suite's causality mask.
    """
    x0 = history.x0
    if len(x0) < 5:
        raise ValueError("need at least 5 uniform samples for the stencil")
    h = history.spacing()
    ons = np.array([w.switch_on_time() for w in worldlines]) - 1e-12
    straddles = np.any((x0[:-4, None] < ons) & (ons <= x0[4:, None]), axis=1)
    per_branch = tuple(range(1, history.coeffs.ndim - 1))  # modes, comps
    worst = 0.0
    for i in range(2, len(x0) - 2):
        if straddles[i - 2]:
            continue
        rates = np.array(field.families(*source_rate(field, worldlines,
                                                     grid.k, x0[i])))
        deriv = five_point(history.coeffs[i + FIVE_POINT_OFFSETS], h)
        worst = np.maximum(worst, np.max(
            np.max(np.abs(deriv - rates), axis=per_branch)
            / (1.0 + np.max(np.abs(rates), axis=per_branch))))
    return float(worst)
