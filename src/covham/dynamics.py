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

_crossings is the one walk over the worldline crossings: for an array
of slices it returns, for each source active on some slice, u_j, udot_j
and the species current (U_j, udot_{j nu} or xi_j above) on every
slice (u^0 the slice time itself), a slice before the switch-on taking
the switch-on state, each source taking all its slices in one array
call.  _window_sums contracts the currents with the plane-wave phases
and the rate normalization into weighted sums over windows of slices;
source_terms, the walk's one-slice view, gives the generator J and its
gradients in canonical.py the same terms.

The stored families, the rate normalizations and the spinor's
kappa pm slash(k) come from the species table (fields.FieldSpec).  The
families are an array axis: a slice's rates or coefficients are one
(branches, N, *component_shape) array, AmplitudeHistory.coeffs stacks
the slices in front, and the public (plus, minus) pairs are its views.

The integrator is composite Simpson over uniform panels, globally fourth
order.  Rates do not depend on the state and are linear in each source's
current, so every weighted sum of them over nodes t is one product.
Each row r pairs a node t with a source j, node-major, and window o
covers the width nodes from o step on:

    sum_{t in o} W[t] dC_pm/dx0(t) = S_pm (E or conj E)[:, o] @ Cur_pm[o],
    E[n, r] = exp(i k_n.u_r),  Cur_pm[r] = norm_pm W[t] g_j current_j
                                          / udot_j^0,

with S_pm = kappa pm slash(k) for the spinor (identity otherwise) and
Cur_pm zero on a row before the source's switch-on.  The minus branch
takes conj E @ Cur_- as conj(E @ conj Cur_-), so one phase block E
serves both.  _window_sums makes, per chunk of nodes, one crossing walk
(a row at every node for each source active on some node of the chunk,
so only the chunk holding a switch-on carries rows of zero current),
one phase block E and one np.matmul of the windows of E's columns and
of the rows of Cur, strided views with no copy, every branch in the
product's stack; the conjugation and S_pm then act once per window.
Its callers are window shapes: per-slice rates (_node_rates, and
through it mode_equation_residual, source_rate and the rate R_j below)
take windows of one node, so the residual checks a history against
rates evaluated on each stencil sample; the Simpson walk (_walk_simpson)
gives a save="all" history one window per panel, 3 nodes at step 2
weighted h/6, 4h/6, h/6, and adds each panel to the slice before it;
save="last" takes one window of every node with the composite weights
(h/3 at inner panel boundaries), in parts of a chunk each, summed.  A
chunk holds _BLOCK_WORK / (N x branches x components) nodes, so its
product, N x branches x components per node and source, and its phase
block stay small whatever the step count.  E comes from the grid's
cached phase tables (modes.PlaneWaves): one cos and sin per distinct
value of each k component and crossing, then four gathers and three
in-place multiplies, with no complex exponential per mode.  Every panel
that holds a switch-on takes this walk, for any source shape; splitting
it there, for fourth order through it, would only add nodes and weights.

Along a straight line (static and uniform worldlines) k.u is linear in
x0: with a_j the switch-on time of source j and s_j = k.udot_j /
udot_j^0 > 0, its rate on slices y >= t >= a_j is rate_j(t) exp(pm i
s_j (y - t)).  On Simpson's uniform nodes the phases form a geometric
sequence, so evolve_amplitudes adds a straight source's tail, its panels
from the first boundary t_h >= a_j on, as a geometric series anchored at
t_h (_add_straight_simpson), with no crossing walk or phase block per
node; only its switch-on panel takes the walk.  With L = x0 - a_j the
coefficient integral itself has the closed form (the degenerate case of
Filon quadrature)

    C_pm(x0) = sum_j rate_j,pm(a_j) L exp(pm i s_j L / 2) sinc(s_j L / 2),

written with sinc so that it stays accurate as s_j L -> 0.
straight_line_amplitudes evaluates it on any slice; circular orbits
still need the walk.  s_j and rate_j(a_j) depend on the source only
(_straight_source), so _straight_line_mean computes them once per
source and also gives the mean over uniform slices of the coefficients
carried to one reference slice t_ref by their free phase exp(mp i k0 (t
- t_ref)): the time average verify.averaged_profile reconstructs at its
points.  On uniform slices its phases turn by a fixed factor per slice,
so it rotates them, _MODE_SLICE rows at a time, instead of re-evaluating
them.  The rows are the modes for a source that moves.  For a static one
the spatial terms of k.udot are exact zeros, so the mean is a function
of k0 alone: its rows are the grid's k0 table (ModeGrid.waves), about
1,800 values for the 110,592 modes of a 48^3 grid, and the result is
gathered by each mode's index into it, bit for bit what the per-mode
rows give.

reconstruct_field sums the modes at any points, one (N, points) phase
block per call.  Points that share one slice t take _slice_profile
instead: on a cube grid k = (k0, a_i, a_j, a_l) over the axis a, so with
G_pm = w exp(mp i k0 t) C_pm the sum factors as G_pm contracted with
exp(pm i a p_x), exp(pm i a p_y) and exp(pm i a p_z) axis by axis
(_axis_sum): one BLAS product (P x n) @ (n x n^2 components) for the
first axis and small batched ones for the other two, after one pass
that scales the coefficients into G in place.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dirac import interaction_spinor
from .fields import FieldSpec, family_pair, with_conjugate
from .minkowski import lower_index
from .modes import ModeGrid, PlaneWaves
from .worldlines import Worldline, equal_time_crossing

# complex multiply-adds per source of one chunk's product (see the module
# docstring): N x branches x components per node sizes the node chunks
_BLOCK_WORK = 2**19
# rows per slice of the rotated time average: bounds its per-row arrays
_MODE_SLICE = 4096
# complex entries of the history-shaped arrays of one block: the
# (panels, N) series and (slices, N x components) products a straight
# source adds to a history, and mode_equation_residual's (samples,
# branches x N x components) rates and derivatives
_SERIES_BLOCK = 2**15
# a slice counts as before a switch-on when it is more than this earlier
SWITCH_ON_SLACK = 1e-12


def _crossings(field: FieldSpec, worldlines: list[Worldline] | None,
               nodes: np.ndarray) -> list[tuple]:
    """The one walk over the worldline crossings of the slices nodes (T,).

    One (worldline, active, u, udot, current) per source active on some
    slice, each at every slice: active (T,) says where it is, u and udot
    at the crossings (T, 4) and the species current (T,
    *component_shape), from one array call each of active_at,
    equal_time_crossing, state and, for the spinor, interaction_spinor.
    A slice before the switch-on takes the crossing clamped to it, the
    switch-on state.  current is the species coupling of the source
    before its strength and 1 / udot^0: the lowered velocity monomial U
    of the field rank (1 for scalars, udot_nu for em) or the interaction
    spinor xi(tau*) for the spinor species.
    """
    out = []
    for w in worldlines or []:
        # | also broadcasts an active_at that answers with one bool
        active = np.zeros(nodes.shape, bool) | w.active_at(nodes)
        if not active.any():
            continue
        on = np.maximum(nodes, w.switch_on_time())
        u, udot = w.state(equal_time_crossing(w, on))
        u[:, 0] = on  # exact, where t_start + gamma tau* rounds
        if field.kind == "spinor":
            if w.xi is None:
                raise ValueError(
                    "spinor field needs coupling spinors on every worldline"
                )
            current = interaction_spinor(w.xi, udot)
        else:
            current, low = np.ones(len(nodes)), lower_index(udot)
            for _ in range(field.rank):
                current = np.einsum("r...,ra->r...a", current, low)
        out.append((w, active, u, udot, current))
    return out


def source_terms(field: FieldSpec, worldlines: list[Worldline] | None,
                 x0: float) -> list[tuple]:
    """(worldline, u, udot, current) for every source active on slice x0:
    the one-node view of the crossing walk (see _crossings)."""
    return [(w, u[0], udot[0], current[0]) for w, _, u, udot, current
            in _crossings(field, worldlines, np.array([x0], dtype=float))]


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
    one-node case of _node_rates, on phase tables built for this k;
    callers that hold a grid use its cached ModeGrid.waves.
    """
    k = np.asarray(k, dtype=float)
    rates = _node_rates(field, worldlines, PlaneWaves(np.atleast_2d(k)),
                        np.array([x0], dtype=float))[0]
    return family_pair(rates[:, 0] if k.ndim == 1 else rates)


def _node_rates(field, worldlines, waves, nodes) -> np.ndarray:
    """dC/dx0 on each slice of nodes (T,) for the modes waves.k (N, 4) of
    the PlaneWaves waves: (T, branches, N, *component_shape), exact
    zeros on a slice no source is active on.  The windows of
    _window_sums one node wide, weighted 1."""
    out = np.empty((len(nodes), len(field.branches), len(waves.k))
                   + field.component_shape, dtype=complex)
    _window_sums(field, worldlines, waves, nodes, np.ones(len(nodes)), 1, 1,
                 out)
    return out


def _window_sums(field, worldlines, waves, nodes, weights, width, step,
                 out) -> None:
    """Write sum_t weights[t] dC/dx0(nodes[t]) over window o, the width
    consecutive nodes from o step on, to out[o], a C-contiguous
    (windows, branches, N, *component_shape), for the modes waves.k
    (N, 4) of the PlaneWaves waves; a node no source is active on adds
    exact zeros.

    A chunk holds whole windows within _BLOCK_WORK / (N x branches x
    components) nodes, or one such part of a wider window, the parts
    added up; per chunk one crossing walk, one phase block E and one
    product, as the module docstring sets out.
    """
    n, n_b, n_comp = len(waves.k), len(field.branches), field.n_components
    chunk = max(1, _BLOCK_WORK // (n * n_b * n_comp))
    per = max(1, (chunk - width) // step + 1)  # whole windows per chunk
    out = out.reshape(len(out), n_b, n, n_comp)
    ops = waves.shell_operators(field) if field.kind == "spinor" else None
    part = np.empty_like(out[:1]) if width > chunk else None
    for first in range(0, len(out), per):
        last = min(first + per, len(out))
        end = (last - 1) * step + width
        sums, filled = out[first:last], False
        for lo in range(first * step, end, chunk):
            hi = min(lo + chunk, end)
            rows = _crossings(field, worldlines, nodes[lo:hi])
            if not rows:
                continue
            # node-major rows, (nodes x sources, branches, components); the
            # weighted current goes to the last branch, whose norm is
            # applied last, in place
            cur = np.empty((hi - lo, len(rows), n_b, n_comp), dtype=complex)
            for j, (w, active, _, udot, current) in enumerate(rows):
                scale = np.where(active, weights[lo:hi], 0.0) * (
                    w.coupling) / udot[:, 0]
                np.multiply(scale[:, None], current.reshape(hi - lo, n_comp),
                            out=cur[:, j, -1])
            for b, norm in enumerate(field.rate_norms):
                np.multiply(cur[:, :, -1], norm, out=cur[:, :, b])
            # minus: norm_- conj(E) @ Cur = conj(E @ conj(norm_- Cur)), the
            # outer conj taken once the window is summed
            cur = cur.reshape(-1, n_b, n_comp)
            if n_b == 2:
                np.conj(cur[:, 1], out=cur[:, 1])
            phases = waves.at(
                np.stack([r[2] for r in rows], axis=1).reshape(-1, 4), +1)
            span, jump = min(width, hi - lo) * len(rows), step * len(rows)
            # every branch in one product, E's windows broadcast
            np.matmul(_windows(phases, span, jump, 1)[:, None],
                      _windows(cur, span, jump, 0).transpose(0, 2, 1, 3),
                      out=part if filled else sums)
            if filled:
                sums += part
            filled = True
        if not filled:
            sums[...] = 0.0
            continue
        if n_b == 2:
            np.conj(sums[:, 1], out=sums[:, 1])
        if ops is not None:
            for b, op in enumerate(ops):
                sums[:, b] = (op @ sums[:, b, :, :, None])[..., 0]


def _windows(a, span, jump, axis):
    """The windows of span entries, jump apart, along axis of the
    C-contiguous a, in front: sliding_window_view(a, span, axis)[::jump]
    with its window axis in place of axis, a view built directly, since
    sliding_window_view's checks cost more than a small product."""
    shape, strides = list(a.shape), list(a.strides)
    count = (shape[axis] - span) // jump + 1
    shape[axis] = span
    return np.ndarray([count] + shape, a.dtype, a, 0,
                      [jump * strides[axis]] + strides)


def _walk_simpson(field, worldlines, grid, times, h, out) -> None:
    """Add the Simpson sums of the worldlines over the panels of times
    (S + 1,), of width h, to the history out in place, as windows of
    _window_sums over the 2 S + 1 nodes, weighted h/6 at panel
    boundaries and 4h/6 at midpoints.  With one slice (save="last")
    out[0] gets one window of every node, each inner boundary weighted
    h/3 as it ends one panel and starts the next; otherwise window i is
    panel i, nodes 2i to 2i + 2, written to out[i + 1], and each slice
    is then the one before it plus its panel's sum."""
    steps = len(times) - 1
    nodes = np.empty(2 * steps + 1)
    nodes[0::2] = times
    nodes[1::2] = times[:-1] + 0.5 * h
    weights = np.full(len(nodes), 4.0 * h / 6.0)
    weights[0::2] = h / 6.0
    if len(out) == 1:
        weights[2:-1:2] = h / 3.0
        total = np.empty_like(out)
        _window_sums(field, worldlines, grid.waves, nodes, weights,
                     len(nodes), len(nodes), total)
        out += total
        return
    _window_sums(field, worldlines, grid.waves, nodes, weights, 3, 2, out[1:])
    # one add per slice: np.cumsum over axis 0 runs one short loop per
    # mode and component, about ten times slower here
    for i in range(steps):
        np.add(out[i], out[i + 1], out=out[i + 1])


def _straight_source(field, worldline, grid, k, x0):
    """(s_j, R_j) of a static or uniform source: the turn rate s_j =
    k.udot_j / udot_j^0 of its phase over the rows k (M, 4), and R_j, its
    rates on a slice x0 at or after its switch-on, over the grid,
    (branches, N, *component_shape), from one one-node _node_rates call:
    on a slice y >= x0 its rate is R_j exp(pm i s_j (y - x0))."""
    _, udot = worldline.state(worldline.tau_on)
    rate = _node_rates(field, [worldline], grid.waves, np.array([x0]))[0]
    return (k @ lower_index(udot)) / udot[0], rate


def _add_straight_simpson(field, worldline, grid, times, h, out) -> None:
    """Add the Simpson sums of one static or uniform source over the
    panels of times (S + 1,), of width h, to the history out in place:
    to out[0] the sum over every panel when out has one slice
    (save="last"), otherwise to out[i + 1] the sum over panels 0..i.

    On the tail, the panels from the first boundary t_h >= a_j on, the
    rate is R_j z(t), conj z(t) for minus, R_j from _straight_source on
    t_h and z(t) = exp(i s_j (t - t_h)), so panel i adds R_j P z(t_i),
    P = (h/6)(1 + 4q + q^2), q = exp(i s_j h / 2): a geometric series
    turning by q^2 per panel.  save="last" takes its closed sum, q^{K-1}
    sin(K theta) / sin(theta) with theta = s_j h / 2 taken mod pi;
    save="all" takes blocks of panels from a rotation table (cumprod)
    and running sums (cumsum), each block anchored at its exact phase.
    The panels before the tail that end on an active node (the one that
    holds the switch-on) take the walk, into a history of their own.
    """
    steps, n = len(times) - 1, len(grid)
    head = int(np.searchsorted(times, worldline.switch_on_time()))
    # | also broadcasts an active_at that answers with one bool
    ends = np.flatnonzero(np.zeros(min(head, steps), bool)
                          | worldline.active_at(times[1:head + 1]))
    if ends.size:
        first, stop = ends[0], ends[-1] + 1
        walked = np.zeros_like(out[:stop - first + 1 if len(out) > 1 else 1])
        _walk_simpson(field, [worldline], grid, times[first:stop + 1], h,
                      walked)
        out[first + 1:stop + 1] += walked[1:]  # none for save="last"
        out[stop + 1 if len(out) > 1 else 0:] += walked[-1]
        del walked
    count = steps - head  # tail panels
    if count <= 0:
        return
    s, rate = _straight_source(field, worldline, grid, grid.k, times[head])
    q = np.exp(0.5j * s * h)
    panel = h / 6.0 * (1.0 + 4.0 * q + q * q)
    if len(out) == 1:
        theta = 0.5 * s * h
        theta -= np.pi * np.round(theta / np.pi)  # only q^2 turns
        sin = np.sin(theta)
        ratio = np.divide(np.sin(count * theta), sin,
                          out=np.full(n, float(count)), where=sin != 0.0)
        total = panel * ratio * np.exp(1j * (count - 1) * theta)
        expand = (n,) + (1,) * len(field.component_shape)
        for cf, r, g in zip(out[0], rate, with_conjugate(total)):
            cf += r * g.reshape(expand)
        return
    block = max(1, _SERIES_BLOCK // n)  # panels per block of sums
    sub = max(1, _SERIES_BLOCK // (n * field.n_components))  # per product
    turns = np.empty((min(block, count), n), dtype=complex)
    turns[0] = panel
    turns[1:] = np.exp(1j * s * h)
    np.cumprod(turns, axis=0, out=turns)  # P q^{2j}
    series = np.empty_like(turns)
    conj = np.empty_like(series)
    prod = np.empty((sub, n, field.n_components), dtype=complex)
    rates = rate.reshape(len(rate), n, -1)
    slices = out.reshape(len(out), len(rate), -1)  # a view, N x components
    carry = 0.0
    for lo in range(head, steps, block):
        hi = min(lo + block, steps)
        sums = series[:hi - lo]
        # anchored at its exact phase
        np.multiply(turns[:hi - lo],
                    np.exp(1j * s * (times[lo] - times[head])), out=sums)
        np.cumsum(sums, axis=0, out=sums)
        sums += carry
        carry = sums[-1].copy()
        for b, r in enumerate(rates):
            g = np.conj(sums, out=conj[:hi - lo]) if b else sums
            for w0 in range(lo, hi, sub):
                w1 = min(w0 + sub, hi)
                part = prod[:w1 - w0]
                np.multiply(g[w0 - lo:w1 - lo, :, None], r, out=part)
                dst = slices[w0 + 1:w1 + 1, b]
                np.add(dst, part.reshape(w1 - w0, -1), out=dst)


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
    per slice.  g_j depends on k only through k0 and c, so it runs over
    the rows _mean_modes gives, _MODE_SLICE at a time: every mode, or for
    a static source each distinct k0 once, gathered by mode after the
    loop.  Each switch-on rate is computed once and scaled by g_j in
    place: the first active source's array is the sum the later ones are
    added to, so at most two coefficient arrays are held at a time.  One
    slice at t_ref gives D = C(t_ref), (branches, N, *component_shape).
    """
    if not all(w.straight for w in worldlines):
        raise ValueError("closed-form amplitudes need static or uniform "
                         "worldlines")
    n = len(grid)
    expand = (n,) + (1,) * len(field.component_shape)
    coeffs = None
    times = first + spacing * np.arange(count)
    for w in worldlines:
        start = w.switch_on_time()
        skip = int(np.searchsorted(times, start, side="right"))
        if skip == count:  # source j adds nothing up to its switch-on
            continue
        rows, index = _mean_modes(grid, w.state(w.tau_on)[1])
        s, rates = _straight_source(field, w, grid, rows, start)
        mean = np.empty(len(rows), dtype=complex)
        for lo in range(0, len(rows), _MODE_SLICE):
            k = rows[lo:lo + _MODE_SLICE]
            c = 0.5 * s[lo:lo + _MODE_SLICE]
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
        if index is not None:
            mean = mean[index]
        for rate, f in zip(rates, with_conjugate(mean)):
            rate *= f.reshape(expand)
        if coeffs is None:
            coeffs = rates
        else:
            coeffs += rates
    if coeffs is None:
        return np.zeros((len(field.branches), n) + field.component_shape,
                        dtype=complex)
    return coeffs


def _mean_modes(grid: ModeGrid, udot: np.ndarray):
    """The rows (M, 4) _straight_line_mean runs over for a source of
    velocity udot, and the index (N,) that gathers them by mode (None:
    the rows are grid.k).  With no spatial velocity k.udot = k0 udot^0,
    the spatial terms being exact zeros, so the rows are (k0, 0, 0, 0)
    over the grid's k0 table."""
    if np.any(udot[1:]):
        return grid.k, None
    values, index = grid.waves.tables[0]
    rows = np.zeros((len(values), 4))
    rows[:, 0] = values
    return rows, index


@dataclass(frozen=True)
class AmplitudeHistory:
    """Mode coefficients sampled along an evolution.

    x0 has shape (S,) and coeffs (S, branches, N, *component_shape), the
    branches plus then minus (the em species keeps plus only); plus and
    minus are views of it, (S, N, *component_shape), minus None when the
    history has one branch.  With save="last" only the final slice is
    kept (S = 1).
    """

    x0: np.ndarray
    coeffs: np.ndarray

    @property
    def plus(self) -> np.ndarray:
        return self.coeffs[:, 0]

    @property
    def minus(self) -> np.ndarray | None:
        return self.coeffs[:, 1] if self.coeffs.shape[1] > 1 else None

    @property
    def final_plus(self) -> np.ndarray:
        return self.plus[-1]

    @property
    def final_minus(self) -> np.ndarray | None:
        return None if self.minus is None else self.minus[-1]

    def spacing(self) -> float:
        """Uniform sample spacing; raises if sampling is not uniform."""
        return uniform_spacing(self.x0)


def uniform_spacing(x0: np.ndarray) -> float:
    """The step of the times x0 (S,) if every step matches the first to
    1e-9 of it (far from x0 = 0 they round unequal); else ValueError."""
    if len(x0) < 2:
        raise ValueError("history has no spacing with fewer than 2 samples")
    h = np.diff(x0)
    if not np.allclose(h, h[0], rtol=1e-9, atol=1e-12):
        raise ValueError("history is not uniformly sampled")
    return float(h[0])


def sample_times(x0_start: float, x0_end: float, steps: int) -> np.ndarray:
    """The steps + 1 panel boundaries evolve_amplitudes samples."""
    if x0_end <= x0_start:
        raise ValueError("x0_end must exceed x0_start")
    return np.linspace(x0_start, x0_end, steps + 1)


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
    slice the initial one plus the weighted node sums of the panels
    before it.  save="last" keeps only the final state, the initial one
    plus a single node sum over all 2 steps + 1 nodes; long evolutions
    on large grids stay in memory budget either way.  Circular sources
    take the node walk (_walk_simpson: windows of _window_sums, one per
    panel or one over every node); static and uniform ones add their
    tails as geometric series (_add_straight_simpson), walking only the
    panel that holds a switch-on and the tail's first slice.
    mode_equation_residual takes the rates of every source on each
    sample from _node_rates instead.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if save not in ("all", "last"):
        raise ValueError("save must be 'all' or 'last'")
    n_b = len(field.branches)
    times = sample_times(x0_start, x0_end, steps)
    out = np.zeros((1 if save == "last" else steps + 1, n_b, len(grid))
                   + field.component_shape, dtype=complex)
    inits = (init_plus, init_minus)[:n_b]
    for b, init in enumerate(inits):
        if init is not None:
            out[0, b] = init

    h = (x0_end - x0_start) / steps
    # rates are linear in the sources: circular ones take the node walk,
    # and each straight one then adds its series
    circular = [w for w in worldlines or [] if not w.straight]
    if circular:
        _walk_simpson(field, circular, grid, times, h, out)
    elif save == "all" and any(init is not None for init in inits):
        out[1:] = out[0]  # np.zeros already zeroed the other slices
    for w in worldlines or []:
        if w.straight:
            _add_straight_simpson(field, w, grid, times, h, out)
    return AmplitudeHistory(x0=times[-len(out):], coeffs=out)


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
    None) returns the real four-potential 2 Re sum_k w C e^{-ik.x}.  The
    (N, points) phases come from the grid's cached tables (ModeGrid.waves)
    and the mode sum is one matrix product per family.
    """
    x = np.asarray(x, dtype=float)
    phase = grid.waves.at(x, -1)
    phase *= grid.weight[:, None]
    coeffs = [np.asarray(c) for c in field.families(plus, minus,
                                                     "coefficient")]
    # phase.T is a transposed view, which the product takes as it is
    total = sum(ph.T @ c.reshape(len(grid), -1)
                for c, ph in zip(coeffs, with_conjugate(phase)))
    return field.field_value(total.reshape(x.shape[:-1]
                                          + coeffs[0].shape[1:]))


def _slice_profile(field: FieldSpec, grid: ModeGrid, coeffs: np.ndarray,
                   t: float, points: np.ndarray) -> np.ndarray:
    """Field values at the points (t, p) of one slice, p in points (P, 3),
    from the slice's coefficients (branches, N, *component_shape): what
    reconstruct_field gives at each point, (P, *component_shape).

    On a cube grid mode (i, j, l) has k = (k0, a_i, a_j, a_l), a the
    axis, so the mode sum factors axis by axis:

        value_pm(p) = sum_ijl G_pm[i, j, l] e^{pm i a_i p_x}
                      e^{pm i a_j p_y} e^{pm i a_l p_z},
        G_pm = w exp(mp i k0 t) C_pm,

    the k0 factor read off the grid's k0 table.  It scales plus and minus
    in place into G_pm, so coeffs is consumed; with every node kept the
    modes are in build_mode_grid's C order and G is a reshape, else it
    is scattered into a zero n^3 cube.  _axis_sum then contracts the first axis of every
    point with one BLAS product and the other two with small batched
    ones.  A grid with no cube (built by hand) takes one reconstruct_field
    call per point and leaves coeffs as they are.  At one point
    reconstruct_field is the faster of the two.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    if grid._cube is None:
        plus, minus = family_pair(coeffs)
        return np.asarray([reconstruct_field(field, grid, plus, minus,
                                             np.concatenate([[t], p]))
                           for p in points])
    axis, axis_index = grid._cube
    n = len(axis)
    values, index = grid.waves.tables[0]
    scale = np.exp(-1j * t * values)[index]
    scale *= grid.weight
    expand = (len(grid),) + (1,) * len(field.component_shape)
    # exp(+i a p) per spatial component, point and axis value: (3, P, n)
    factors = np.exp(1j * points.T[:, :, None] * axis)
    total = 0.0
    for c, f, fac in zip(coeffs, with_conjugate(scale),
                         with_conjugate(factors)):
        c *= f.reshape(expand)
        if len(grid) != n**3:
            full = np.zeros((n**3,) + c.shape[1:], dtype=complex)
            full[np.ravel_multi_index(axis_index, (n,) * 3)] = c
            c = full
        total = total + _axis_sum(c.reshape((n,) * 3 + (-1,)), fac)
    return field.field_value(total.reshape((len(points),)
                                           + field.component_shape))


def _axis_sum(cube: np.ndarray, factors) -> np.ndarray:
    """sum_ijl cube[i, j, l] fx[p, i] fy[p, j] fz[p, l] for each point p:
    cube (n, n, n, m), factors (fx, fy, fz) each (P, n); result (P, m)."""
    fx, fy, fz = factors
    n = len(cube)
    part = (fx @ cube.reshape(n, -1)).reshape(len(fx), n, -1)
    part = (fy[:, None, :] @ part).reshape(len(fx), n, -1)
    return (fz[:, None, :] @ part)[:, 0]


def mode_equation_residual(
    field: FieldSpec,
    worldlines: list[Worldline],
    grid: ModeGrid,
    history: AmplitudeHistory,
) -> float:
    """Max normalized defect of the coefficient evolution equation.

    The five-point central derivative of the recorded history at
    interior samples (minkowski.five_point's stencil), compared against
    the analytic rate: max |dC_fd - rate| / (1 + max |rate|) per branch,
    over samples, modes, components and branches.  Samples go in blocks
    of _SERIES_BLOCK entries: one _node_rates call, which evaluates
    exp(i k.u) on every sample afresh, and the derivative of every
    sample and branch from four shifted views of the history.  A
    stencil that straddles a switch-on a (x0[i-2] < a <= x0[i+2]) sees
    the kink in C there, not a dynamics error, and is skipped; a sample
    counts as before a when it is more than SWITCH_ON_SLACK earlier, as
    in the simulate suite's causality mask.  A NaN anywhere a stencil
    reads makes the result NaN.
    """
    x0, c = history.x0, history.coeffs
    if len(x0) < 5:
        raise ValueError("need at least 5 uniform samples for the stencil")
    h = history.spacing()
    ons = np.array([w.switch_on_time() for w in worldlines]) - SWITCH_ON_SLACK
    # per interior sample 2 .. S - 3
    keep = ~np.any((x0[:-4, None] < ons) & (ons <= x0[4:, None]), axis=1)
    per_branch = tuple(range(2, c.ndim))  # modes, comps
    block = max(1, _SERIES_BLOCK // c[0].size)
    deriv = np.empty((min(block, len(keep)),) + c.shape[1:], dtype=complex)
    worst = 0.0
    for lo in range(2, len(x0) - 2, block):
        hi = min(lo + block, len(x0) - 2)
        rates = _node_rates(field, worldlines, grid.waves, x0[lo:hi])
        # (c[i-2] - 8 c[i-1] + 8 c[i+1] - c[i+2]) / 12 h, sample i in lo..hi
        d = np.subtract(c[lo + 1:hi + 1], c[lo - 1:hi - 1],
                        out=deriv[:hi - lo])
        d *= 8.0
        d += c[lo - 2:hi - 2]
        d -= c[lo + 2:hi + 2]
        d *= 1.0 / (12.0 * h)  # a complex division costs several times more
        d -= rates
        ratio = (np.max(np.abs(d), axis=per_branch)
                 / (1.0 + np.max(np.abs(rates), axis=per_branch)))
        worst = np.max(ratio, where=keep[lo - 2:hi - 2, None], initial=worst)
    return float(worst)
