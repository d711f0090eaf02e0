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
in-place multiplies, with no complex exponential per mode.  Only
circular sources take this walk.  A switch-on is boundary active, so the
rule is first order through the panel that holds it.

Along a straight line (static and uniform worldlines) k.u is linear in
x0: with a_j the switch-on time of source j and s_j = k.udot_j /
udot_j^0 > 0, its rate on slices y >= t >= a_j is rate_j(t) exp(pm i
s_j (y - t)).  On Simpson's uniform nodes the phases form a geometric
sequence, so evolve_amplitudes adds a straight source's sums as the
series' closed sum, one per kept slice and the same for both save
modes, over the rows _straight_source gives (_add_straight_simpson).
It starts at t_h, the first panel boundary at or after the first node
active_at admits, the panel that ends on t_h one more term of it, so
the source walks only the node t_h.  With L =
x0 - a_j the coefficient integral itself has the closed form (the
degenerate case of Filon quadrature)

    C_pm(x0) = sum_j rate_j,pm(a_j) L exp(pm i s_j L / 2) sinc(s_j L / 2),

written with sinc so that it stays accurate as s_j L -> 0.
straight_line_amplitudes evaluates it on any slice; circular orbits
still need the walk.  s_j and rate_j(a_j) depend on the source only,
and _straight_source is the one reader of a straight source: it gives
them, with k0, over the source's rows and the index that gathers the
rows by mode.  The rows are the modes for a source that moves.  For a
static one the spatial terms of k.udot are exact zeros, so its sums are
functions of k0 alone: its rows are the grid's k0 table
(ModeGrid.waves), about 1,800 values for the 110,592 modes of a 48^3
grid, and each result is gathered by each mode's index into it, bit for
bit what the per-mode rows give.  _straight_line_mean gives the mean
over uniform slices of the coefficients carried to one reference slice
t_ref by their free phase exp(mp i k0 (t - t_ref)): the time average
averaged_profile reconstructs at its points.  On uniform slices its
phases turn by a fixed factor per slice, so it rotates them, every row
at once, instead of re-evaluating them.

reconstruct_field sums the modes at any points, one (N, points) phase
block per call.  The time average's points share one slice t, so
averaged_profile sums them otherwise: with x = (t, p) and G_pm = w
exp(mp i k0 t) C_pm the field is sum_k G_pm exp(pm i k.p), one
PlaneWaves.sum_at call per branch, which sums a full cube grid axis by
axis and any other grid with one phase block.  The mean comes as G
directly: w exp(mp i k0 t) joins its factor g_j before g_j scales the
rates, so no pass over the coefficients is added.
"""
from __future__ import annotations

import math
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
# complex entries of the history-shaped arrays of one block: the
# (slices, N x components) closed sums times rates a straight source adds
# to a history, and mode_equation_residual's (samples, branches x N x
# components) rates and derivatives
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
    chunk = max(1, _BLOCK_WORK // max(1, n * n_b * n_comp))
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


def _walk_simpson(field, worldlines, grid, nodes, h, out) -> None:
    """Add the Simpson sums of the circular worldlines over the panels of
    width h of the 2 S + 1 nodes to the history out in place, as windows
    of _window_sums, weighted h/6 at panel boundaries and 4h/6 at
    midpoints.  With one slice (save="last") out[0] gets one window of
    every node, each inner boundary weighted h/3 as it ends one panel
    and starts the next; otherwise window i is panel i, nodes 2i to
    2i + 2, written to out[i + 1], and each slice is then the one before
    it plus its panel's sum."""
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
    for i in range(len(out) - 1):
        np.add(out[i], out[i + 1], out=out[i + 1])


def _straight_source(field, worldline, grid, x0):
    """(k0, s_j, index, R_j) of a static or uniform source: the turn rate
    s_j = k.udot_j / udot_j^0 of its phase and k0 over its rows, the
    index (N,) that gathers the rows by mode (None: the rows are the
    modes), and R_j, its rates on a slice x0 at or after its switch-on,
    over the grid, (branches, N, *component_shape), from one one-node
    _node_rates call: on a slice y >= x0 its rate is R_j exp(pm i s_j (y
    - x0)).  With no spatial velocity gamma = 1 and the spatial terms of
    k.udot are exact zeros, so s_j = k0 bit for bit and the rows are the
    grid's k0 table."""
    _, udot = worldline.state(worldline.tau_on)
    rate = _node_rates(field, [worldline], grid.waves, np.array([x0]))[0]
    if np.any(udot[1:]):
        return grid.k0, (grid.k @ lower_index(udot)) / udot[0], None, rate
    k0, index = grid.waves.tables[0]
    return k0, k0, index, rate


def _add_straight_simpson(field, worldline, grid, nodes, h, out) -> None:
    """Add the Simpson sums of one static or uniform source over the
    panels of width h of the 2 S + 1 nodes to the history out in place:
    to out[0] the sum over every panel when out has one slice
    (save="last"), otherwise to out[i] the sum over panels 0..i - 1.

    Its first active node (active_at) fixes t_h, the first panel
    boundary at or after it.  On t_h and later the rate is R_j z(t),
    conj z(t) for minus, R_j from _straight_source on t_h and z(t) =
    exp(i s_j (t - t_h)), so the panel that ends on t_h adds R_j L, L =
    (h/6)(1 + 4 conj q) if its midpoint is active, h/6 if only t_h is
    and 0 if t_h is the first node, and panel i past t_h adds R_j P
    z(t_i), P = (h/6)(1 + 4q + q^2), q = exp(i s_j h / 2): a geometric
    series turning by q^2 per panel.  The slice m panels past t_h adds
    its closed sum R_j (L + P exp(i (m - 1) theta) sin(m theta) /
    sin(theta)), theta = s_j h / 2 taken mod pi (R_j P m where
    sin(theta) is 0): for m = 0..K in blocks of _SERIES_BLOCK entries
    with save="all", for m = K alone with save="last", through the same
    lines, so the two agree bit for bit.  s_j, theta, L and P run over
    _straight_source's rows (for a static source the k0 table) and are
    gathered by mode.
    """
    # | also broadcasts an active_at that answers with one bool
    active = np.flatnonzero(np.zeros(len(nodes), bool)
                            | worldline.active_at(nodes))
    if not active.size:
        return
    first = active[0]
    head = (first + 1) // 2  # t_h = nodes[2 head]
    _, s, index, rate = _straight_source(field, worldline, grid,
                                         nodes[2 * head])
    q = np.exp(0.5j * s * h)
    panel = h / 6.0 * (1.0 + 4.0 * q + q * q)
    # the panel that ends on t_h: R_j on t_h and R_j conj(q) on its
    # midpoint, each where active
    lead = h / 6.0 * ((first > 0) + 4.0 * (first % 2) * np.conj(q))
    theta = 0.5 * s * h
    theta -= np.pi * np.round(theta / np.pi)  # only q^2 turns
    sin = np.sin(theta)
    slices = out.reshape(len(out), len(rate), -1)  # a view
    tail = slices[head:] if len(out) > 1 else slices
    m0 = len(nodes) // 2 - head + 1 - len(tail)  # panels up to tail[0]
    block = max(1, _SERIES_BLOCK // max(1, len(grid) * field.n_components))
    for lo in range(0, len(tail), block):
        dst = tail[lo:lo + block]
        m = np.arange(m0 + lo, m0 + lo + len(dst), dtype=float)[:, None]
        ratio = np.divide(np.sin(m * theta), sin,
                          out=np.full((len(m), len(s)), m),
                          where=sin != 0.0)
        sums = panel * ratio * np.exp(1j * ((m - 1.0) * theta))
        sums += lead
        if index is not None:
            sums = sums[:, index]
        # each mode's sum repeated over its components: one long inner
        # loop against the flat rates, not one of n_components per mode
        for b, (r, g) in enumerate(zip(rate.reshape(len(rate), -1),
                                       with_conjugate(sums))):
            g = np.repeat(g, field.n_components, axis=1)
            g *= r
            dst[:, b] += g


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
                        t_ref, weighted=False):
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
    the rows _straight_source gives, all at once: every mode, or for a
    static source each distinct k0 once, gathered by mode after the
    loop.  Each switch-on rate is computed once and scaled by g_j in
    place: the first active source's array is the sum the later ones are
    added to, so at most two coefficient arrays are held at a time.  One
    slice at t_ref gives D = C(t_ref), (branches, N, *component_shape).
    weighted gives G_pm = w exp(mp i k0 t_ref) D_pm instead, the terms
    averaged_profile sums on slice t_ref: exp(-i k0 t_ref) scales g_j on
    its rows and w after the gather, so the coefficients still take one
    pass.
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
        k0, s, index, rates = _straight_source(field, w, grid, start)
        c = 0.5 * s
        z = np.exp(1j * c * (times[skip] - start))
        zw = z * np.exp(-1j * k0 * (times[skip] - t_ref))
        turn = np.exp(1j * c * spacing)
        turn_w = turn * np.exp(-1j * k0 * spacing)
        mean = z.imag * zw
        for _ in range(skip + 1, count):
            z *= turn
            zw *= turn_w
            mean += z.imag * zw
        mean /= c * count
        if weighted:
            mean *= np.exp(-1j * t_ref * k0)
        if index is not None:
            mean = mean[index]
        if weighted:
            mean *= grid.weight
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
    if not (math.isfinite(x0_start) and math.isfinite(x0_end)):
        raise ValueError(f"x0_start and x0_end must be finite, got "
                         f"{x0_start} and {x0_end}")
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
    sums, switch-on panel included, as geometric series
    (_add_straight_simpson), on the same nodes.
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
    nodes = np.empty(2 * steps + 1)
    nodes[0::2] = times
    nodes[1::2] = times[:-1] + 0.5 * h
    # rates are linear in the sources: circular ones take the node walk,
    # and each straight one then adds its series
    circular = [w for w in worldlines or [] if not w.straight]
    if circular:
        _walk_simpson(field, circular, grid, nodes, h, out)
    elif save == "all" and any(init is not None for init in inits):
        out[1:] = out[0]  # np.zeros already zeroed the other slices
    for w in worldlines or []:
        if w.straight:
            _add_straight_simpson(field, w, grid, nodes, h, out)
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
    total = sum(ph.T @ c.reshape(len(c), math.prod(c.shape[1:]))
                for c, ph in zip(coeffs, with_conjugate(phase)))
    return field.field_value(total.reshape(x.shape[:-1]
                                          + coeffs[0].shape[1:]))


def averaged_profile(field, worldlines, grid, points, center: float,
                     period: float, n_samples: int = 32):
    """Time-averaged reconstruction at fixed spatial points.

    Averages over n_samples slices t at the midpoints of one period
    centered at `center`.  A value is linear in the mode coefficients,
    and with x = (t, p) the phase factors as e^{-ik.x} = e^{-ik0 t}
    e^{+ik.p}, so the average is taken on the coefficients before any
    sum over modes: with t_ref = center,

        D_pm = (1/S) sum_t C_pm(t) exp(mp i k0 (t - t_ref)),

    C_pm(t) the closed form for straight worldlines (exact from each
    switch-on, no time stepping; a source adds nothing on slices up to
    its own switch-on), and each point p of points (..., 3) is
    reconstructed once, at (t_ref, p), giving points.shape[:-1] +
    component_shape, the leading axes kept as reconstruct_field keeps
    them.
    The em field's 2 Re is linear too.  The samples are uniform, so the
    sum over them rotates each mode's phases by a fixed factor per
    sample; a static source's sum depends on k0 alone and runs once per
    distinct k0 of the grid, then is gathered by mode (see
    _straight_line_mean).  Averaging over a full period suppresses the
    oscillatory transient left by the switch-on, so the result
    approximates the steady field.  Raises ValueError, naming the
    argument, for no worldlines, an n_samples that is not an integer >= 1,
    a center that is not finite, a period that is not positive and
    finite or points that are not spatial 3-vectors, and for a circular
    source.

    The points share the slice t_ref, so the mode sum runs for all of
    them at once: the mean comes weighted by w exp(mp i k0 t_ref),
    folded into each source's factor before it scales the rates, then
    each branch is one PlaneWaves.sum_at call.  On a full cube grid that
    goes axis by axis, one BLAS product contracting the first axis of
    every point, (P x n) @ (n x n^2 components), and small batched
    products the other two; any other grid takes one (N, P) phase block.
    The working set is the mean's coefficients plus one source's at a
    time, each (branches, N, *component_shape): 7 MB for em on a 48^3
    grid; the cube's sum adds the (P, n^2 components) first contraction
    (0.7 MB at 5 points).  A grid with no modes, or no points, gives
    zeros of the result's shape.
    """
    if not worldlines:
        raise ValueError("worldlines must hold at least one source")
    if not isinstance(n_samples, (int, np.integer)) or n_samples < 1:
        raise ValueError(f"n_samples must be an integer >= 1, got "
                         f"{n_samples!r}")
    if not math.isfinite(center):
        raise ValueError(f"center must be finite, got {center}")
    if not 0.0 < period < math.inf:
        raise ValueError(f"period must be positive and finite, got {period}")
    points = np.asarray(points, dtype=float)
    if points.shape[-1:] != (3,):
        raise ValueError(f"points must be spatial 3-vectors, (..., 3), got "
                         f"shape {points.shape}")
    t_on = min(w.switch_on_time() for w in worldlines)
    spacing = period / n_samples
    first = center - 0.5 * (period - spacing)
    if first <= t_on:
        raise ValueError("averaging window starts before the switch-on")

    terms = _straight_line_mean(field, worldlines, grid, first, spacing,
                                n_samples, center, weighted=True)
    total = sum(grid.waves.sum_at(c, points, sign)
                for c, sign in zip(terms, (1, -1)))
    return field.field_value(total.reshape(points.shape[:-1]
                                           + total.shape[1:]))


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
    block = max(1, _SERIES_BLOCK // max(1, c[0].size))
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
        # initial=0.0: a grid with no modes has no defect
        ratio = (np.max(np.abs(d), axis=per_branch, initial=0.0)
                 / (1.0 + np.max(np.abs(rates), axis=per_branch,
                                 initial=0.0)))
        worst = np.max(ratio, where=keep[lo - 2:hi - 2, None], initial=worst)
    return float(worst)
