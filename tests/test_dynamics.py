"""Source rates, Simpson evolution, reconstruction, equation residuals."""

import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from covham import dynamics, verify
from covham.dynamics import (
    evolve_amplitudes,
    mode_equation_residual,
    reconstruct_field,
    source_rate,
    straight_line_amplitudes,
)
from covham.dirac import DiracCoupling, shell_projector
from covham.fields import (
    em_field,
    family_pair,
    scalar_field,
    spinor_field,
    tensor_field,
    with_conjugate,
)
from covham.minkowski import (FIVE_POINT_OFFSETS, five_point,
                              minkowski_dot, on_shell_k)
from covham.modes import ModeGrid, PlaneWaves, build_mode_grid
from covham.verify import averaged_profile
from covham.worldlines import (
    circular_worldline,
    static_worldline,
    uniform_worldline,
)

SCALAR = scalar_field()  # s = m = c = 1: a2 = 1, kappa = 1
EM = em_field()
SPINOR = spinor_field()


def closed_form_static_scalar(k, x0, g=1.0, a2=1.0, t_on=0.0):
    """C_pm(x0) for a static unit source at the origin switched on at t_on."""
    k0 = k[0]
    c_plus = -(g / a2) * (np.exp(1j * k0 * x0) - np.exp(1j * k0 * t_on)) / k0
    return c_plus, np.conj(c_plus)


class TestSourceRate:
    def test_static_scalar_modulus_and_phase(self):
        w = static_worldline([0, 0, 0], coupling=2.0)
        k = on_shell_k([0.3, -0.4, 0.5], 1.0)
        rp, rm = source_rate(SCALAR, [w], k, x0=1.7)
        assert abs(rp) == pytest.approx(2.0, rel=1e-14)  # g / |a2|
        assert rp == pytest.approx(-2.0j * np.exp(1j * k[0] * 1.7), rel=1e-13)
        assert abs(rm) == pytest.approx(2.0, rel=1e-14)

    def test_minus_rate_is_conjugate_with_opposite_sign_prefactor(self):
        w = static_worldline([0.4, -1.0, 0.2], coupling=0.7)
        k = on_shell_k([1.0, 2.0, -0.5], 2.0)
        rp, rm = source_rate(SCALAR, [w], k, x0=0.9)
        # real source: rates of the two families are mutual conjugates
        assert rm == pytest.approx(np.conj(rp), rel=1e-13)

    def test_inactive_source_gives_zero(self):
        w = static_worldline([0, 0, 0], coupling=1.0, t_start=5.0)
        k = on_shell_k([1.0, 0, 0], 1.0)
        rp, rm = source_rate(SCALAR, [w], k, x0=4.999)
        assert rp == 0.0 and rm == 0.0

    def test_switch_on_boundary_is_active(self):
        w = static_worldline([0, 0, 0], coupling=1.0, t_start=5.0)
        k = on_shell_k([1.0, 0, 0], 1.0)
        rp, _ = source_rate(SCALAR, [w], k, x0=5.0)
        assert abs(rp) == pytest.approx(1.0, rel=1e-14)

    def test_em_rate_tracks_lowered_velocity(self):
        w = uniform_worldline([0, 0, 0], [0.6, 0, 0], coupling=1.0)
        k = on_shell_k([0.0, 1.0, 0.0], 0.0)
        rate, none = source_rate(EM, [w], k, x0=1.0)
        assert none is None
        # components proportional to lowered udot = (1.25, -0.75, 0, 0)
        assert rate[1] / rate[0] == pytest.approx(-0.6, rel=1e-13)
        assert rate[2] == 0.0 and rate[3] == 0.0
        assert abs(rate[0]) == pytest.approx(4.0 * np.pi, rel=1e-13)

    def test_em_static_rate_phase(self):
        w = static_worldline([0, 0, 0], coupling=1.5)
        k = on_shell_k([0.0, 0.0, 2.0], 0.0)
        rate, _ = source_rate(EM, [w], k, x0=0.25)
        assert rate[0] == pytest.approx(6j * np.pi * np.exp(1j * 0.5), rel=1e-13)

    def test_tensor_rank2_outer_structure(self):
        field = tensor_field(rank=2, a2=1.0, b2=1.0)
        w = uniform_worldline([0, 0, 0], [0.6, 0, 0], coupling=1.0)
        k = on_shell_k([0.2, 0.0, 0.0], 1.0)
        rp, _ = source_rate(field, [w], k, x0=0.8)
        udot_low = np.array([1.25, -0.75, 0.0, 0.0])
        expected = np.multiply.outer(udot_low, udot_low)
        assert np.allclose(rp, expected / expected[0, 0] * rp[0, 0], atol=1e-13)

    def test_spinor_rates_live_in_projector_ranges(self):
        xi = DiracCoupling(xi1=np.array([1.0, 0.5j, -0.25, 0.1]),
                           xi2=np.array([0.2, 0.0, 0.3j, 0.0]))
        w = static_worldline([0.1, 0.2, 0.3], coupling=1.0, xi=xi)
        k = on_shell_k([0.5, -0.3, 0.8], 1.0)
        rp, rm = source_rate(SPINOR, [w], k, x0=0.6)
        p_plus = shell_projector(k, 1.0, +1)
        p_minus = shell_projector(k, 1.0, -1)
        # (kappa pm slash k) projects onto the branch subspaces
        assert np.max(np.abs(p_minus @ rp)) < 1e-13
        assert np.max(np.abs(p_plus @ rm)) < 1e-13

    def test_spinor_without_coupling_data_raises(self):
        w = static_worldline([0, 0, 0], coupling=1.0)
        k = on_shell_k([0, 0, 1.0], 1.0)
        with pytest.raises(ValueError, match="coupling spinors"):
            source_rate(SPINOR, [w], k, x0=1.0)

    def test_batched_matches_single(self):
        w = static_worldline([1.0, 0, 0], coupling=1.0)
        grid = build_mode_grid(kmax=1.0, n_per_axis=2, kappa=1.0)
        rp_batch, _ = source_rate(SCALAR, [w], grid.k, x0=2.0)
        for i in (0, 3, 7):
            rp, _ = source_rate(SCALAR, [w], grid.k[i], x0=2.0)
            assert rp == pytest.approx(rp_batch[i], rel=1e-15)


class TestEvolve:
    def test_matches_closed_form_static_scalar(self):
        w = static_worldline([0, 0, 0], coupling=1.0)
        grid = build_mode_grid(kmax=1.5, n_per_axis=3, kappa=1.0)
        hist = evolve_amplitudes(SCALAR, [w], grid, 0.0, 3.0, steps=150)
        for i in range(len(grid)):
            cp, cm = closed_form_static_scalar(grid.k[i], 3.0)
            assert hist.final_plus[i] == pytest.approx(cp, abs=1e-9)
            assert hist.final_minus[i] == pytest.approx(cm, abs=1e-9)

    def test_fourth_order_convergence(self):
        w = static_worldline([0, 0, 0], coupling=1.0)
        grid = build_mode_grid(kmax=2.0, n_per_axis=1, kappa=1.0)

        def err(steps):
            hist = evolve_amplitudes(SCALAR, [w], grid, 0.0, 2.0, steps=steps,
                                     save="last")
            cp, _ = closed_form_static_scalar(grid.k[0], 2.0)
            return abs(hist.final_plus[0] - cp)

        e1, e2 = err(8), err(16)
        assert np.log2(e1 / e2) == pytest.approx(4.0, abs=0.4)

    def test_causality_is_exact(self):
        w = static_worldline([0, 0, 0], coupling=1.0, t_start=5.0)
        grid = build_mode_grid(kmax=1.0, n_per_axis=2, kappa=0.5)
        init = (0.3 + 0.4j) * np.ones(len(grid))
        hist = evolve_amplitudes(SCALAR, [w], grid, 0.0, 4.5, steps=90,
                                 init_plus=init, init_minus=2.0 * init)
        assert np.array_equal(hist.final_plus, init)
        assert np.array_equal(hist.final_minus, 2.0 * init)

    def test_superposition_of_sources(self):
        w1 = static_worldline([0.5, 0, 0], coupling=1.0)
        w2 = uniform_worldline([-0.5, 0, 0], [0.0, 0.3, 0.0], coupling=-2.0)
        grid = build_mode_grid(kmax=1.0, n_per_axis=2, kappa=1.0)
        both = evolve_amplitudes(SCALAR, [w1, w2], grid, 0.0, 2.0, steps=64)
        one = evolve_amplitudes(SCALAR, [w1], grid, 0.0, 2.0, steps=64)
        two = evolve_amplitudes(SCALAR, [w2], grid, 0.0, 2.0, steps=64)
        total = one.final_plus + two.final_plus
        assert np.max(np.abs(both.final_plus - total)) < 1e-13 * np.max(
            np.abs(total))

    def test_two_static_sources_interference_factor(self):
        # symmetric pair at +-d/2: |C| picks up 2 |cos(k.d/2)|
        d = np.array([1.0, 0.0, 0.0])
        w1 = static_worldline(+0.5 * d, coupling=1.0)
        w2 = static_worldline(-0.5 * d, coupling=1.0)
        grid = build_mode_grid(kmax=2.0, n_per_axis=2, kappa=1.0)
        pair = evolve_amplitudes(SCALAR, [w1, w2], grid, 0.0, 1.0, steps=40)
        single = evolve_amplitudes(
            SCALAR, [static_worldline([0, 0, 0], coupling=1.0)],
            grid, 0.0, 1.0, steps=40)
        for i in range(len(grid)):
            factor = 2.0 * abs(np.cos(np.dot(grid.k_spatial[i], d) / 2.0))
            assert abs(pair.final_plus[i]) == pytest.approx(
                factor * abs(single.final_plus[i]), rel=1e-10, abs=1e-12)

    def test_history_bookkeeping(self):
        w = static_worldline([0, 0, 0], coupling=1.0)
        grid = build_mode_grid(kmax=1.0, n_per_axis=1, kappa=1.0)
        hist = evolve_amplitudes(SCALAR, [w], grid, 1.0, 2.0, steps=10)
        assert hist.x0.shape == (11,)
        assert hist.spacing() == pytest.approx(0.1)
        last = evolve_amplitudes(SCALAR, [w], grid, 1.0, 2.0, steps=10,
                                 save="last")
        assert last.plus.shape == (1, 1)
        assert last.final_plus == pytest.approx(hist.final_plus)

    def test_segmented_evolution_matches_single_run(self):
        w = static_worldline([0, 0, 0], coupling=1.0)
        grid = build_mode_grid(kmax=1.0, n_per_axis=2, kappa=1.0)
        full = evolve_amplitudes(SCALAR, [w], grid, 0.0, 2.0, steps=80)
        part1 = evolve_amplitudes(SCALAR, [w], grid, 0.0, 1.0, steps=40,
                                  save="last")
        part2 = evolve_amplitudes(SCALAR, [w], grid, 1.0, 2.0, steps=40,
                                  init_plus=part1.final_plus,
                                  init_minus=part1.final_minus, save="last")
        assert np.allclose(part2.final_plus, full.final_plus, rtol=1e-13)

    @pytest.mark.parametrize("field", [SCALAR, EM], ids=["scalar", "em"])
    def test_no_initial_values_equal_explicit_zeros(self, field):
        # the history starts zeroed, so no initial slice is copied in
        w = static_worldline([0.2, -0.1, 0.4], coupling=1.3, t_start=0.5)
        grid = build_mode_grid(kmax=1.0, n_per_axis=3, kappa=field.kappa)
        zeros = np.zeros((len(grid),) + field.component_shape, dtype=complex)
        inits = dict(zip(("init_plus", "init_minus"),
                         [zeros] * len(field.branches)))
        bare = evolve_amplitudes(field, [w], grid, 0.0, 2.0, steps=20)
        zeroed = evolve_amplitudes(field, [w], grid, 0.0, 2.0, steps=20,
                                   **inits)
        assert np.array_equal(bare.coeffs, zeroed.coeffs)

    def test_input_validation(self):
        grid = build_mode_grid(kmax=1.0, n_per_axis=1, kappa=1.0)
        with pytest.raises(ValueError):
            evolve_amplitudes(SCALAR, [], grid, 0.0, 1.0, steps=0)
        with pytest.raises(ValueError):
            evolve_amplitudes(SCALAR, [], grid, 1.0, 1.0, steps=4)
        with pytest.raises(ValueError):
            evolve_amplitudes(SCALAR, [], grid, 0.0, 1.0, steps=4, save="some")


XI = DiracCoupling(xi1=np.array([1.0, 0.5j, -0.25, 0.1]),
                   xi2=np.array([0.2, 0.0, 0.3j, 0.0]))


def _reference_rate_sum(field, worldlines, k, nodes, weights):
    """sum_t w_t dC/dx0(t), contracted node by node and source by source."""
    shape = (len(k),) + field.component_shape
    totals = [np.zeros(shape, dtype=complex) for _ in field.branches]
    for t, weight in zip(nodes, weights):
        sums = [np.zeros(shape, dtype=complex) for _ in field.branches]
        for w, u, udot, current in dynamics.source_terms(field, worldlines,
                                                         t):
            phase = np.exp(1j * minkowski_dot(k, u))
            for total, ph in zip(sums, (phase, np.conj(phase))):
                total += np.multiply.outer(ph, current) * (w.coupling
                                                           / udot[0])
        if field.kind == "spinor":
            sums = [np.einsum("nab,nb->na", op, total)
                    for op, total in zip(field.shell_operators(k), sums)]
        for acc, norm, total in zip(totals, field.rate_norms, sums):
            acc += weight * norm * total
    return totals


def _reference_history(field, worldlines, grid, start, end, steps, init):
    """Simpson panel by panel from the reference sum, every slice."""
    times = np.linspace(start, end, steps + 1)
    h = (end - start) / steps
    slices = [list(init)]
    for i in range(steps):
        step = _reference_rate_sum(
            field, worldlines, grid.k,
            (times[i], times[i] + 0.5 * h, times[i + 1]),
            (h / 6.0, 4.0 * h / 6.0, h / 6.0))
        slices.append([c + d for c, d in zip(slices[-1], step)])
    return [np.array(branch) for branch in zip(*slices)]


def _count_calls(monkeypatch, names, modules) -> dict:
    """Live call counts of the named covham.dynamics functions, wrapped
    wherever the modules bind them."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        original = getattr(dynamics, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in names:
        wrapper = counted(name)
        for module in modules:
            if name in vars(module):
                monkeypatch.setattr(module, name, wrapper)
    return calls


def _assert_rel_close(got, want, rtol=1e-12):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


FIELDS = {
    "scalar": SCALAR,
    "vector": tensor_field(rank=1, a2=1.0, b2=1.0),
    "em": EM,
    "spinor": SPINOR,
}
WINDOW, STEPS = (0.0, 2.0), 11  # 23 Simpson nodes, over one chunk
PANEL_EDGE = float(np.linspace(*WINDOW, STEPS + 1)[3])


def _orbit_sources(switch_on):
    """A circular and a uniform source, plus a static one switched on
    inside a panel or on a panel boundary of WINDOW at STEPS."""
    lines = [circular_worldline([0.1, -0.2, 0.05], 0.5, 1.2, coupling=1.0,
                                phase0=0.4, xi=XI),
             uniform_worldline([0.2, 0.1, -0.3], [0.3, -0.1, 0.2],
                               coupling=-0.7, t_start=-0.1, xi=XI)]
    if switch_on == "mid_panel":
        lines.append(static_worldline([0.3, 0.0, -0.2], coupling=0.9,
                                      t_start=0.537, xi=XI))
    elif switch_on == "panel_edge":
        lines.append(static_worldline([0.3, 0.0, -0.2], coupling=0.9,
                                      t_start=PANEL_EDGE, xi=XI))
    return lines


def _initial(field, grid, rng):
    shape = (len(grid),) + field.component_shape
    return [rng.normal(size=shape) + 1j * rng.normal(size=shape)
            for _ in field.branches]


CHUNK = 16  # nodes per phase block of the window sums below


def _width(field, grid) -> int:
    """Modes x branches x components: a chunk's work per node."""
    return len(grid) * len(field.branches) * field.n_components


def _set_panels(monkeypatch, field, grid, panels):
    """Set the block constant so that save="all" sums panels per chunk:
    2 panels + 1 nodes, the panel windows of 3 nodes 2 apart."""
    monkeypatch.setattr(dynamics, "_BLOCK_WORK",
                        _width(field, grid) * (2 * panels + 1))


def _windowed(field, lines, grid, nodes, weights, width, step):
    """dynamics._window_sums into a NaN-filled array, so that every entry
    it returns was written."""
    count = (len(nodes) - width) // step + 1
    out = np.full((count, len(field.branches), len(grid))
                  + field.component_shape, np.nan, dtype=complex)
    dynamics._window_sums(field, lines, grid.waves, nodes, weights, width,
                          step, out)
    return out


class TestWeightedRateSum:
    @pytest.mark.parametrize("n_nodes", [1, CHUNK, CHUNK + 1, 2 * CHUNK + 5])
    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_matches_per_node_loop(self, name, n_nodes, monkeypatch):
        # one window of every node, in parts of CHUNK nodes
        field = FIELDS[name]
        grid = build_mode_grid(kmax=2.0, n_per_axis=3, kappa=field.kappa)
        monkeypatch.setattr(dynamics, "_BLOCK_WORK",
                            _width(field, grid) * CHUNK)
        rng = np.random.default_rng(n_nodes)
        nodes = np.sort(rng.uniform(0.0, 2.0, size=n_nodes))
        weights = rng.uniform(-1.0, 1.0, size=n_nodes)
        lines = _orbit_sources("mid_panel")
        got = _windowed(field, lines, grid, nodes, weights, n_nodes, n_nodes)
        assert got.shape == (1, len(field.branches), len(grid)) + (
            field.component_shape)
        want = _reference_rate_sum(field, lines, grid.k, nodes, weights)
        for g, w in zip(got[0], want, strict=True):
            _assert_rel_close(g, w)

    # a chunk of 1 node (every window in parts), of whole windows, of all
    @pytest.mark.parametrize("chunk", [1, 5, 40])
    # per-slice rates, Simpson panels, windows with a gap between them
    @pytest.mark.parametrize("width, step", [(1, 1), (3, 2), (2, 3)])
    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_windows_match_per_window_sums(self, name, width, step, chunk,
                                           monkeypatch):
        field = FIELDS[name]
        grid = build_mode_grid(kmax=2.0, n_per_axis=3, kappa=field.kappa)
        monkeypatch.setattr(dynamics, "_BLOCK_WORK",
                            _width(field, grid) * chunk)
        rng = np.random.default_rng(chunk)
        nodes = np.sort(rng.uniform(0.0, 2.0, size=11))
        weights = rng.uniform(-1.0, 1.0, size=11)
        # the static source switches on at 0.537: windows before it, across
        # it and after it
        lines = _orbit_sources("mid_panel")
        assert nodes[0] < lines[2].switch_on_time() < nodes[-1]
        got = _windowed(field, lines, grid, nodes, weights, width, step)
        assert len(got) == (11 - width) // step + 1
        for o, sums in enumerate(got):
            window = slice(o * step, o * step + width)
            want = _reference_rate_sum(field, lines, grid.k, nodes[window],
                                       weights[window])
            for g, w in zip(sums, want, strict=True):
                _assert_rel_close(g, w)

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_source_rate_is_the_one_node_case(self, name):
        field = FIELDS[name]
        grid = build_mode_grid(kmax=2.0, n_per_axis=3, kappa=field.kappa)
        lines = _orbit_sources("panel_edge")
        rates = source_rate(field, lines, grid.k, PANEL_EDGE)
        want = _reference_rate_sum(field, lines, grid.k, (PANEL_EDGE,),
                                   (1.0,))
        for got, w in zip(field.families(*rates), want, strict=True):
            _assert_rel_close(got, w)
            assert got.flags.c_contiguous

    def test_no_active_source_gives_exact_zeros(self):
        grid = build_mode_grid(kmax=2.0, n_per_axis=3, kappa=1.0)
        late = [static_worldline([0, 0, 0], coupling=1.0, t_start=5.0)]
        sums = _windowed(SCALAR, late, grid, np.linspace(0.0, 4.0, 41),
                         np.ones(41), 3, 2)
        assert sums.shape == (20, 2, len(grid)) and not np.any(sums)
        rates = dynamics._node_rates(SCALAR, late, grid.waves,
                                     np.linspace(0.0, 4.0, 40))
        assert rates.shape == (40, 2, len(grid)) and not np.any(rates)

    def test_window_views_are_sliding_windows(self):
        a = np.arange(3 * 14 * 2, dtype=complex).reshape(3, 14, 2)
        for axis, span, jump in ((1, 4, 2), (1, 14, 14), (0, 1, 1),
                                 (1, 3, 5)):
            got = dynamics._windows(a, span, jump, axis)
            want = np.moveaxis(sliding_window_view(a, span, axis)[
                (slice(None),) * axis + (slice(None, None, jump),)],
                (axis, -1), (0, axis + 1))
            assert np.shares_memory(got, a)
            assert np.array_equal(got, want)


# a circular source, and a static one switched on at 0.537: inside the
# block of samples 5-7 (x0 0.5-0.7) of a 20-step history over WINDOW
def _two_sources():
    return _orbit_sources("mid_panel")[::2]


class TestNodeRates:
    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_matches_reference_node_by_node(self, name):
        field = FIELDS[name]
        grid = build_mode_grid(kmax=2.0, n_per_axis=3, kappa=field.kappa)
        lines = _two_sources()
        nodes = np.linspace(*WINDOW, 21)
        got = dynamics._node_rates(field, lines, grid.waves, nodes)
        assert got.shape == (len(nodes), len(field.branches), len(grid)) + (
            field.component_shape)
        for t, rates in zip(nodes, got, strict=True):
            want = _reference_rate_sum(field, lines, grid.k, (t,), (1.0,))
            for g, w in zip(rates, want, strict=True):
                _assert_rel_close(g, w)

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_residual_blocks_see_reference_rates(self, name, monkeypatch):
        # blocks of 3 samples, the switch-on inside the second
        field = FIELDS[name]
        grid = build_mode_grid(kmax=2.0, n_per_axis=3, kappa=field.kappa)
        lines = _two_sources()
        hist = evolve_amplitudes(field, lines, grid, *WINDOW, 20)
        seen = []
        original = dynamics._node_rates

        def recorded(*args):
            rates = original(*args)
            seen.append((args[3], rates))
            return rates

        monkeypatch.setattr(dynamics, "_node_rates", recorded)
        monkeypatch.setattr(dynamics, "_SERIES_BLOCK", _width(field, grid) * 3)
        mode_equation_residual(field, lines, grid, hist)
        assert [len(nodes) for nodes, _ in seen] == [3] * 5 + [2]
        assert np.array_equal(np.concatenate([n for n, _ in seen]),
                              hist.x0[2:-2])
        assert seen[1][0][0] < lines[1].switch_on_time() < seen[1][0][-1]
        for nodes, got in seen:
            for t, rates in zip(nodes, got, strict=True):
                want = _reference_rate_sum(field, lines, grid.k, (t,), (1.0,))
                for g, w in zip(rates, want, strict=True):
                    _assert_rel_close(g, w)

    def test_spinor_operators_built_once_per_grid(self, monkeypatch):
        builds = []
        original = SPINOR.shell_operators
        monkeypatch.setattr(type(SPINOR), "shell_operators",
                            lambda self, k: builds.append(len(k))
                            or original(k))
        grid = build_mode_grid(kmax=2.0, n_per_axis=3, kappa=SPINOR.kappa)
        lines = _two_sources()
        hist = evolve_amplitudes(SPINOR, lines, grid, *WINDOW, 20)
        mode_equation_residual(SPINOR, lines, grid, hist)
        assert builds == [len(grid)]
        ops = grid.waves.shell_operators(SPINOR)
        assert ops is grid.waves.shell_operators(SPINOR)
        assert not any(op.flags.writeable for op in ops)


class TestEvolveNodeSum:
    @pytest.mark.parametrize("save", ["all", "last"])
    @pytest.mark.parametrize("switch_on", ["none", "mid_panel",
                                           "panel_edge"])
    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_matches_panel_loop(self, name, switch_on, save):
        field = FIELDS[name]
        grid = build_mode_grid(kmax=2.0, n_per_axis=3, kappa=field.kappa)
        lines = _orbit_sources(switch_on)
        init = _initial(field, grid, np.random.default_rng(5))
        hist = evolve_amplitudes(field, lines, grid, *WINDOW, STEPS,
                                 *init, save=save)
        want = _reference_history(field, lines, grid, *WINDOW, STEPS, init)
        if save == "last":
            want = [branch[-1:] for branch in want]
        # the increments, which the initial values would otherwise mask
        for got, w, c in zip(field.families(hist.plus, hist.minus), want,
                             init, strict=True):
            _assert_rel_close(got - c, w - c)

    # 1 panel, a block that does not divide STEPS, one above STEPS
    @pytest.mark.parametrize("panels", [1, 4, STEPS + 5])
    @pytest.mark.parametrize("switch_on", ["none", "mid_panel",
                                           "panel_edge"])
    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_panel_blocks_agree(self, name, switch_on, panels, monkeypatch):
        field = FIELDS[name]
        grid = build_mode_grid(kmax=2.0, n_per_axis=3, kappa=field.kappa)
        lines = _orbit_sources(switch_on)
        init = _initial(field, grid, np.random.default_rng(7))
        want = evolve_amplitudes(field, lines, grid, *WINDOW, STEPS, *init)
        _set_panels(monkeypatch, field, grid, panels)
        got = evolve_amplitudes(field, lines, grid, *WINDOW, STEPS, *init)
        _assert_rel_close(got.coeffs[1:] - got.coeffs[0],
                          want.coeffs[1:] - want.coeffs[0], rtol=1e-13)
        assert np.array_equal(got.coeffs[0], want.coeffs[0])

    @pytest.mark.parametrize("save", ["all", "last"])
    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_families_are_views_of_one_array(self, name, save):
        field = FIELDS[name]
        grid = build_mode_grid(kmax=2.0, n_per_axis=3, kappa=field.kappa)
        hist = evolve_amplitudes(field, _orbit_sources("mid_panel"), grid,
                                 *WINDOW, STEPS, save=save)
        assert hist.coeffs.shape == ((len(hist.x0), len(field.branches),
                                      len(grid)) + field.component_shape)
        assert (hist.minus is None) == field.is_real
        for b, view in enumerate(field.families(hist.plus, hist.minus)):
            assert np.shares_memory(view, hist.coeffs)
            assert np.array_equal(view, hist.coeffs[:, b])
            # every slice, and so the whole of a save="last" history
            assert all(c.flags.c_contiguous for c in view)
            assert view.flags.c_contiguous or save == "all"

    def test_last_slice_reads_each_node_once(self, monkeypatch):
        # one crossing walk per chunk of CHUNK of the 2 STEPS + 1 nodes,
        # for the circular source only; each straight source is walked
        # once, on its switch-on slice
        walks = _record_walks(monkeypatch)
        grid = build_mode_grid(kmax=2.0, n_per_axis=3, kappa=1.0)
        monkeypatch.setattr(dynamics, "_BLOCK_WORK",
                            _width(SCALAR, grid) * CHUNK)
        evolve_amplitudes(SCALAR, _orbit_sources("mid_panel"), grid,
                          *WINDOW, STEPS, save="last")
        chunks = -(-(2 * STEPS + 1) // CHUNK)
        assert walks == [(("circular",), CHUNK)] * (chunks - 1) + [
            (("circular",), (2 * STEPS + 1) % CHUNK),
            (("uniform",), 1), (("static",), 1)]

    @pytest.mark.parametrize("panels", [1, 4, STEPS + 5])
    def test_one_walk_per_panel_block(self, panels, monkeypatch):
        grid = build_mode_grid(kmax=2.0, n_per_axis=3, kappa=1.0)
        _set_panels(monkeypatch, SCALAR, grid, panels)
        walks = _record_walks(monkeypatch)
        evolve_amplitudes(SCALAR, _orbit_sources("mid_panel"), grid,
                          *WINDOW, STEPS)
        blocks = -(-STEPS // panels)
        assert [lines for lines, _ in walks] == [("circular",)] * blocks + [
            ("uniform",), ("static",)]
        assert sum(nodes for _, nodes in walks) == 2 * STEPS + blocks + 2


def _record_walks(monkeypatch) -> list:
    """Every _crossings call as (the kinds of its worldlines, its node
    count), and no public source_rate call."""
    walks = []
    original = dynamics._crossings

    def walk(field, worldlines, nodes):
        walks.append((tuple(w.kind for w in worldlines), len(nodes)))
        return original(field, worldlines, nodes)

    monkeypatch.setattr(dynamics, "_crossings", walk)
    monkeypatch.setattr(dynamics, "source_rate", None)
    return walks


SERIES_FIELDS = {
    "scalar": SCALAR,
    "rank1": tensor_field(rank=1, a2=1.0, b2=1.0),
    "rank2": tensor_field(rank=2, a2=1.0, b2=1.0),
    "em": EM,
    "spinor": SPINOR,
}
# switch-on times against WINDOW at STEPS panels
SWITCH_ONS = {"before": -0.3, "at_start": WINDOW[0], "panel_edge": PANEL_EDGE,
              "mid_panel": 0.537, "after": WINDOW[1] + 0.5}


def _line(kind, t_start, coupling=0.8):
    if kind == "static":
        return static_worldline([0.3, -0.2, 0.1], coupling=coupling,
                                t_start=t_start, xi=XI)
    return uniform_worldline([0.1, 0.4, -0.3], [0.35, -0.2, 0.15],
                             coupling=coupling, t_start=t_start, xi=XI)


def _simpson_by_source_rate(field, worldlines, grid, start, end, steps,
                            init):
    """Every slice of composite Simpson written out: source_rate at each
    node of each panel, weighed h/6, 4h/6, h/6, the panels added up in
    turn: (S + 1, branches, N, *component_shape)."""
    times = np.linspace(start, end, steps + 1)
    h = (end - start) / steps
    slices = [np.array(init)]
    for t in times[:-1]:
        panel = sum(weight * np.array(field.families(*source_rate(
            field, worldlines, grid.k, node)))
            for weight, node in ((h / 6.0, t), (4.0 * h / 6.0, t + 0.5 * h),
                                 (h / 6.0, t + h)))
        slices.append(slices[-1] + panel)
    return np.array(slices)


# 5-node chunks over the 2 STEPS + 1 = 23 nodes of WINDOW: save="all"
# takes 2 panels per chunk from nodes 0, 4, .., 20 and save="last" parts
# from nodes 0, 5, .., 20, each last chunk 3 nodes long
PAD_CHUNK = 5
# node 20 (slice 10) starts a chunk in both; 0.537 lies inside one
PAD_SWITCH_ONS = (0.537, float(np.linspace(*WINDOW, STEPS + 1)[10]))


def _late_orbits():
    """Two circular sources, switched on inside a chunk and on a chunk
    edge."""
    return [circular_worldline([0.1, -0.2, 0.05], 0.5, 1.2, coupling=1.0,
                               phase0=0.4, t_start=t_on, xi=XI)
            for t_on in PAD_SWITCH_ONS]


class TestPaddedRows:
    """Rows before a switch-on, in a chunk where the source is active
    later: the clamped switch-on state with a zero current."""

    @pytest.mark.parametrize("save", ["all", "last"])
    @pytest.mark.parametrize("name", ["scalar", "rank2", "spinor"])
    def test_switch_ons_inside_and_on_chunk_edges(self, name, save,
                                                  monkeypatch):
        field = SERIES_FIELDS[name]
        grid = build_mode_grid(kmax=2.0, n_per_axis=3, kappa=field.kappa)
        monkeypatch.setattr(dynamics, "_BLOCK_WORK",
                            _width(field, grid) * PAD_CHUNK)
        lines = _late_orbits()
        assert [w.switch_on_time() for w in lines] == list(PAD_SWITCH_ONS)
        zero = [np.zeros((len(grid),) + field.component_shape)
                for _ in field.branches]
        want = _simpson_by_source_rate(field, lines, grid, *WINDOW, STEPS,
                                       zero)
        walks = _record_walks(monkeypatch)
        hist = evolve_amplitudes(field, lines, grid, *WINDOW, STEPS,
                                 save=save)
        if save == "last":
            assert [n for _, n in walks] == [5, 5, 5, 5, 3]
            _assert_rel_close(hist.coeffs, want[-1:])
            return
        assert [n for _, n in walks] == [5, 5, 5, 5, 5, 3]
        _assert_rel_close(hist.coeffs, want)
        # exact zeros on every slice before the first switch-on
        assert not np.any(hist.coeffs[hist.x0 < PAD_SWITCH_ONS[0]])
        after = hist.coeffs[hist.x0 > PAD_SWITCH_ONS[0]]
        assert all(np.any(c) for c in after)

    @pytest.mark.parametrize("name", ["scalar", "rank2", "spinor"])
    def test_each_source_adds_exact_zeros_before_its_switch_on(
            self, name, monkeypatch):
        field = SERIES_FIELDS[name]
        grid = build_mode_grid(kmax=2.0, n_per_axis=3, kappa=field.kappa)
        monkeypatch.setattr(dynamics, "_BLOCK_WORK",
                            _width(field, grid) * PAD_CHUNK)
        nodes = np.linspace(*WINDOW, 2 * STEPS + 1)
        for line, t_on in zip(_late_orbits(), PAD_SWITCH_ONS, strict=True):
            hist = evolve_amplitudes(field, [line], grid, *WINDOW, STEPS)
            assert not np.any(hist.coeffs[hist.x0 < t_on])
            assert all(np.any(c) for c in hist.coeffs[hist.x0 >= t_on])
            rates = dynamics._node_rates(field, [line], grid.waves, nodes)
            assert not np.any(rates[nodes < t_on])
            assert all(np.any(r) for r in rates[nodes >= t_on])


class TestStraightSeries:
    @pytest.mark.parametrize("save", ["all", "last"])
    @pytest.mark.parametrize("switch_on", sorted(SWITCH_ONS))
    @pytest.mark.parametrize("kind", ["static", "uniform"])
    @pytest.mark.parametrize("name", sorted(SERIES_FIELDS))
    def test_matches_simpson_by_source_rate(self, name, kind, switch_on,
                                            save):
        field = SERIES_FIELDS[name]
        grid = build_mode_grid(kmax=2.0, n_per_axis=3, kappa=field.kappa)
        lines = [_line(kind, SWITCH_ONS[switch_on])]
        init = _initial(field, grid, np.random.default_rng(11))
        hist = evolve_amplitudes(field, lines, grid, *WINDOW, STEPS, *init,
                                 save=save)
        want = _simpson_by_source_rate(field, lines, grid, *WINDOW, STEPS,
                                       init)
        if save == "last":
            want = want[-1:]
        # the increments, which the initial values would otherwise mask;
        # a source that switches on after the window adds exact zeros
        _assert_rel_close(hist.coeffs - hist.coeffs[0], want - want[0],
                          rtol=1e-13)

    @pytest.mark.parametrize("save", ["all", "last"])
    @pytest.mark.parametrize("steps", [7, 13])
    def test_coarse_panels_turn_past_half_a_turn(self, steps, save):
        # s_j h / 2 reaches about 20 and 11: the closed sum takes it mod pi
        field = SERIES_FIELDS["rank1"]
        grid = build_mode_grid(kmax=4.0, n_per_axis=4, kappa=field.kappa)
        lines = [_line("uniform", 1.7)]
        assert np.max(grid.k[:, 0]) * 40.0 / steps > 4.0 * np.pi
        init = _initial(field, grid, np.random.default_rng(13))
        hist = evolve_amplitudes(field, lines, grid, 0.0, 40.0, steps,
                                 *init, save=save)
        want = _simpson_by_source_rate(field, lines, grid, 0.0, 40.0, steps,
                                       init)
        if save == "last":
            want = want[-1:]
        _assert_rel_close(hist.coeffs - hist.coeffs[0], want - want[0],
                          rtol=1e-13)

    @pytest.mark.parametrize("detune", [0.0, 1e-10, -1e-7])
    def test_panels_of_a_full_turn(self, detune):
        # the one mode k = 0 turns by s_j h = 2 pi (1 + detune) a panel:
        # sin(theta) vanishes or nearly, and the sum is of 5 equal terms
        grid = build_mode_grid(kmax=1.0, n_per_axis=1, kappa=1.0)
        assert np.array_equal(grid.k, [[1.0, 0.0, 0.0, 0.0]])
        lines = [static_worldline([0.0, 0.0, 0.0], coupling=0.8)]
        end = 10.0 * np.pi * (1.0 + detune)
        hist = evolve_amplitudes(SCALAR, lines, grid, 0.0, end, 5,
                                 save="last")
        want = _simpson_by_source_rate(SCALAR, lines, grid, 0.0, end, 5,
                                       [np.zeros(1), np.zeros(1)])
        _assert_rel_close(hist.coeffs, want[-1:], rtol=1e-13)

    @pytest.mark.parametrize("save", ["all", "last"])
    @pytest.mark.parametrize("steps", [3, 200])
    def test_straight_sources_walk_only_their_switch_on(self, steps, save,
                                                       monkeypatch):
        walks = _record_walks(monkeypatch)
        blocks = []
        original = PlaneWaves.at

        def at(self, x, sign):
            blocks.append(np.shape(x))
            return original(self, x, sign)

        monkeypatch.setattr(PlaneWaves, "at", at)
        grid = build_mode_grid(kmax=2.0, n_per_axis=3, kappa=1.0)
        lines = [_line("static", 0.537), _line("uniform", -0.3)]
        evolve_amplitudes(SCALAR, lines, grid, *WINDOW, steps, save=save)
        assert walks == [(("static",), 1), (("uniform",), 1)]
        assert blocks == [(1, 4), (1, 4)]

    def test_residual_still_walks_every_sample(self, monkeypatch):
        grid = build_mode_grid(kmax=2.0, n_per_axis=3, kappa=1.0)
        lines = [_line("static", -0.3), _line("uniform", -0.3)]
        hist = evolve_amplitudes(SCALAR, lines, grid, *WINDOW, 200)
        walks = _record_walks(monkeypatch)
        assert mode_equation_residual(SCALAR, lines, grid, hist) < 1e-6
        assert {kinds for kinds, _ in walks} == {("static", "uniform")}
        assert sum(nodes for _, nodes in walks) == len(hist.x0) - 4

    def test_history_is_most_of_the_memory(self):
        field = tensor_field(rank=1, a2=1.0, b2=1.0)
        grid = build_mode_grid(kmax=4.0, n_per_axis=16, kappa=field.kappa)
        lines = [_line("uniform", 0.537)]
        grid.waves  # the cached phase tables are the grid's, not the call's
        steps = 24
        history = (steps + 1) * 2 * len(grid) * 4 * 16
        tracemalloc.start()
        try:
            hist = evolve_amplitudes(field, lines, grid, *WINDOW, steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert hist.coeffs.nbytes == history
        # four series arrays of _SERIES_BLOCK entries and a few one-slice
        # arrays (the switch-on rates), nothing that grows with the steps
        one_slice = history // (steps + 1)
        assert peak - history < 4 * dynamics._SERIES_BLOCK * 16 + 3 * one_slice


STRAIGHT_FIELDS = {
    "scalar": SCALAR,
    "tensor2": tensor_field(rank=2, a2=1.0, b2=1.0),
    "em": EM,
    "spinor": SPINOR,
}


def _straight_source(kind):
    """A source switched on before x0 = 0.5 (0.3 static, 0.343 uniform)."""
    if kind == "static":
        return static_worldline([0.3, -0.2, 0.1], coupling=0.7,
                                t_start=0.1, tau_on=0.2, xi=XI)
    # (switch_on_time() - t_start) / gamma rounds below tau_on here
    return uniform_worldline([0.1, 0.4, -0.3], [0.35, -0.2, 0.15],
                             coupling=-1.3, t_start=-0.1, tau_on=0.4, xi=XI)


def _simpson(field, worldlines, grid, start, end):
    """evolve_amplitudes at k0_max h <= 0.03, final slice."""
    steps = int(np.ceil((end - start) * np.max(grid.k[:, 0]) / 0.03))
    hist = evolve_amplitudes(field, worldlines, grid, start, end, steps,
                             save="last")
    return hist.final_plus, hist.final_minus


def _max_dev(got, want):
    """max |got - want| / (1 + max |want|) over both families."""
    dev = np.max(np.abs(got[0] - want[0]))
    scale = np.max(np.abs(want[0]))
    if want[1] is not None:
        dev = max(dev, np.max(np.abs(got[1] - want[1])))
        scale = max(scale, np.max(np.abs(want[1])))
    return dev / (1.0 + scale)


class TestStraightLineAmplitudes:
    @pytest.mark.parametrize("kind", ["static", "uniform"])
    @pytest.mark.parametrize("name", sorted(STRAIGHT_FIELDS))
    def test_matches_simpson(self, name, kind):
        field = STRAIGHT_FIELDS[name]
        w = _straight_source(kind)
        grid = build_mode_grid(kmax=2.0, n_per_axis=3, kappa=field.kappa)
        start, end = 0.5, 2.5
        # Simpson starts from zero at 0.5, after the switch-on: compare
        # the increment of the closed form over the window
        p0, m0 = straight_line_amplitudes(field, [w], grid, start)
        p1, m1 = straight_line_amplitudes(field, [w], grid, end)
        exact = (p1 - p0, None if m1 is None else m1 - m0)
        assert _max_dev(_simpson(field, [w], grid, start, end), exact) <= 1e-9
        assert np.max(np.abs(p0)) > 0.0

    @pytest.mark.parametrize("name", sorted(STRAIGHT_FIELDS))
    def test_switch_on_at_window_start(self, name):
        field = STRAIGHT_FIELDS[name]
        w = _straight_source("uniform")
        grid = build_mode_grid(kmax=2.0, n_per_axis=3, kappa=field.kappa)
        start = w.switch_on_time()
        got = straight_line_amplitudes(field, [w], grid, start + 2.0)
        want = _simpson(field, [w], grid, start, start + 2.0)
        assert _max_dev(want, got) <= 1e-9
        zero_p, _ = straight_line_amplitudes(field, [w], grid, start)
        assert not np.any(zero_p)
        # s L -> 0: the first sliver of the integral is rate * L
        x0 = start + 1e-9
        sliver, _ = straight_line_amplitudes(field, [w], grid, x0)
        rate, _ = source_rate(field, [w], grid.k, start)
        assert np.allclose(sliver, rate * (x0 - start), rtol=1e-8, atol=0.0)

    def test_two_sources_superpose_exactly(self):
        w1, w2 = _straight_source("static"), _straight_source("uniform")
        grid = build_mode_grid(kmax=2.0, n_per_axis=3, kappa=1.0)
        both = straight_line_amplitudes(SPINOR, [w1, w2], grid, 2.2)
        one = straight_line_amplitudes(SPINOR, [w1], grid, 2.2)
        two = straight_line_amplitudes(SPINOR, [w2], grid, 2.2)
        assert np.array_equal(both[0], one[0] + two[0])
        assert np.array_equal(both[1], one[1] + two[1])

    def test_circular_source_raises(self):
        grid = build_mode_grid(kmax=2.0, n_per_axis=3, kappa=0.0)
        lines = [static_worldline([0, 0, 0], coupling=1.0),
                 circular_worldline([0, 0, 0], 0.5, 1.2, coupling=1.0)]
        with pytest.raises(ValueError, match="static or uniform"):
            straight_line_amplitudes(EM, lines, grid, 1.0)
        with pytest.raises(ValueError, match="static or uniform"):
            averaged_profile(EM, lines, grid, [[1.0, 0.0, 0.0]],
                             center=5.0, period=2.0)


PROFILE_POINTS = np.array([[1.0, 0.3, -0.2], [0.0, 1.5, 0.5],
                           [2.0, 2.0, 2.0]])


def _late_source(kind):
    """A second source switched on at x0 = 5, inside the window [4, 6]."""
    if kind == "static":
        return static_worldline([0.5, 0.1, -0.4], coupling=0.9,
                                t_start=5.0, xi=XI)
    return uniform_worldline([0.5, 0.1, -0.4], [0.2, 0.1, -0.3],
                             coupling=0.9, t_start=5.0, xi=XI)


def _per_sample_profile(field, worldlines, grid, points, center, period,
                        n_samples):
    """Reference average: reconstruct every point on every sample, from
    the sources switched on before it only."""
    samples = center + period * ((np.arange(n_samples) + 0.5) / n_samples
                                 - 0.5)
    total = 0.0
    for t in samples:
        on = [w for w in worldlines if w.switch_on_time() < t]
        plus, minus = straight_line_amplitudes(field, on, grid, t)
        total = total + np.asarray([
            reconstruct_field(field, grid, plus, minus,
                              np.concatenate([[t], p]))
            for p in points])
    return total / n_samples


class TestAveragedProfile:
    @pytest.mark.parametrize("n_samples", [1, 32])
    @pytest.mark.parametrize("kind", ["static", "uniform"])
    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_matches_per_sample_reconstruction(self, name, kind, n_samples):
        field = FIELDS[name]
        sources = [_straight_source(kind), _late_source(kind)]
        grid = build_mode_grid(kmax=2.0, n_per_axis=4, kappa=field.kappa)
        got = averaged_profile(field, sources, grid, PROFILE_POINTS,
                               center=5.0, period=2.0, n_samples=n_samples)
        want = _per_sample_profile(field, sources, grid, PROFILE_POINTS,
                                   5.0, 2.0, n_samples)
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n_samples", [4, 32])
    def test_work_is_per_source_and_per_point(self, monkeypatch, n_samples):
        # one switch-on rate per source, on the grid's cached phase
        # tables: never the public source_rate, which builds its own
        # and one axis sum for every point of the cube grid
        calls = _count_calls(monkeypatch, ("_node_rates", "_window_sums",
                                           "source_rate", "_slice_profile",
                                           "reconstruct_field"),
                             (dynamics, verify))
        sources = [_straight_source("static"), _late_source("uniform")]
        grid = build_mode_grid(kmax=2.0, n_per_axis=3, kappa=1.0)
        averaged_profile(SCALAR, sources, grid, PROFILE_POINTS, center=5.0,
                         period=2.0, n_samples=n_samples)
        assert calls == {"_node_rates": len(sources),
                         "_window_sums": len(sources),
                         "source_rate": 0,
                         "_slice_profile": 1,
                         "reconstruct_field": 0}

    @pytest.mark.parametrize("bad, name", [
        ({"n_samples": 0}, "n_samples"),
        ({"n_samples": -3}, "n_samples"),
        ({"n_samples": 2.5}, "n_samples"),
        ({"period": 0.0}, "period"),
        ({"period": -1.0}, "period"),
        ({"period": float("nan")}, "period"),
        ({"worldlines": []}, "worldlines"),
    ])
    def test_rejects_bad_arguments_by_name(self, bad, name):
        grid = build_mode_grid(kmax=2.0, n_per_axis=3, kappa=1.0)
        args = {"field": SCALAR, "worldlines": [_straight_source("static")],
                "grid": grid, "points": PROFILE_POINTS, "center": 5.0,
                "period": 2.0, "n_samples": 4} | bad
        with pytest.raises(ValueError, match=name):
            averaged_profile(**args)

    def test_phase_tables_built_once_per_grid(self, monkeypatch):
        builds = []
        original = PlaneWaves.__init__

        def counted(self, k, **cube):
            builds.append(len(k))
            original(self, k, **cube)

        monkeypatch.setattr(PlaneWaves, "__init__", counted)
        grid = build_mode_grid(kmax=2.0, n_per_axis=3, kappa=1.0)
        sources = [_straight_source("static"), _late_source("uniform")]
        hist = evolve_amplitudes(SCALAR, sources, grid, 4.0, 6.0, 40,
                                 save="all")
        mode_equation_residual(SCALAR, sources, grid, hist)
        points = np.concatenate([PROFILE_POINTS, -PROFILE_POINTS])
        assert len(points) == 6
        averaged_profile(SCALAR, sources, grid, points, center=5.0,
                         period=2.0, n_samples=32)
        assert builds == [len(grid)]

    @pytest.mark.parametrize("field", [EM, SCALAR], ids=["em", "scalar"])
    def test_peak_is_under_three_coefficient_arrays(self, field):
        # the mean's array plus one source's, scaled in place: no third
        # array for a product or a zero accumulator
        grid = build_mode_grid(kmax=4.0, n_per_axis=32, kappa=field.kappa)
        grid.waves  # the cached phase tables are the grid's, not the call's
        sources = [static_worldline([0.3, -0.2, 0.1], coupling=0.7)]
        one = len(field.branches) * len(grid) * field.n_components * 16
        tracemalloc.start()
        try:
            averaged_profile(field, sources, grid, PROFILE_POINTS[:1],
                             center=5.0, period=2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.75 * one, peak / one


SLICE_FIELDS = FIELDS | {"rank2": tensor_field(rank=2, a2=1.0, b2=0.81)}
# (n_per_axis, massive): the odd massless cube drops its k = 0 node
SLICE_GRIDS = {"even_massive": (4, True), "even_massless": (4, False),
               "odd_massless": (5, False)}
SLICE_POINTS = np.array([[0.3, -0.7, 1.1], [1.2, 0.4, -0.5],
                         [-0.9, 1.3, 0.2], [0.6, 0.6, -1.4],
                         [-0.2, -1.1, 0.8], [1.5, -0.3, 0.35]])


def _slice_case(name, grid_name, seed=41):
    """A field, its cube grid and random slice coefficients (branches, N,
    *component_shape)."""
    field = SLICE_FIELDS[name]
    n, massive = SLICE_GRIDS[grid_name]
    grid = build_mode_grid(kmax=2.0, n_per_axis=n,
                           kappa=field.kappa if massive else 0.0)
    rng = np.random.default_rng(seed)
    shape = (len(field.branches), len(grid)) + field.component_shape
    return field, grid, rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _per_point_profile(field, grid, coeffs, t, points):
    """Reference: one reconstruct_field call per point of the slice."""
    plus, minus = family_pair(coeffs)
    return np.asarray([reconstruct_field(field, grid, plus, minus,
                                         np.concatenate([[t], p]))
                       for p in points])


class TestSliceProfile:
    @pytest.mark.parametrize("count", [1, 6])
    @pytest.mark.parametrize("grid_name", sorted(SLICE_GRIDS))
    @pytest.mark.parametrize("name", sorted(SLICE_FIELDS))
    def test_matches_per_point_reconstruction(self, name, grid_name, count):
        field, grid, coeffs = _slice_case(name, grid_name)
        if grid_name == "odd_massless":
            assert len(grid) == 5**3 - 1
        points = SLICE_POINTS[:count]
        want = _per_point_profile(field, grid, coeffs, 0.7, points)
        got = dynamics._slice_profile(field, grid, coeffs, 0.7, points)
        assert got.shape == want.shape and got.dtype == want.dtype
        _assert_rel_close(got, want, rtol=1e-13)

    @pytest.mark.parametrize("name", ["scalar", "em"])
    def test_nan_coefficient_reaches_every_point(self, name):
        field, grid, coeffs = _slice_case(name, "even_massive")
        coeffs[(0, 17) + (0,) * len(field.component_shape)] = np.nan
        got = dynamics._slice_profile(field, grid, coeffs, 0.7, SLICE_POINTS)
        # the profile's value is the scalar itself or em's A_0
        assert np.all(np.isnan(got if name == "scalar" else got[:, 0]))

    def test_swapped_axes_are_seen(self, monkeypatch):
        # negative control: the points lie off the axes, so summing x with
        # y's factors moves the values far past the comparison's 1e-13
        field, grid, coeffs = _slice_case("vector", "even_massive")
        want = _per_point_profile(field, grid, coeffs, 0.7, SLICE_POINTS)
        original = dynamics._axis_sum

        def swapped(cube, factors):
            fx, fy, fz = factors
            return original(cube, (fy, fx, fz))

        monkeypatch.setattr(dynamics, "_axis_sum", swapped)
        got = dynamics._slice_profile(field, grid, coeffs, 0.7, SLICE_POINTS)
        assert np.max(np.abs(got - want)) >= 1e-3 * np.max(np.abs(want))

    @pytest.mark.parametrize("name", ["scalar", "em"])
    def test_hand_built_grid_takes_per_point_values(self, name):
        field, cube, coeffs = _slice_case(name, "even_massive")
        grid = ModeGrid(k=cube.k, weight=cube.weight)
        assert grid._cube is None
        want = _per_point_profile(field, grid, coeffs, 0.7, SLICE_POINTS)
        got = dynamics._slice_profile(field, grid, coeffs, 0.7, SLICE_POINTS)
        assert np.array_equal(got, want)


def _per_sample_mean(field, worldlines, grid, first, spacing, count, t_ref,
                     fault=None):
    """Reference for dynamics._straight_line_mean: every sample's
    L exp(i c L) sinc(c L / pi) exp(-i k0 (t - t_ref)) evaluated afresh.
    fault "one_short" drops the last active sample, as a rotation loop
    advanced once too few; "k0_sign" flips the sign of the free phase."""
    times = first + spacing * np.arange(count)
    sign = 1.0 if fault == "k0_sign" else -1.0
    expand = (len(grid),) + (1,) * len(field.component_shape)
    coeffs = [0.0, 0.0]
    for w in worldlines:
        start = w.switch_on_time()
        active = times[times > start]
        if fault == "one_short":
            active = active[:-1]
        if not len(active):
            continue
        _, udot = w.state(w.tau_on)
        c = 0.5 * minkowski_dot(grid.k, udot) / udot[0]
        mean = sum((t - start) * np.sinc(c * (t - start) / np.pi)
                   * np.exp(1j * (c * (t - start)
                                  + sign * grid.k[:, 0] * (t - t_ref)))
                   for t in active) / count
        rates = source_rate(field, [w], grid.k, start)
        for b, (rate, f) in enumerate(zip(field.families(*rates),
                                          with_conjugate(mean))):
            coeffs[b] = coeffs[b] + rate * f.reshape(expand)
    return family_pair(coeffs[:len(field.branches)])


def _uniform_samples(count, center=5.0, period=2.0):
    """(first, spacing, count) of averaged_profile's window."""
    spacing = period / count
    return center - 0.5 * (period - spacing), spacing, count


class TestRotatedMean:
    @pytest.mark.parametrize("count", [1, 2, 32, 257])
    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_matches_per_sample_sum(self, name, count):
        field = FIELDS[name]
        # the late sources switch on at 5.0, after the first sample
        sources = [_straight_source("uniform"), _late_source("static"),
                   _late_source("uniform")]
        grid = build_mode_grid(kmax=2.0, n_per_axis=4, kappa=field.kappa)
        args = (field, sources, grid, *_uniform_samples(count), 5.0)
        got = dynamics._straight_line_mean(*args)
        want = _per_sample_mean(*args)
        for g, w in zip(got, field.families(*want), strict=True):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=0.0)

    def test_mode_slices_cover_a_ragged_grid(self):
        grid = build_mode_grid(kmax=3.0, n_per_axis=17, kappa=1.0)
        assert len(grid) > dynamics._MODE_SLICE
        assert len(grid) % dynamics._MODE_SLICE
        sources = [_straight_source("static"), _late_source("uniform")]
        args = (SCALAR, sources, grid, *_uniform_samples(32), 5.0)
        for g, w in zip(dynamics._straight_line_mean(*args),
                        _per_sample_mean(*args)):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=0.0)

    def test_repeated_call_is_identical(self):
        # the rates are scaled in place, so each call must get fresh ones
        sources = [_straight_source("static"), _late_source("uniform")]
        grid = build_mode_grid(kmax=2.0, n_per_axis=4, kappa=1.0)
        args = (SPINOR, sources, grid, *_uniform_samples(32), 5.0)
        first = dynamics._straight_line_mean(*args)
        assert np.array_equal(first, dynamics._straight_line_mean(*args))

    @pytest.mark.parametrize("field", [EM, SPINOR], ids=["em", "spinor"])
    def test_sources_after_the_last_sample_give_zeros(self, field):
        sources = [_late_source("static"), _late_source("uniform")]
        grid = build_mode_grid(kmax=2.0, n_per_axis=4, kappa=field.kappa)
        args = (field, sources, grid, *_uniform_samples(4, center=3.0), 3.0)
        got = dynamics._straight_line_mean(*args)
        assert got.shape == ((len(field.branches), len(grid))
                             + field.component_shape)
        assert got.dtype == complex and got.flags.writeable
        assert not np.any(got)

    @pytest.mark.parametrize("fault", ["one_short", "k0_sign"])
    def test_comparison_flags_faulty_rotation(self, fault):
        sources = [_straight_source("uniform"), _late_source("static")]
        grid = build_mode_grid(kmax=2.0, n_per_axis=4, kappa=1.0)
        args = (SCALAR, sources, grid, *_uniform_samples(32), 5.0)
        got = dynamics._straight_line_mean(*args)
        bad = _per_sample_mean(*args, fault=fault)
        assert np.max(np.abs(got[0] - bad[0])) > 1e-3 * np.max(np.abs(got[0]))


def _per_mode_mean(monkeypatch, *args):
    """dynamics._straight_line_mean with every source on the per-mode
    loop, whose rows are grid.k, the k0 table left unused."""
    with monkeypatch.context() as m:
        m.setattr(dynamics, "_mean_modes", lambda grid, udot: (grid.k, None))
        return dynamics._straight_line_mean(*args)


# (n_per_axis, kappa): even and odd, and a massless odd grid whose zero
# mode is dropped
TABLE_GRIDS = [(6, 1.0), (5, 1.0), (5, 0.0)]


class TestK0TableMean:
    @pytest.mark.parametrize("n, kappa", TABLE_GRIDS)
    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_static_sources_equal_the_per_mode_loop(self, monkeypatch, name,
                                                    n, kappa):
        field = FIELDS[name]
        # switched on at 0.3 and 5.0: before and inside the window
        sources = [_straight_source("static"), _late_source("static")]
        grid = build_mode_grid(kmax=2.0, n_per_axis=n, kappa=kappa)
        assert len(grid.waves.tables[0][0]) < len(grid) / 4
        args = (field, sources, grid, *_uniform_samples(32), 5.0)
        got = dynamics._straight_line_mean(*args)
        want = _per_mode_mean(monkeypatch, *args)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("n, kappa", TABLE_GRIDS)
    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_static_and_uniform_match_per_sample_sum(self, name, n, kappa):
        field = FIELDS[name]
        sources = [_straight_source("static"), _late_source("uniform")]
        grid = build_mode_grid(kmax=2.0, n_per_axis=n, kappa=kappa)
        args = (field, sources, grid, *_uniform_samples(32), 5.0)
        got = dynamics._straight_line_mean(*args)
        want = _per_sample_mean(*args)
        for g, w in zip(got, field.families(*want), strict=True):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=0.0)

    def test_only_a_static_source_takes_the_table(self):
        grid = build_mode_grid(kmax=2.0, n_per_axis=6, kappa=1.0)
        _, udot = _straight_source("static").state(0.2)
        rows, index = dynamics._mean_modes(grid, udot)
        assert index is grid.waves.tables[0][1]
        assert np.array_equal(rows[:, 0], grid.waves.tables[0][0])
        assert not np.any(rows[:, 1:])
        _, udot = _straight_source("uniform").state(0.4)
        rows, index = dynamics._mean_modes(grid, udot)
        assert rows is grid.k and index is None

    def test_comparison_flags_a_gather_by_the_wrong_table(self, monkeypatch):
        sources = [_straight_source("static"), _late_source("static")]
        grid = build_mode_grid(kmax=2.0, n_per_axis=6, kappa=1.0)
        args = (SCALAR, sources, grid, *_uniform_samples(32), 5.0)
        want = _per_mode_mean(monkeypatch, *args)
        original = dynamics._mean_modes

        def by_kx(grid, udot):  # the k0 rows gathered by each kx index
            rows, _ = original(grid, udot)
            return rows, grid.waves.tables[1][1]

        monkeypatch.setattr(dynamics, "_mean_modes", by_kx)
        bad = dynamics._straight_line_mean(*args)
        assert not np.array_equal(bad, want)
        assert np.max(np.abs(bad - want)) > 1e-3 * np.max(np.abs(want))


class TestReconstructAndResidual:
    def test_reconstruct_single_mode(self):
        grid = build_mode_grid(kmax=1.0, n_per_axis=1, kappa=1.0)
        plus = np.array([1.0 + 0.5j])
        minus = np.array([0.25 - 0.1j])
        x = np.array([0.7, 0.1, -0.2, 0.3])
        kx = minkowski_dot(grid.k[0], x)
        expected = grid.weight[0] * (plus[0] * np.exp(-1j * kx)
                                     + minus[0] * np.exp(+1j * kx))
        assert reconstruct_field(SCALAR, grid, plus, minus, x) == pytest.approx(
            expected, rel=1e-14)

    def test_reconstruct_em_is_real(self):
        grid = build_mode_grid(kmax=1.0, n_per_axis=2, kappa=0.0)
        rng = np.random.default_rng(3)
        c = rng.normal(size=(len(grid), 4)) + 1j * rng.normal(size=(len(grid), 4))
        value = reconstruct_field(EM, grid, c, None, np.array([1.0, 2.0, 0.5, -1.0]))
        assert value.shape == (4,)
        assert value.dtype == np.float64

    @pytest.mark.parametrize("field", [
        SCALAR, tensor_field(rank=1, a2=1.0, b2=1.0), EM, SPINOR],
        ids=["scalar", "vector", "em", "spinor"])
    @pytest.mark.parametrize("lead", [(7,), (2, 3)], ids=["P", "2x3"])
    def test_batched_points_match_per_point_calls(self, field, lead):
        grid = build_mode_grid(kmax=2.0, n_per_axis=3, kappa=field.kappa)
        rng = np.random.default_rng(37)
        plus, minus = family_pair(_initial(field, grid, rng))
        x = rng.normal(size=lead + (4,))
        got = reconstruct_field(field, grid, plus, minus, x)
        want = np.array([reconstruct_field(field, grid, plus, minus, p)
                         for p in x.reshape(-1, 4)])
        assert got.shape == lead + field.component_shape
        assert np.max(np.abs(got.reshape(want.shape) - want)) <= (
            1e-12 * np.max(np.abs(want)))
        # extra trailing coefficient axes ride along, one result per slot
        ones = np.ones((1, 2) + (1,) * len(field.component_shape))
        both = reconstruct_field(field, grid, *(
            None if c is None else c[:, None] * ones for c in (plus, minus)),
            x)
        assert both.shape == lead + (2,) + field.component_shape
        for slot in range(2):
            assert np.max(np.abs(both.take(slot, axis=len(lead)) - got)) <= (
                1e-12 * np.max(np.abs(want)))

    def test_mode_equation_residual_small_on_true_history(self):
        w = static_worldline([0.2, -0.1, 0.4], coupling=1.3)
        grid = build_mode_grid(kmax=1.0, n_per_axis=2, kappa=1.0)
        hist = evolve_amplitudes(SCALAR, [w], grid, 0.0, 2.0, steps=100)
        assert mode_equation_residual(SCALAR, [w], grid, hist) < 1e-7

    def test_mode_equation_residual_flags_corruption(self):
        w = static_worldline([0, 0, 0], coupling=1.0)
        grid = build_mode_grid(kmax=1.0, n_per_axis=1, kappa=1.0)
        hist = evolve_amplitudes(SCALAR, [w], grid, 0.0, 2.0, steps=40)
        hist.plus[20] += 0.1
        assert mode_equation_residual(SCALAR, [w], grid, hist) > 1e-3

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_mode_equation_residual_one_stencil_per_sample(self, name,
                                                           monkeypatch):
        field = FIELDS[name]
        grid = build_mode_grid(kmax=2.0, n_per_axis=3, kappa=field.kappa)
        lines = _orbit_sources("none")
        hist = evolve_amplitudes(field, lines, grid, *WINDOW, 20)
        # the branch-by-branch form, each branch scaled by its own rates
        want = 0.0
        for i in range(2, len(hist.x0) - 2):
            rates = field.families(*source_rate(field, lines, grid.k,
                                                hist.x0[i]))
            for c, rate in zip(field.families(hist.plus, hist.minus),
                               rates, strict=True):
                deriv = five_point(c[i + FIVE_POINT_OFFSETS],
                                   hist.spacing())
                want = max(want, np.max(np.abs(deriv - rate))
                           / (1.0 + np.max(np.abs(rate))))
        calls = []
        original = dynamics._node_rates
        monkeypatch.setattr(dynamics, "_node_rates", lambda *args: (
            calls.append(len(args[3])) or original(*args)))
        # 17 interior samples in blocks of 5
        monkeypatch.setattr(dynamics, "_SERIES_BLOCK", _width(field, grid) * 5)
        got = mode_equation_residual(field, lines, grid, hist)
        assert got == pytest.approx(want, rel=1e-12)
        assert calls == [5] * 3 + [2]

    @pytest.mark.parametrize("corrupt", [None, 6, 7])
    def test_mode_equation_residual_flags_block_edge_corruption(
            self, corrupt, monkeypatch):
        # blocks of 4 samples, 2-5 and 6-9 first: stencils of both
        # blocks read slices 6 and 7
        w = static_worldline([0.2, -0.1, 0.4], coupling=1.3)
        grid = build_mode_grid(kmax=1.0, n_per_axis=2, kappa=1.0)
        hist = evolve_amplitudes(SCALAR, [w], grid, 0.0, 2.0, steps=100)
        monkeypatch.setattr(dynamics, "_SERIES_BLOCK",
                            _width(SCALAR, grid) * 4)
        if corrupt is not None:
            hist.minus[corrupt, 3] += 1e-3
        resid = mode_equation_residual(SCALAR, [w], grid, hist)
        assert (resid > 1e-3) if corrupt else (resid < 1e-7)

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_mode_equation_residual_is_nan_for_nan_history(self, name,
                                                           monkeypatch):
        # blocks of 4 samples: only the stencils of samples 9, 10, 12
        # and 13 read slice 11, none of them in the first block
        field = FIELDS[name]
        grid = build_mode_grid(kmax=2.0, n_per_axis=3, kappa=field.kappa)
        lines = _orbit_sources("none")
        hist = evolve_amplitudes(field, lines, grid, *WINDOW, 20)
        monkeypatch.setattr(dynamics, "_SERIES_BLOCK", _width(field, grid) * 4)
        assert mode_equation_residual(field, lines, grid, hist) < 1e-3
        hist.coeffs[(11, -1, len(grid) // 2) + (0,) * len(
            field.component_shape)] = np.nan
        assert np.isnan(mode_equation_residual(field, lines, grid, hist))

    def test_mode_equation_residual_skips_switch_on_kinks(self):
        # stencils across t_start 0.7 and 0.9 read 0.2 unless skipped
        ws = [static_worldline([0.2, -0.1, 0.4], coupling=1.3, t_start=0.7),
              static_worldline([-0.3, 0.2, 0.1], coupling=0.8, t_start=0.9)]
        grid = build_mode_grid(kmax=2.0, n_per_axis=5, kappa=1.0)
        hist = evolve_amplitudes(SCALAR, ws, grid, 0.0, 2.0, steps=396)
        assert mode_equation_residual(SCALAR, ws, grid, hist) < 1e-7
