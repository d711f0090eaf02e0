"""Source rates, Simpson evolution, reconstruction, equation residuals."""

import numpy as np
import pytest

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
from covham.modes import build_mode_grid
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


class TestWeightedRateSum:
    @pytest.mark.parametrize("n_nodes", [1, dynamics._NODE_CHUNK,
                                         dynamics._NODE_CHUNK + 1,
                                         2 * dynamics._NODE_CHUNK + 5])
    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_matches_per_node_loop(self, name, n_nodes):
        field = FIELDS[name]
        grid = build_mode_grid(kmax=2.0, n_per_axis=3, kappa=field.kappa)
        rng = np.random.default_rng(n_nodes)
        nodes = np.sort(rng.uniform(0.0, 2.0, size=n_nodes))
        weights = rng.uniform(-1.0, 1.0, size=n_nodes)
        lines = _orbit_sources("mid_panel")
        got = dynamics._weighted_rate_sum(field, lines, grid.k, nodes,
                                          weights)
        want = _reference_rate_sum(field, lines, grid.k, nodes, weights)
        for g, w in zip(got, want, strict=True):
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
        sums = dynamics._weighted_rate_sum(SCALAR, late, grid.k,
                                           np.linspace(0.0, 4.0, 40),
                                           np.ones(40))
        assert all(not np.any(total) for total in sums)


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
        calls = _count_calls(monkeypatch, ("source_terms", "source_rate"),
                             (dynamics,))
        grid = build_mode_grid(kmax=2.0, n_per_axis=3, kappa=1.0)
        evolve_amplitudes(SCALAR, _orbit_sources("mid_panel"), grid,
                          *WINDOW, STEPS, save="last")
        assert calls == {"source_terms": 2 * STEPS + 1, "source_rate": 0}


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
        calls = _count_calls(monkeypatch, ("source_rate", "reconstruct_field"),
                             (dynamics, verify))
        sources = [_straight_source("static"), _late_source("uniform")]
        grid = build_mode_grid(kmax=2.0, n_per_axis=3, kappa=1.0)
        averaged_profile(SCALAR, sources, grid, PROFILE_POINTS, center=5.0,
                         period=2.0, n_samples=n_samples)
        assert calls == {"source_rate": len(sources),
                         "reconstruct_field": len(PROFILE_POINTS)}


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

    @pytest.mark.parametrize("fault", ["one_short", "k0_sign"])
    def test_comparison_flags_faulty_rotation(self, fault):
        sources = [_straight_source("uniform"), _late_source("static")]
        grid = build_mode_grid(kmax=2.0, n_per_axis=4, kappa=1.0)
        args = (SCALAR, sources, grid, *_uniform_samples(32), 5.0)
        got = dynamics._straight_line_mean(*args)
        bad = _per_sample_mean(*args, fault=fault)
        assert np.max(np.abs(got[0] - bad[0])) > 1e-3 * np.max(np.abs(got[0]))


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
        original = dynamics.five_point
        monkeypatch.setattr(dynamics, "five_point", lambda samples, h: (
            calls.append(np.shape(samples)) or original(samples, h)))
        got = mode_equation_residual(field, lines, grid, hist)
        assert got == pytest.approx(want, rel=1e-12)
        stacked = (4, len(field.branches), len(grid)) + field.component_shape
        assert calls == [stacked] * (len(hist.x0) - 4)

    def test_mode_equation_residual_skips_switch_on_kinks(self):
        # stencils across t_start 0.7 and 0.9 read 0.2 unless skipped
        ws = [static_worldline([0.2, -0.1, 0.4], coupling=1.3, t_start=0.7),
              static_worldline([-0.3, 0.2, 0.1], coupling=0.8, t_start=0.9)]
        grid = build_mode_grid(kmax=2.0, n_per_axis=5, kappa=1.0)
        hist = evolve_amplitudes(SCALAR, ws, grid, 0.0, 2.0, steps=396)
        assert mode_equation_residual(SCALAR, ws, grid, hist) < 1e-7
