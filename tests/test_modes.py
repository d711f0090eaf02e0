"""Mode grids: weights, shell exactness, budget, box modes, plane waves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covham import modes
from covham.errors import GridDomainError, ModeBudgetError
from covham.minkowski import (lower_index, mass_shell_energy, minkowski_dot,
                              on_shell_k)
from covham.modes import (ModeGrid, PlaneWaves, box_mode_grid,
                          build_mode_grid, k0_bounds)


def test_single_cell_weight_frozen_value():
    # kmax = 1, n = 1: one node at k = 0 (kappa = 1 so k0 = 1), dk = 2,
    # weight = 8 / (8 pi^3 * 2) = 1 / (2 pi^3)
    grid = build_mode_grid(kmax=1.0, n_per_axis=1, kappa=1.0)
    assert len(grid) == 1
    assert np.all(grid.k_spatial[0] == 0.0)
    assert grid.weight[0] == pytest.approx(1.0 / (2.0 * np.pi**3), rel=1e-14)


def test_every_node_is_on_shell():
    grid = build_mode_grid(kmax=3.0, n_per_axis=6, kappa=0.7)
    shell = minkowski_dot(grid.k, grid.k) - 0.7**2
    assert np.max(np.abs(shell)) < 1e-12


def test_even_grid_avoids_origin_for_massless_field():
    grid = build_mode_grid(kmax=2.0, n_per_axis=4, kappa=0.0)
    assert len(grid) == 64
    assert np.min(grid.k0) > 0.4  # midpoints sit at least dk/2 off axis


def test_weights_sum_to_measure_of_cube():
    # sum w * 2 k0 = dk^3 N / (8 pi^3) = (2 kmax)^3 / (8 pi^3)
    grid = build_mode_grid(kmax=1.5, n_per_axis=5, kappa=1.0)
    total = np.sum(grid.weight * 2.0 * grid.k0)
    assert total == pytest.approx(3.0**3 / (8.0 * np.pi**3), rel=1e-12)


def test_midpoint_rule_second_order_on_smooth_integrand():
    # integrate exp(-|k|^2) / (2 k0) over the cube; midpoint error is O(dk^2)
    def quad(n):
        g = build_mode_grid(kmax=2.0, n_per_axis=n, kappa=1.0)
        return np.sum(g.weight * np.exp(-np.sum(g.k_spatial**2, axis=1)))

    ref = quad(48)
    errs = [abs(quad(n) - ref) for n in (6, 12, 24)]
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(r > 1.7 for r in rates)


def test_budget_enforced_before_allocation(monkeypatch):
    monkeypatch.setattr(modes, "DEFAULT_MODE_BUDGET", 10**5)
    with pytest.raises(ModeBudgetError):
        build_mode_grid(kmax=1.0, n_per_axis=100, kappa=1.0)


def test_index_of_roundtrip_and_domain_error():
    grid = build_mode_grid(kmax=1.0, n_per_axis=4, kappa=0.5)
    i = 17
    assert grid.index_of(grid.k_spatial[i]) == i
    with pytest.raises(GridDomainError):
        grid.index_of([10.0, 0.0, 0.0])


@given(n=st.integers(min_value=1, max_value=8),
       kmax=st.floats(min_value=0.1, max_value=10.0),
       kappa=st.floats(min_value=0.01, max_value=5.0))
@settings(max_examples=40)
def test_grid_size_and_positive_weights(n, kmax, kappa):
    grid = build_mode_grid(kmax=kmax, n_per_axis=n, kappa=kappa)
    assert len(grid) == n**3
    assert np.all(grid.weight > 0.0)
    assert np.all(grid.k0 >= kappa)


def test_box_modes_weight_and_shell():
    grid = box_mode_grid(box_length=2.0 * np.pi, n_vectors=[[1, 0, 0], [0, 2, 0]],
                         kappa=1.0)
    k0 = np.sqrt([2.0, 5.0])
    assert grid.k0 == pytest.approx(k0)
    assert grid.weight == pytest.approx(1.0 / ((2 * np.pi) ** 3 * 2.0 * k0))


def test_box_modes_reject_duplicates_and_non_integers():
    with pytest.raises(ValueError):
        box_mode_grid(1.0, [[1, 0, 0], [1, 0, 0]], kappa=1.0)
    with pytest.raises(ValueError):
        box_mode_grid(1.0, [[0.5, 0, 0]], kappa=1.0)


# (n_per_axis, kappa): even and odd; massless and odd, the zero mode
# dropped
CUBE_GRIDS = [(6, 1.0), (7, 0.5), (5, 0.0), (4, 0.0), (1, 1.0)]


def _assert_tables_are_np_uniques(grid):
    """Each of grid.waves' tables is np.unique's (values, index) of its k
    column bit for bit, the index in the smallest unsigned dtype."""
    for column, (values, index) in zip(grid.k.T, grid.waves.tables,
                                       strict=True):
        want, inverse = np.unique(column, return_inverse=True)
        assert values.dtype == want.dtype
        assert values.tobytes() == want.tobytes()
        assert index.dtype == np.min_scalar_type(len(want) - 1)
        assert np.array_equal(index, inverse)


@pytest.mark.parametrize("n, kappa", CUBE_GRIDS)
def test_cube_tables_equal_np_unique_and_k0_the_shell(n, kappa):
    grid = build_mode_grid(kmax=2.0, n_per_axis=n, kappa=kappa)
    assert np.array_equal(grid.k0, mass_shell_energy(grid.k_spatial, kappa))
    _assert_tables_are_np_uniques(grid)
    # only a full cube carries its cube: a grid that drops a node sorts
    # its columns and sums its modes with one phase block
    assert (grid._cube is None) == (len(grid) < n**3)


def test_tables_leave_out_an_axis_value_no_mode_uses():
    # the massless cube on the axis (-1.6, -0.8, 0, 0.8, 1.6) without its
    # nodes below k0 = 2.3: every node whose kx is 0 goes (the largest
    # such |k| is 1.6 sqrt 2 = 2.26), and so a value of each spatial table
    cube = build_mode_grid(kmax=2.0, n_per_axis=5, kappa=0.0)
    keep = cube.k0 >= 2.3
    grid = ModeGrid(k=cube.k[keep], weight=cube.weight[keep])
    _assert_tables_are_np_uniques(grid)
    assert [len(v) for v, _ in grid.waves.tables[1:]] == [4] * 3


def test_cube_tables_equal_np_unique_over_a_sweep():
    # even and odd n, the 48^3 grid of the shipped static scenarios among
    # them; kappa 0 with odd n drops the zero mode (no cube, np.unique)
    for n in (1, 2, 3, 5, 7, 16, 47, 48):
        for kmax in (0.7, 3.0, 8.0):
            for kappa in (0.0, 0.4, 1.0):
                grid = build_mode_grid(kmax=kmax, n_per_axis=n, kappa=kappa)
                _assert_tables_are_np_uniques(grid)
                assert all(index.dtype.itemsize <= 2
                           for _, index in grid.waves.tables)


def test_full_cube_tables_sort_nothing_of_the_grids_size(monkeypatch):
    sizes = []
    original = np.unique

    def recorded(ar, *args, **kwargs):
        sizes.append(np.size(ar))
        return original(ar, *args, **kwargs)

    grid = build_mode_grid(kmax=8.0, n_per_axis=48, kappa=1.0)
    monkeypatch.setattr(modes.np, "unique", recorded)
    assert grid.waves.tables
    assert sizes and max(sizes) < len(grid)
    # control: a grid with no cube sorts its k0 column
    PlaneWaves(grid.k)
    assert max(sizes) == len(grid)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_odd_massless_grid_drops_the_zero_mode(n):
    assert len(build_mode_grid(kmax=2.0, n_per_axis=n, kappa=0.0)) == n**3 - 1


@settings(deadline=None, max_examples=100)
@given(kmax=st.floats(0.5, 13.0), n=st.integers(1, 24),
       kappa=st.sampled_from([0.0, 1e-9, 0.3, 1.0, 1.2]))
def test_k0_bounds_are_the_grid_extremes_bit_for_bit(kmax, n, kappa):
    # kappa 0 and 1e-9 are below the floor 1e-6 kmax: an odd axis drops
    # its centre, and a one-node grid keeps nothing (smallest k0 inf)
    grid = build_mode_grid(kmax, n, kappa)
    low, top = k0_bounds(kmax, n, kappa)
    if not len(grid):
        assert (n, low) == (1, np.inf)
        return
    assert (low, top) == (np.min(grid.k0), np.max(grid.k0))


def test_k0_bounds_overflow_to_inf():
    assert k0_bounds(1e200, 4, 1.0)[1] == np.inf


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name, call", [
    ("kmax", lambda v: build_mode_grid(v, 4, 1.0)),
    ("kappa", lambda v: build_mode_grid(2.0, 4, v)),
    ("kmax", lambda v: k0_bounds(v, 4, 1.0)),
    ("kappa", lambda v: k0_bounds(2.0, 4, v)),
    ("box_length", lambda v: box_mode_grid(v, [(1, 0, 0)], 1.0)),
], ids=["grid-kmax", "grid-kappa", "bounds-kmax", "bounds-kappa",
        "box_length"])
def test_non_finite_scales_rejected_by_name(name, call, value):
    # a NaN kmax or kappa dropped every node, an infinite kappa kept
    # k0 = inf at weight 0, and a NaN box length made a mode
    with pytest.raises(ValueError, match=f"^{name} must be .* finite"):
        call(value)


def _hand_built_grid(rng, n=40, kappa=0.8):
    """A grid whose k components are all distinct, built by hand."""
    k = on_shell_k(rng.uniform(-2.0, 2.0, size=(n, 3)), kappa)
    return ModeGrid(k=k, weight=1.0 / (2.0 * k[:, 0]))


PHASE_GRIDS = {
    "even": lambda rng: build_mode_grid(kmax=2.0, n_per_axis=6, kappa=1.0),
    "odd_massless": lambda rng: build_mode_grid(kmax=2.0, n_per_axis=5,
                                                kappa=0.0),
    "box": lambda rng: box_mode_grid(
        3.0, [[0, 0, 1], [1, -1, 0], [2, 0, -1], [-1, 2, 2]], 0.5),
    "all_distinct": _hand_built_grid,
}


class TestPlaneWaves:
    @pytest.mark.parametrize("name", sorted(PHASE_GRIDS))
    def test_matches_complex_exponential(self, name):
        rng = np.random.default_rng(11)
        grid = PHASE_GRIDS[name](rng)
        x = rng.uniform(-1.5, 1.5, size=(7, 4))
        kx = lower_index(x) @ grid.k.T  # (points, modes)
        for sign in (-1, +1):
            want = np.exp(sign * 1j * kx).T
            got = grid.waves.at(x, sign)
            assert got.shape == (len(grid), len(x))
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14
        # one point given as (4,) is the one-column case
        assert np.array_equal(grid.waves.at(x[2], -1)[:, 0],
                              grid.waves.at(x, -1)[:, 2])

    @pytest.mark.parametrize("name", sorted(PHASE_GRIDS))
    def test_sum_at_matches_the_direct_sum(self, name):
        # axis by axis on the full cube ("even"), one phase block otherwise
        rng = np.random.default_rng(13)
        grid = PHASE_GRIDS[name](rng)
        assert (grid._cube is not None) == (name == "even")
        terms = rng.normal(size=(len(grid), 2, 3)) + 1j * rng.normal(
            size=(len(grid), 2, 3))
        p = rng.uniform(-1.5, 1.5, size=(5, 3))
        for sign in (-1, +1):
            phase = np.exp(sign * 1j * (p @ grid.k_spatial.T))  # (P, N)
            want = np.einsum("pn,nab->pab", phase, terms)
            got = grid.waves.sum_at(terms, p, sign)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_tables_hold_each_distinct_value_once(self):
        rng = np.random.default_rng(2)
        grid = _hand_built_grid(rng)
        for values, _ in grid.waves.tables:
            assert len(values) == len(grid)
        cube = build_mode_grid(kmax=3.0, n_per_axis=48, kappa=1.0)
        tables = cube.waves.tables
        assert [len(v) for v, _ in tables[1:]] == [48, 48, 48]
        assert len(tables[0][0]) < 2000  # k0 repeats under the cube's symmetry
        for column, (values, index) in zip(cube.k.T, tables):
            assert index.dtype.itemsize <= 2
            assert np.array_equal(values[index], column)
        assert cube.waves is cube.waves  # built once, then cached

    @pytest.mark.parametrize("name", sorted(PHASE_GRIDS))
    def test_one_mode_equals_its_row_of_the_grid(self, name):
        rng = np.random.default_rng(5)
        grid = PHASE_GRIDS[name](rng)
        x = rng.uniform(-3.0, 3.0, size=(9, 4))
        for sign in (-1, +1):
            rows = grid.waves.at(x, sign)
            for i in (0, len(grid) // 2, len(grid) - 1):
                one = PlaneWaves(grid.k[i:i + 1]).at(x, sign)
                assert np.all(one[0] == rows[i])

    def test_swapped_index_entries_are_seen(self):
        grid = build_mode_grid(kmax=2.0, n_per_axis=6, kappa=1.0)
        x = np.random.default_rng(3).uniform(-1.5, 1.5, size=(5, 4))
        want = np.exp(-1j * (lower_index(x) @ grid.k.T)).T
        waves = PlaneWaves(grid.k)
        _, index = waves.tables[1]  # kx
        first, other = 0, int(np.flatnonzero(index != index[0])[0])
        index[[first, other]] = index[[other, first]]
        assert np.max(np.abs(waves.at(x, -1) - want)) >= 1e-3

    @pytest.mark.parametrize("component", [0, 1], ids=["k0", "kx"])
    def test_swapped_cube_index_entries_are_seen(self, component):
        # the full cube's own tables: k0 from the axis squares, kx the axis
        grid = build_mode_grid(kmax=2.0, n_per_axis=6, kappa=1.0)
        x = np.random.default_rng(3).uniform(-1.5, 1.5, size=(5, 4))
        want = np.exp(-1j * (lower_index(x) @ grid.k.T)).T
        assert np.max(np.abs(grid.waves.at(x, -1) - want)) <= 1e-14
        _, index = grid.waves.tables[component]
        first, other = 0, int(np.flatnonzero(index != index[0])[0])
        index[[first, other]] = index[[other, first]]
        assert np.max(np.abs(grid.waves.at(x, -1) - want)) >= 1e-3
