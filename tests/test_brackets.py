"""Poisson bracket structure over mode grids.

The canonical pair value has a closed form (V.V eta / weight), so the
dual route here is formula vs. the generic bracket applied to unit
coordinate observables.  Algebra laws (antisymmetry, bilinearity,
Leibniz, Jacobi) are checked on random observables with seeded draws.
"""
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covham import brackets
from covham.brackets import (
    BracketConfig,
    GeneralObservable,
    QuadraticObservable,
    StateLayout,
    bracket_observable,
    canonical_pair_bracket,
    coordinate_observable,
    dw_conservation_check,
    jacobi_defect,
    jacobi_terms,
    momentum_vector_observable,
    poisson_bracket,
    product,
)
from covham.canonical import (
    mode_hamiltonian_canonical,
    mode_hamiltonian_gradients,
    row_signs,
)
from covham.errors import GridDomainError, ModeBudgetError
from covham.fields import em_field, scalar_field, spinor_field, tensor_field
from covham.minkowski import METRIC_DIAG, minkowski_dot
from covham.modes import box_mode_grid, build_mode_grid
from covham.worldlines import static_worldline

SCALAR = scalar_field(s=1.0, m=1.0, c=1.0)
VECTOR = tensor_field(rank=1, a2=0.7, b2=0.7 * 1.3**2)
EM = em_field(c=1.0)

NS = [(1, 0, 0), (0, 1, 0), (0, 1, 1)]
# unit box: weights 1/(2 k0) stay O(0.1), so nested brackets do not
# amplify roundoff through the 1/weight structure constants
L = 1.0


def scalar_cfg(v=None):
    grid = box_mode_grid(L, NS, SCALAR.kappa)
    if v is None:
        return BracketConfig(field=SCALAR, grid=grid)
    return BracketConfig(field=SCALAR, grid=grid, v=v)


def vector_cfg():
    return BracketConfig(field=VECTOR, grid=box_mode_grid(L, NS, VECTOR.kappa))


def em_cfg():
    return BracketConfig(field=EM, grid=box_mode_grid(L, NS, 0.0))


def random_quadratic(layout, rng, scale=1.0):
    a = scale * rng.normal(size=layout.size)
    m = rng.normal(size=(layout.size, layout.size))
    return QuadraticObservable(rng.normal(), a, scale * 0.5 * (m + m.T))


class TestCanonicalPair:
    def test_frozen_time_time_value(self):
        # L = 2 pi puts k = (1,0,0) on the grid; w = 1/(L^3 2 k0) with
        # k0 = sqrt(2), so the pair is (2 pi)^3 2 sqrt(2)
        grid = box_mode_grid(2.0 * np.pi, [(1, 0, 0)], SCALAR.kappa)
        cfg = BracketConfig(field=SCALAR, grid=grid)
        k = cfg.grid.k_spatial[0]
        got = canonical_pair_bracket(0, 0, k, k, cfg)
        assert got == pytest.approx((2.0 * np.pi) ** 3 * 2.0 * np.sqrt(2.0),
                                    rel=1e-13)

    def test_spatial_component_flips_sign(self):
        # the arguments are component indices: for rank 1, c is mu
        cfg = vector_cfg()
        k = cfg.grid.k_spatial[1]
        plus = canonical_pair_bracket(0, 0, k, k, cfg)
        minus = canonical_pair_bracket(1, 1, k, k, cfg)
        assert minus == pytest.approx(-plus, rel=1e-13)

    def test_pair_broadcasts_over_rank_two_components(self):
        # sigma_c is the product of the metric signs of c's two indices
        rank2 = tensor_field(rank=2, a2=1.0, b2=1.0)
        cfg = BracketConfig(field=rank2, grid=box_mode_grid(
            L, NS, rank2.kappa), v=[1.0, 0.3, -0.2, 0.1])
        k, other = cfg.grid.k_spatial[2], cfg.grid.k_spatial[0]
        c = np.arange(16)
        got = canonical_pair_bracket(c[:, None], c, k, k, cfg)
        sigma = np.outer(METRIC_DIAG, METRIC_DIAG).ravel()
        vv = minkowski_dot(cfg.v, cfg.v)
        assert np.array_equal(got, np.diag(vv * sigma / cfg.grid.weight[2]))
        assert got[4, 4] == canonical_pair_bracket(4, 4, k, k, cfg) < 0.0
        assert not np.any(canonical_pair_bracket(c[:, None], c, k, other,
                                                 cfg))
        lay = cfg.layout
        for cc in (0, 1, 4, 6, 15):
            a = coordinate_observable(lay, "q", 2, "plus", comp=cc)
            b = momentum_vector_observable(lay, cfg.v, 2, "plus", comp=cc)
            assert poisson_bracket(a, b, cfg, np.zeros(lay.size)) == (
                pytest.approx(got[cc, cc], rel=1e-12))

    def test_distinct_modes_vanish(self):
        cfg = scalar_cfg()
        assert canonical_pair_bracket(
            0, 0, cfg.grid.k_spatial[0], cfg.grid.k_spatial[1], cfg) == 0.0

    def test_off_diagonal_metric_vanishes(self):
        cfg = scalar_cfg()
        k = cfg.grid.k_spatial[0]
        assert canonical_pair_bracket(0, 2, k, k, cfg) == 0.0

    def test_off_grid_mode_raises(self):
        cfg = scalar_cfg()
        with pytest.raises(GridDomainError):
            canonical_pair_bracket(0, 0, [0.5, 0.0, 0.0],
                                   [0.5, 0.0, 0.0], cfg)

    def test_pair_scales_with_v_squared(self):
        base = scalar_cfg()
        stretched = scalar_cfg(v=[3.0, 0.0, 0.0, 0.0])
        k = base.grid.k_spatial[0]
        assert canonical_pair_bracket(0, 0, k, k, stretched) == pytest.approx(
            9.0 * canonical_pair_bracket(0, 0, k, k, base), rel=1e-13)

    def test_generic_bracket_reproduces_pair_formula(self):
        # dual route: unit coordinate observables through the full bracket
        for cfg in (scalar_cfg(), vector_cfg(), em_cfg()):
            lay = cfg.layout
            comp_range = range(lay.comp_size)
            state = np.zeros(lay.size)
            for i in (0, 2):
                for mu in comp_range:
                    a = coordinate_observable(lay, "q", i, "plus", comp=mu)
                    for j in (0, 2):
                        for nu in comp_range:
                            b = momentum_vector_observable(
                                lay, cfg.v, j, "plus", comp=nu)
                            want = canonical_pair_bracket(
                                mu, nu, cfg.grid.k_spatial[i],
                                cfg.grid.k_spatial[j], cfg)
                            got = poisson_bracket(a, b, cfg, state)
                            assert got == pytest.approx(want, rel=1e-12,
                                                        abs=1e-12)

    def test_cross_branch_bracket_vanishes(self):
        cfg = scalar_cfg()
        lay = cfg.layout
        a = coordinate_observable(lay, "q", 1, "plus")
        b = momentum_vector_observable(lay, cfg.v, 1, "minus")
        assert poisson_bracket(a, b, cfg, np.zeros(lay.size)) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        mu=st.integers(min_value=0, max_value=3),
        nu=st.integers(min_value=0, max_value=3),
        i=st.integers(min_value=0, max_value=2),
        j=st.integers(min_value=0, max_value=2),
        v0=st.floats(min_value=-2.0, max_value=2.0),
        v1=st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_pair_property_any_v(self, mu, nu, i, j, v0, v1):
        cfg_v = vector_cfg()
        cfg = BracketConfig(field=VECTOR, grid=cfg_v.grid,
                            v=[v0, v1, 0.25, 0.0])
        lay = cfg.layout
        a = coordinate_observable(lay, "q", i, "plus", comp=mu)
        b = momentum_vector_observable(lay, cfg.v, j, "plus", comp=nu)
        want = canonical_pair_bracket(mu, nu, cfg.grid.k_spatial[i],
                                      cfg.grid.k_spatial[j], cfg)
        got = poisson_bracket(a, b, cfg, np.zeros(lay.size))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestAlgebraLaws:
    def test_antisymmetry(self):
        cfg = vector_cfg()
        rng = np.random.default_rng(7)
        lay = cfg.layout
        state = rng.normal(size=lay.size)
        a = random_quadratic(lay, rng)
        b = random_quadratic(lay, rng)
        ab = poisson_bracket(a, b, cfg, state)
        ba = poisson_bracket(b, a, cfg, state)
        assert abs(ab + ba) <= 1e-12 * (1.0 + abs(ab))

    def test_bilinearity(self):
        cfg = scalar_cfg()
        rng = np.random.default_rng(11)
        lay = cfg.layout
        state = rng.normal(size=lay.size)
        a = random_quadratic(lay, rng)
        b = random_quadratic(lay, rng)
        c = random_quadratic(lay, rng)
        lhs = poisson_bracket(2.5 * a + (-1.25) * b, c, cfg, state)
        rhs = (2.5 * poisson_bracket(a, c, cfg, state)
               - 1.25 * poisson_bracket(b, c, cfg, state))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_leibniz_product_rule(self):
        cfg = scalar_cfg()
        rng = np.random.default_rng(13)
        lay = cfg.layout
        state = rng.normal(size=lay.size)
        a = random_quadratic(lay, rng)
        b = random_quadratic(lay, rng)
        c = random_quadratic(lay, rng)
        lhs = poisson_bracket(product(a, b), c, cfg, state)
        rhs = (a.value(state) * poisson_bracket(b, c, cfg, state)
               + b.value(state) * poisson_bracket(a, c, cfg, state))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_bracket_scales_linearly_in_v(self):
        grid = box_mode_grid(L, NS, SCALAR.kappa)
        cfg1 = BracketConfig(field=SCALAR, grid=grid, v=[1.0, 0.2, 0.0, 0.4])
        cfg3 = BracketConfig(field=SCALAR, grid=grid, v=[3.0, 0.6, 0.0, 1.2])
        rng = np.random.default_rng(17)
        lay = cfg1.layout
        state = rng.normal(size=lay.size)
        a = random_quadratic(lay, rng)
        b = random_quadratic(lay, rng)
        assert poisson_bracket(a, b, cfg3, state) == pytest.approx(
            3.0 * poisson_bracket(a, b, cfg1, state), rel=1e-12)

    def test_closed_bracket_matches_pointwise_value(self):
        cfg = vector_cfg()
        rng = np.random.default_rng(19)
        lay = cfg.layout
        a = random_quadratic(lay, rng)
        b = random_quadratic(lay, rng)
        closed = bracket_observable(a, b, cfg)
        for _ in range(4):
            state = rng.normal(size=lay.size)
            assert closed.value(state) == pytest.approx(
                poisson_bracket(a, b, cfg, state), rel=1e-11, abs=1e-11)

    def test_quadratic_gradient_matches_finite_differences(self):
        cfg = scalar_cfg()
        rng = np.random.default_rng(23)
        lay = cfg.layout
        obs = random_quadratic(lay, rng)
        state = rng.normal(size=lay.size)
        grad = obs.gradient(state)
        h = 1e-6
        for idx in rng.choice(lay.size, size=8, replace=False):
            up = state.copy()
            up[idx] += h
            dn = state.copy()
            dn[idx] -= h
            fd = (obs.value(up) - obs.value(dn)) / (2.0 * h)
            assert grad[idx] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_product_gradient_matches_finite_differences(self):
        cfg = scalar_cfg()
        rng = np.random.default_rng(29)
        lay = cfg.layout
        prod = product(random_quadratic(lay, rng), random_quadratic(lay, rng))
        state = rng.normal(size=lay.size)
        grad = prod.gradient(state)
        h = 1e-6
        for idx in (0, 3, lay.size - 1):
            up = state.copy()
            up[idx] += h
            dn = state.copy()
            dn[idx] -= h
            fd = (prod.value(up) - prod.value(dn)) / (2.0 * h)
            assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-5)

    def test_linear_part_alone_equals_a_dense_zero_hessian(self):
        cfg = vector_cfg()
        rng = np.random.default_rng(43)
        n = cfg.layout.size
        state = rng.normal(size=n)
        linears = [rng.normal(size=n) for _ in range(3)]
        quad = random_quadratic(cfg.layout, rng)
        lean = [QuadraticObservable(0.0, a) for a in linears] + [quad]
        dense = [QuadraticObservable(0.0, a, np.zeros((n, n)))
                 for a in linears] + [quad]
        assert lean[0].quad is None
        for obs in (lean, dense):
            obs.append(2.5 * obs[0] + obs[1])
            obs.append(obs[1] + obs[3])
        for x, y in zip(lean, dense):
            assert x.value(state) == y.value(state)
            assert np.array_equal(x.gradient(state), y.gradient(state))
        for i, j in ((0, 1), (0, 3), (3, 2), (4, 5), (5, 4)):
            assert (poisson_bracket(lean[i], lean[j], cfg, state)
                    == poisson_bracket(dense[i], dense[j], cfg, state))
            got = bracket_observable(lean[i], lean[j], cfg)
            want = bracket_observable(dense[i], dense[j], cfg)
            assert got.value(state) == want.value(state)
            assert np.array_equal(got.gradient(state), want.gradient(state))
        for obs in (lean[:3], lean[2:5], lean[3:]):
            dense_obs = [dense[lean.index(o)] for o in obs]
            assert (jacobi_terms(*obs, cfg, state)
                    == jacobi_terms(*dense_obs, cfg, state))

    def test_coordinate_observable_holds_no_dense_hessian(self):
        # 400 rank-0 box modes: 4,000 variables, a 128 MB n x n array
        ns = [(i, j, k) for i in range(-4, 4) for j in range(-4, 4)
              for k in range(-4, 4)][:400]
        lay = StateLayout(SCALAR, box_mode_grid(L, ns, SCALAR.kappa))
        assert lay.size == 4000
        state = np.random.default_rng(47).normal(size=lay.size)
        tracemalloc.start()
        try:
            q = coordinate_observable(lay, "q", 5)
            p = momentum_vector_observable(lay, np.array([1.0, 0.3, 0.0,
                                                          -0.2]), 7)
            grads = [q.gradient(state), p.gradient(state)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert q.quad is None and p.quad is None
        assert grads[0][lay.index[5, 0, 0, 0]] == 1.0
        assert peak < 10 * lay.size * 8  # a few n-vectors, no n x n array

    def test_gradient_size_mismatch_raises(self):
        cfg = scalar_cfg()
        bad = GeneralObservable(lambda s: 0.0, lambda s: np.zeros(3))
        ok = coordinate_observable(cfg.layout, "q", 0)
        with pytest.raises(ValueError, match="gradient"):
            poisson_bracket(bad, ok, cfg, np.zeros(cfg.layout.size))

    def test_state_size_mismatch_raises(self):
        cfg = scalar_cfg()
        a = coordinate_observable(cfg.layout, "q", 0)
        with pytest.raises(ValueError, match="layout"):
            poisson_bracket(a, a, cfg, np.zeros(4))


class TestJacobi:
    def test_three_linears_exact_zero(self):
        cfg = scalar_cfg()
        rng = np.random.default_rng(31)
        lay = cfg.layout
        obs = [QuadraticObservable(0.0, rng.normal(size=lay.size))
               for _ in range(3)]
        state = rng.normal(size=lay.size)
        assert jacobi_defect(*obs, cfg, state) == 0.0

    def test_two_linears_one_quadratic(self):
        cfg = scalar_cfg()
        rng = np.random.default_rng(37)
        lay = cfg.layout
        a = QuadraticObservable(0.0, rng.normal(size=lay.size))
        b = QuadraticObservable(0.0, rng.normal(size=lay.size))
        c = random_quadratic(lay, rng)
        state = rng.normal(size=lay.size)
        assert jacobi_defect(a, b, c, cfg, state) < 1e-10

    def test_three_quadratics(self):
        for cfg in (scalar_cfg(), vector_cfg(), em_cfg()):
            rng = np.random.default_rng(41)
            lay = cfg.layout
            obs = [random_quadratic(lay, rng) for _ in range(3)]
            state = rng.normal(size=lay.size)
            assert jacobi_defect(*obs, cfg, state) < 1e-8

    def test_defect_grows_with_scale_but_relative_stays_roundoff(self):
        cfg = vector_cfg()
        rng = np.random.default_rng(43)
        lay = cfg.layout
        obs = [random_quadratic(lay, rng, scale=1e4) for _ in range(3)]
        state = 1e2 * rng.normal(size=lay.size)
        terms = jacobi_terms(*obs, cfg, state)
        defect = jacobi_defect(*obs, cfg, state)
        assert defect == abs(sum(terms))  # bit for bit
        assert defect > 1e-8  # the absolute tolerance would fail
        assert defect / sum(abs(t) for t in terms) < 1e-12

    def test_general_observable_rejected(self):
        cfg = scalar_cfg()
        lay = cfg.layout
        lin = coordinate_observable(lay, "q", 0)
        gen = GeneralObservable(lambda s: float(np.sum(s**3)),
                                lambda s: 3.0 * s**2)
        with pytest.raises(TypeError, match="quadratic"):
            jacobi_defect(lin, lin, gen, cfg, np.zeros(lay.size))

    @pytest.mark.parametrize("make_cfg, scale, state_scale", [
        (scalar_cfg, 1.0, 1.0), (vector_cfg, 1.0, 1.0), (em_cfg, 1.0, 1.0),
        (vector_cfg, 1e4, 1e2)], ids=["scalar", "vector", "em", "vector-1e4"])
    def test_terms_match_nested_closed_bracket(self, make_cfg, scale,
                                               state_scale):
        # the gradient-at-state terms against {x, {y, z}} with {y, z}
        # formed as a whole quadratic observable first
        cfg = make_cfg()
        rng = np.random.default_rng(47)
        lay = cfg.layout
        a, b, c = [random_quadratic(lay, rng, scale=scale) for _ in range(3)]
        state = state_scale * rng.normal(size=lay.size)
        nested = [poisson_bracket(x, bracket_observable(y, z, cfg), cfg,
                                  state)
                  for x, y, z in ((a, b, c), (b, c, a), (c, a, b))]
        terms = jacobi_terms(a, b, c, cfg, state)
        bound = 1e-12 * sum(abs(t) for t in nested)
        assert max(abs(t - n) for t, n in zip(terms, nested)) <= bound

    def test_one_tensor_and_no_closed_bracket_per_call(self, monkeypatch):
        calls = {"tensor": 0, "closed": 0}
        tensor = BracketConfig.poisson_tensor
        closed = brackets.bracket_observable

        def counted_tensor(cfg):
            calls["tensor"] += 1
            return tensor(cfg)

        def counted_closed(*args):
            calls["closed"] += 1
            return closed(*args)

        monkeypatch.setattr(BracketConfig, "poisson_tensor", counted_tensor)
        monkeypatch.setattr(brackets, "bracket_observable", counted_closed)
        cfg = vector_cfg()
        rng = np.random.default_rng(53)
        obs = [random_quadratic(cfg.layout, rng) for _ in range(3)]
        state = rng.normal(size=cfg.layout.size)
        jacobi_terms(*obs, cfg, state)
        assert calls == {"tensor": 1, "closed": 0}
        # one Lambda per config: later brackets reuse its entries
        jacobi_defect(*obs, cfg, state)
        poisson_bracket(obs[0], obs[1], cfg, state)
        assert calls == {"tensor": 1, "closed": 0}

    def test_state_size_mismatch_raises(self):
        cfg = scalar_cfg()
        a = coordinate_observable(cfg.layout, "q", 0)
        with pytest.raises(ValueError, match="layout"):
            jacobi_terms(a, a, a, cfg, np.zeros(4))


class TestApply:
    """Lambda applied through its nonzero entries, built once per config."""

    V = [0.7, -0.3, 0.2, 1.9]  # every pi row in every q row's sum

    def cfg(self, field, v=V):
        return BracketConfig(field=field, grid=box_mode_grid(
            L, NS, field.kappa), v=v)

    @staticmethod
    def assert_close(got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("field", [SCALAR, VECTOR, tensor_field(
        rank=2, a2=1.0, b2=1.0), EM], ids=["scalar", "rank1", "rank2", "em"])
    @pytest.mark.parametrize("cols", [(), (3,)], ids=["1d", "2d"])
    def test_matches_the_dense_tensor(self, field, cols):
        cfg = self.cfg(field)
        x = np.random.default_rng(73).normal(size=(cfg.layout.size,) + cols)
        self.assert_close(cfg.apply(x), cfg.poisson_tensor() @ x)

    def test_every_bracket_sees_a_non_antisymmetric_patch(self,
                                                          monkeypatch):
        # one entry moved off antisymmetry and one zero entry filled,
        # patched before the config's first bracket
        original = BracketConfig.poisson_tensor

        def poisson_tensor(cfg):
            lam = original(cfg)
            d = 1e-1 * np.max(np.abs(lam))
            lam[cfg.layout.q_index(1, "plus"),
                cfg.layout.pi_index(1, "plus", 0)] += d
            lam[0, -1] += d
            return lam

        cfg = self.cfg(VECTOR)
        monkeypatch.setattr(BracketConfig, "poisson_tensor", poisson_tensor)
        lam, clean = cfg.poisson_tensor(), original(cfg)
        assert not np.array_equal(lam, -lam.T)
        rng = np.random.default_rng(79)
        a, b, c = [random_quadratic(cfg.layout, rng) for _ in range(3)]
        state = rng.normal(size=cfg.layout.size)
        ga, gb, gc = (o.gradient(state) for o in (a, b, c))

        got = poisson_bracket(a, b, cfg, state)
        assert got == pytest.approx(ga @ lam @ gb, rel=1e-12)
        assert got != pytest.approx(ga @ clean @ gb, rel=1e-6)

        ab = bracket_observable(a, b, cfg)
        assert ab.const == pytest.approx(a.linear @ lam @ b.linear,
                                         rel=1e-12)
        self.assert_close(ab.linear, a.quad @ lam @ b.linear
                          + b.quad @ lam.T @ a.linear)
        quad = a.quad @ lam @ b.quad
        self.assert_close(ab.quad, quad + quad.T)
        # the closed bracket follows the patch as poisson_bracket does
        assert ab.value(state) == pytest.approx(got, rel=1e-12)

        def nested(x, y, z):  # grad x . Lambda grad {y, z} at the state
            return x @ lam @ (y[1].quad @ lam @ z[0] - z[1].quad @ lam @ y[0])

        pairs = [(ga, a), (gb, b), (gc, c)]
        want = [nested(pairs[x][0], pairs[y], pairs[z])
                for x, y, z in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]
        assert jacobi_terms(a, b, c, cfg, state) == pytest.approx(want,
                                                                  rel=1e-10)

    def test_returned_tensor_does_not_reach_the_entries(self):
        cfg = self.cfg(VECTOR)
        x = np.random.default_rng(83).normal(size=cfg.layout.size)
        cfg.poisson_tensor()[:] = 7.0  # before the entries exist
        want = cfg.apply(x)
        cfg.poisson_tensor()[:] = 7.0  # after
        assert np.array_equal(cfg.apply(x), want)
        self.assert_close(want, cfg.poisson_tensor() @ x)

    def test_configs_keep_separate_entries(self):
        one, two = self.cfg(SCALAR), self.cfg(SCALAR, v=[1.0, 0.0, 0.0, 0.0])
        x = np.random.default_rng(89).normal(size=one.layout.size)
        first = one.apply(x)
        self.assert_close(two.apply(x), two.poisson_tensor() @ x)
        assert one._entries is not two._entries
        assert np.array_equal(one.apply(x), first)
        assert not np.allclose(first, two.apply(x))

    def test_first_bracket_leaves_lambda_mostly_unallocated(self):
        # 100 rank-1 box modes: 4,000 variables, a 128 MB dense Lambda
        # with a few nonzero entries a row.  The child reports its own
        # peak growth over the first bracket, which builds Lambda
        child = textwrap.dedent("""\
            import resource
            import numpy as np
            from covham.brackets import BracketConfig, QuadraticObservable
            from covham.brackets import poisson_bracket
            from covham.fields import tensor_field
            from covham.modes import box_mode_grid
            vec = tensor_field(rank=1, a2=0.7, b2=0.7 * 1.3**2)
            ns = [(i, j, k) for i in range(-2, 3) for j in range(-2, 3)
                  for k in range(-2, 2)]
            cfg = BracketConfig(vec, box_mode_grid(1.0, ns, vec.kappa),
                                v=[0.7, -0.3, 0.2, 1.9])
            n = cfg.layout.size
            obs = QuadraticObservable(0.0, np.ones(n))
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            poisson_bracket(obs, obs, cfg, np.zeros(n))
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print(n, after - before)
            """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", child], env=env,
                             capture_output=True, text=True, check=True)
        size, growth_kib = map(int, out.stdout.split())
        assert size == 4000
        assert growth_kib < 40 * 1024

    def test_zero_variable_config(self):
        # a massless 1-per-axis grid drops its one node, k = 0
        massless = scalar_field(s=1.0, m=0.0, c=1.0)
        cfg = BracketConfig(field=massless,
                            grid=build_mode_grid(1.0, 1, massless.kappa))
        assert cfg.layout.size == 0
        assert cfg.poisson_tensor().shape == (0, 0)
        assert cfg.apply(np.zeros(0)).shape == (0,)
        assert cfg.apply(np.zeros((0, 3))).shape == (0, 3)
        empty = QuadraticObservable(1.0, np.zeros(0))
        assert poisson_bracket(empty, empty, cfg, np.zeros(0)) == 0.0


class TestConservationIdentity:
    def test_em_sector_structurally_zero(self):
        cfg = em_cfg()
        rng = np.random.default_rng(43)
        state = rng.normal(size=cfg.layout.size)
        assert dw_conservation_check(cfg, state) == 0.0

    def test_scalar_sector_structurally_zero(self):
        cfg = scalar_cfg()
        rng = np.random.default_rng(47)
        state = rng.normal(size=cfg.layout.size)
        assert dw_conservation_check(cfg, state) == 0.0

    def test_vector_sector_structurally_zero(self):
        cfg = vector_cfg()
        rng = np.random.default_rng(53)
        state = rng.normal(size=cfg.layout.size)
        assert dw_conservation_check(cfg, state) == 0.0


class TestStateView:
    def test_index_view_matches_coordinates_and_modes(self):
        for cfg in (scalar_cfg(), vector_cfg(), em_cfg()):
            lay = cfg.layout
            assert lay.index.shape == lay.shape == (
                len(cfg.grid), len(lay.branches), 5, lay.comp_size)
            assert not lay.index.flags.writeable
            state = np.random.default_rng(67).normal(size=lay.size)
            modes = lay.modes(state)
            for i in range(len(cfg.grid)):
                for b, name in enumerate(lay.branches):
                    q = modes.q[i, b].reshape(-1)
                    pi = modes.pi[i, b].reshape(4, -1)
                    for c in range(lay.comp_size):
                        at = lay.index[i, b, :, c]
                        assert at[0] == lay.q_index(i, name, c)
                        assert state[at[0]] == q[c]
                        for mu in range(4):
                            assert at[1 + mu] == lay.pi_index(i, name, mu, c)
                            assert state[at[1 + mu]] == pi[mu, c]

    @pytest.mark.parametrize("make_cfg", [scalar_cfg, vector_cfg, em_cfg],
                             ids=["scalar", "vector", "em"])
    def test_pack_gradient_matches_central_differences(self, make_cfg):
        # the gradient by the stored variables: one stacked call on the
        # grid's modes times row_signs.  sum_k J_k is quadratic plus
        # linear in them, so central differences are exact up to round-off
        cfg = make_cfg()
        lay = cfg.layout
        source = [static_worldline([0.2, -0.1, 0.3], coupling=0.8)]
        x = np.array([0.4, 0.1, 0.2, -0.3])
        state = np.random.default_rng(71).normal(size=lay.size)

        def total_j(s):
            return np.sum(mode_hamiltonian_canonical(
                cfg.field, cfg.grid.k, lay.modes(s), x, source))

        got = (mode_hamiltonian_gradients(
            cfg.field, cfg.grid.k, lay.modes(state), x, source).rows
            * row_signs(cfg.field)).ravel()
        h = 1e-4
        fd = np.array([(total_j(state + h * e) - total_j(state - h * e))
                       / (2.0 * h) for e in np.eye(lay.size)])
        assert np.max(np.abs(got - fd)) <= 1e-10 * np.max(np.abs(got))


class TestLayoutAndGuards:
    def test_modes_view_the_state(self):
        for cfg in (scalar_cfg(), vector_cfg(), em_cfg()):
            lay = cfg.layout
            rng = np.random.default_rng(59)
            state = rng.normal(size=lay.size)
            modes = lay.modes(state)
            assert modes.rows.shape == lay.shape[:3] + (
                cfg.field.component_shape)
            assert np.shares_memory(modes.rows, state)
            assert np.array_equal(modes.rows.ravel(), state)

    @pytest.mark.parametrize("v", [[1.0, 0.0, 0.0, 0.0],
                                   [0.7, -0.3, 0.0, 1.9]],
                             ids=["time-like-axis", "zero-component"])
    def test_poisson_tensor_matches_entrywise_formula(self, v):
        # Lambda[q(i, b, c), pi(i, b, mu, c)] = V^mu eta_mumu sigma_c / w_i,
        # written entry by entry; the array build must agree bit for bit
        for field in (SCALAR, VECTOR, EM):
            grid = box_mode_grid(L, NS, field.kappa)
            cfg = BracketConfig(field=field, grid=grid, v=v)
            lay = cfg.layout
            want = np.zeros((lay.size, lay.size))
            for i in range(len(grid)):
                for name in lay.branches:
                    for mu in range(4):
                        vfac = (1.0 / grid.weight[i]) * cfg.v[mu] * (
                            1.0 if mu == 0 else -1.0)
                        if vfac == 0.0:
                            continue
                        for c in range(lay.comp_size):
                            val = vfac * lay.sigma_flat[c]
                            want[lay.q_index(i, name, c),
                                 lay.pi_index(i, name, mu, c)] = val
                            want[lay.pi_index(i, name, mu, c),
                                 lay.q_index(i, name, c)] = -val
            got = cfg.poisson_tensor()
            assert np.array_equal(got, want)
            assert not np.any(np.signbit(got[got == 0.0]))

    def test_layout_built_once_tensor_fresh(self):
        cfg = vector_cfg()
        assert cfg.layout is cfg.layout
        first = cfg.poisson_tensor()
        first[0, :] = 7.0
        assert not np.any(cfg.poisson_tensor() == 7.0)

    def test_spinor_sector_rejected(self):
        spinor = spinor_field(s=1.0, m=1.0, c=1.0)
        grid = box_mode_grid(L, NS, spinor.kappa)
        with pytest.raises(ValueError, match="spinor"):
            StateLayout(spinor, grid)

    def test_rank_two_sector_accepted(self):
        rank2 = tensor_field(rank=2, a2=1.0, b2=1.0)
        grid = box_mode_grid(L, NS, rank2.kappa)
        lay = StateLayout(rank2, grid)
        assert lay.shape == (3, 2, 5, 16) and lay.size == 480
        assert np.array_equal(lay.sigma_flat,
                              np.outer(METRIC_DIAG, METRIC_DIAG).ravel())

    def test_oversized_grid_rejected(self):
        ns = [(i, j, 1) for i in range(-10, 11) for j in range(-10, 11)]
        grid = box_mode_grid(L, ns, SCALAR.kappa)
        with pytest.raises(ModeBudgetError):
            StateLayout(SCALAR, grid)

    def test_nonfinite_v_rejected(self):
        grid = box_mode_grid(L, NS, SCALAR.kappa)
        with pytest.raises(ValueError, match="four-vector"):
            BracketConfig(field=SCALAR, grid=grid,
                          v=[np.inf, 0.0, 0.0, 0.0])
