"""Position-space density, Hamilton equations, box-integral identity."""

import numpy as np
import pytest

from covham import dynamics, position
from covham.dirac import shell_projector
from covham.errors import ScenarioError
from covham.fields import em_field, scalar_field, spinor_field, tensor_field
from covham.minkowski import METRIC_DIAG, on_shell_k
from covham.modes import ModeGrid, box_mode_grid
from covham.position import (
    _value_theta,
    dw_density,
    parseval_check,
    polymomentum,
    position_hamilton_residual,
)

SCALAR = scalar_field()
EM = em_field()
SPINOR = spinor_field()
VECTOR = tensor_field(rank=1, a2=1.0, b2=2.25)

X = np.array([0.6, 0.2, -0.8, 0.4])


def one_node(k) -> ModeGrid:
    """A single plane wave: a hand-built grid of one node k (on shell
    or not) with weight 1."""
    return ModeGrid(k=np.asarray(k, dtype=float)[None], weight=np.ones(1))


def wave(*coeffs):
    """One node's coefficients, (1,) + component_shape; None stays."""
    return [None if c is None else np.asarray(c, dtype=complex)[None]
            for c in coeffs]


class TestDensity:
    def test_scalar_plane_wave_frozen_value(self):
        # on shell: theta*.theta / a2 = b2 |phi|^2, so H = 2 b2 |phi|^2
        k = on_shell_k([0.3, -0.4, 0.5], 1.0)
        value, theta = _value_theta(SCALAR, one_node(k),
                                    *wave(1.0 + 0.0j, 0.0j), X)
        assert dw_density(SCALAR, value, theta) == pytest.approx(2.0,
                                                                 rel=1e-13)

    def test_zero_field_zero_density(self):
        value = np.zeros(())
        theta = np.zeros((4,))
        assert dw_density(SCALAR, value, theta) == 0.0

    def test_em_density_matches_velocity_form(self):
        # -2 pi c theta.theta must equal a2 <dA, dA>
        rng = np.random.default_rng(2)
        k = on_shell_k([1.0, -0.5, 0.25], 0.0)
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        value, theta = _value_theta(EM, one_node(k), *wave(c, None), X)
        deriv = theta / (2.0 * EM.a2)
        signs = np.multiply.outer(np.asarray(METRIC_DIAG, float),
                                  np.asarray(METRIC_DIAG, float))
        alt = EM.a2 * float(np.real(np.sum(signs * np.conj(deriv) * deriv)))
        assert dw_density(EM, value, theta) == pytest.approx(alt, rel=1e-12)

    def test_spinor_density_is_mass_term_on_constraint(self):
        rng = np.random.default_rng(5)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        theta = polymomentum(SPINOR, None, value=psi)
        expected = SPINOR.b2 * float(np.real(
            np.sum(np.conj(psi) * np.array([1, 1, -1, -1]) * psi)))
        base = dw_density(SPINOR, psi, theta)
        assert base == pytest.approx(expected, rel=1e-13)
        # any multiplier chi drops out when the constraint holds
        chi = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert dw_density(SPINOR, psi, theta, chi=chi) == pytest.approx(
            base, rel=1e-12)
        # an inconsistent momentum makes the multiplier term visible
        bad = theta.copy()
        bad[0] += 0.5
        assert abs(dw_density(SPINOR, psi, bad, chi=chi) - base) > 1e-3

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            dw_density(SCALAR, np.zeros(3), np.zeros((4,)))
        with pytest.raises(ValueError):
            polymomentum(SCALAR, np.zeros((3,)))
        with pytest.raises(ValueError, match="value"):
            polymomentum(SPINOR, None, value=None)


    @pytest.mark.parametrize("field", [SCALAR, VECTOR, EM, SPINOR],
                             ids=["scalar", "vector", "em", "spinor"])
    def test_batched_matches_per_point(self, field):
        rng = np.random.default_rng(23)
        comp = field.component_shape
        points = 7
        value = rng.normal(size=(points,) + comp) + 1j * rng.normal(
            size=(points,) + comp)
        deriv = rng.normal(size=(points, 4) + comp)
        chi = rng.normal(size=(points, 4) + comp) + 1j * rng.normal(
            size=(points, 4) + comp)
        if field is not SPINOR:
            chi = None
        if field is EM:
            value = value.real + 0.0j
        theta = polymomentum(field, deriv, value)
        for p in range(points):
            assert np.array_equal(
                theta[p], polymomentum(field, deriv[p], value[p]))
        got = dw_density(field, value, theta, chi=chi)
        assert got.shape == (points,)
        for p in range(points):
            single = dw_density(field, value[p], theta[p],
                                chi=None if chi is None else chi[p])
            assert isinstance(single, float)
            assert got[p] == single
        # the spinor's multiplier term must be exercised off the constraint
        if chi is not None:
            shifted = dw_density(field, value, theta + 0.5, chi=chi)
            assert np.all(np.abs(shifted - got) > 1e-6)


class TestPositionHamilton:
    def test_free_scalar_on_shell(self):
        k = on_shell_k([0.3, -0.4, 0.5], 1.0)
        r1, r2 = position_hamilton_residual(
            SCALAR, one_node(k), *wave(0.7 - 0.2j, 0.1 + 0.4j), X)
        assert r1 < 1e-8
        assert r2 < 1e-8

    def test_free_vector_on_shell(self):
        rng = np.random.default_rng(8)
        k = on_shell_k([0.5, 0.1, -0.3], 1.5)
        cp = rng.normal(size=4) + 1j * rng.normal(size=4)
        cm = rng.normal(size=4) + 1j * rng.normal(size=4)
        r1, r2 = position_hamilton_residual(VECTOR, one_node(k),
                                            *wave(cp, cm), X)
        assert r1 < 1e-8
        assert r2 < 1e-8

    def test_free_em_wave(self):
        rng = np.random.default_rng(12)
        k = on_shell_k([0.8, -0.6, 0.0], 0.0)
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        r1, r2 = position_hamilton_residual(EM, one_node(k), *wave(c, None),
                                            X)
        assert r1 < 1e-8
        assert r2 < 1e-8

    @staticmethod
    def _dirac_wave():
        rng = np.random.default_rng(15)
        k = on_shell_k([0.4, 0.7, -0.2], 1.0)
        seed = rng.normal(size=4) + 1j * rng.normal(size=4)
        c_plus = shell_projector(k, 1.0, +1) @ seed
        c_minus = shell_projector(k, 1.0, -1) @ (seed[::-1])
        return one_node(k), *wave(c_plus, c_minus)

    def test_free_dirac_from_projector_ranges(self):
        r1, r2 = position_hamilton_residual(SPINOR, *self._dirac_wave(), X)
        assert r1 < 1e-14  # constraint is exact, no stencil involved
        assert r2 < 1e-8

    def test_dirac_unconjugated_minus_phase_detected(self, monkeypatch):
        # the minus family summed with e^{-ik.x} instead of e^{+ik.x}
        monkeypatch.setattr(dynamics, "with_conjugate",
                            lambda x: iter((x, x)))
        _, r2 = position_hamilton_residual(SPINOR, *self._dirac_wave(), X)
        assert r2 > 0.1

    def test_dirac_wrong_branch_detected(self):
        # a plus-phase wave built from the minus projector violates the
        # Dirac equation by O(kappa)
        k = on_shell_k([0.4, 0.7, -0.2], 1.0)
        seed = np.array([1.0, 0.2, -0.4, 0.1], dtype=complex)
        c_bad = shell_projector(k, 1.0, -1) @ seed
        _, r2 = position_hamilton_residual(
            SPINOR, one_node(k), *wave(c_bad, np.zeros(4)), X)
        assert r2 > 0.1

    def test_residual_samples_the_stencil_in_one_call(self, monkeypatch):
        k = on_shell_k([0.3, -0.4, 0.5], 1.0)
        shapes = []

        def counted(field, grid, plus, minus, x):
            shapes.append(np.shape(x))
            return dynamics.reconstruct_field(field, grid, plus, minus, x)

        monkeypatch.setattr(position, "reconstruct_field", counted)
        r1, r2 = position_hamilton_residual(
            SCALAR, one_node(k), *wave(0.7 - 0.2j, 0.1 + 0.4j), X)
        assert shapes == [(4,), (4, 4, 4)]  # x, then (offset, mu) points
        assert r1 < 1e-8 and r2 < 1e-8

    def test_off_shell_wave_detected(self):
        # k.k - kappa^2 = 3 - 1 = 2; residual scales with the violation
        k = np.array([2.0, 1.0, 0.0, 0.0])
        _, r2 = position_hamilton_residual(SCALAR, one_node(k),
                                           *wave(1.0 + 0.0j, 0.0j), X)
        assert 0.5 < r2 < 2.5


class TestSuperposition:
    """The residual on three box modes at once, L = 2 pi."""

    BOX = [(1, 0, 0), (0, 1, 1), (1, 2, 0)]

    @staticmethod
    def _coeffs(field, grid, rng):
        draw = (rng.normal(size=(len(grid),) + field.component_shape)
                + 1j * rng.normal(size=(len(grid),) + field.component_shape)
                for _ in range(2))
        if field is not SPINOR:
            return tuple(draw)
        # each family in its projector's range
        return tuple(np.einsum("nab,nb->na",
                               shell_projector(grid.k, field.kappa, sign), c)
                     for sign, c in zip((+1, -1), draw))

    @pytest.mark.parametrize("field", [SCALAR, SPINOR],
                             ids=["scalar", "spinor"])
    def test_three_modes_on_shell(self, field):
        grid = box_mode_grid(2.0 * np.pi, self.BOX, field.kappa)
        coeffs = self._coeffs(field, grid, np.random.default_rng(31))
        r1, r2 = position_hamilton_residual(field, grid, *coeffs, X)
        assert r1 < 1e-12
        assert r2 < 1e-12

    @pytest.mark.parametrize("field", [SCALAR, SPINOR],
                             ids=["scalar", "spinor"])
    def test_one_raised_k0_detected(self, field):
        grid = box_mode_grid(2.0 * np.pi, self.BOX, field.kappa)
        k = grid.k.copy()
        k[1, 0] += 0.5
        off = ModeGrid(k=k, weight=grid.weight)
        coeffs = self._coeffs(field, off, np.random.default_rng(31))
        _, r2 = position_hamilton_residual(field, off, *coeffs, X)
        assert r2 > 1e-4


class TestParseval:
    def test_single_scalar_mode(self):
        err = parseval_check(SCALAR, 2.0 * np.pi,
                             [((1, 0, 0), 1.0 + 0.0j, 0.3j)],
                             x0_span=(0.0, 1.7))
        assert err < 1e-12

    def test_two_modes_cross_terms_cancel(self):
        entries = [((1, 0, 0), 0.8 + 0.1j, 0.2 - 0.3j),
                   ((0, 1, 1), -0.5j, 0.4 + 0.0j)]
        err = parseval_check(SCALAR, 5.0, entries, x0_span=(0.2, 2.2))
        assert err < 1e-12

    def test_vector_mode_with_metric_signs(self):
        cp = np.array([0.3, 0.7, -0.2, 0.1], dtype=complex)
        cm = np.array([0.0, 0.2j, 0.5, -0.4], dtype=complex)
        err = parseval_check(VECTOR, 4.0, [((1, -1, 0), cp, cm)])
        assert err < 1e-12

    def test_empty_content_is_zero(self):
        assert parseval_check(SCALAR, 3.0, []) == 0.0

    @pytest.mark.parametrize("span", [(0.5, 0.5), (0.7, 0.2), (0.0, np.nan),
                                      (np.nan, 1.0), (0.0, np.inf),
                                      (-np.inf, 1.0)])
    def test_rejects_an_empty_or_non_finite_window(self, span):
        # over an empty window both sides vanish: the check read 0.0
        for entries in ([((1, 0, 0), 1.0 + 0j, 0.3j)], []):
            with pytest.raises(ValueError, match="^x0_span must be finite"):
                parseval_check(SCALAR, 2.0 * np.pi, entries, x0_span=span)

    @pytest.mark.parametrize("bad, name", [
        ({"n_t": 0}, "n_t"), ({"n_t": -1}, "n_t"), ({"n_t": 2.5}, "n_t"),
        ({"n_t": None}, "n_t"), ({"n_x": 0}, "n_x"), ({"n_x": -3}, "n_x"),
        ({"n_x": 2.5}, "n_x"),
    ])
    def test_rejects_sample_counts_below_one_by_name(self, bad, name):
        # empty content too: a bad count is the caller's, not the modes'
        for entries in ([((1, 0, 0), 1.0 + 0j, 0.3j)], []):
            with pytest.raises(ValueError,
                               match=f"^{name} must be an integer >= 1"):
                parseval_check(SCALAR, 2.0 * np.pi, entries, **bad)

    def test_opposite_pair_rejected(self):
        entries = [((1, 0, 0), 1.0 + 0j, 0.0j),
                   ((-1, 0, 0), 1.0 + 0j, 0.0j)]
        with pytest.raises(ScenarioError, match="opposite"):
            parseval_check(SCALAR, 2.0, entries)

    def test_zero_mode_rejected(self):
        with pytest.raises(ScenarioError, match="k=0"):
            parseval_check(SCALAR, 2.0, [((0, 0, 0), 1.0 + 0j, 0.0j)])

    def test_duplicate_rejected(self):
        entries = [((1, 0, 0), 1.0 + 0j, 0.0j),
                   ((1, 0, 0), 0.5 + 0j, 0.0j)]
        with pytest.raises(ScenarioError, match="duplicate"):
            parseval_check(SCALAR, 2.0, entries)

    def test_incommensurate_rejected(self):
        with pytest.raises(ScenarioError, match="commensurate"):
            parseval_check(SCALAR, 2.0, [((0.5, 0, 0), 1.0 + 0j, 0.0j)])

    def test_em_rejected(self):
        with pytest.raises(ScenarioError, match="em"):
            parseval_check(EM, 2.0, [((1, 0, 0), np.ones(4, complex), None)])

    def test_spinor_rejected(self):
        with pytest.raises(ScenarioError, match="spinor"):
            parseval_check(SPINOR, 2.0, [((1, 0, 0), np.ones(4, complex),
                                          np.ones(4, complex))])
