"""Closed-form retarded solutions used as independent references."""

import numpy as np
import pytest

from covham.fields import em_field, scalar_field
from covham.green import em_potential, green_oracle, scalar_yukawa
from covham.worldlines import static_worldline, uniform_worldline

EM = em_field()


class TestEmPotential:
    def test_static_coulomb(self):
        w = static_worldline([0, 0, 0], coupling=2.0, t_start=-100.0)
        x = np.array([5.0, 3.0, 0.0, 4.0])  # r = 5
        a = em_potential(w, x)
        assert a[0] == pytest.approx(2.0 / 5.0, rel=1e-14)
        assert np.all(a[1:] == 0.0)

    def test_static_offset_source(self):
        w = static_worldline([1.0, 2.0, 2.0], coupling=1.0, t_start=-100.0)
        x = np.array([10.0, 1.0, 2.0, 5.0])  # distance 3 from the charge
        a = em_potential(w, x)
        assert a[0] == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_boosted_charge_closed_form(self):
        # charge moving with beta along x, passing the origin at t = 0:
        # A_0(t=0, x) = e gamma / sqrt(gamma^2 x^2 + y^2 + z^2)
        beta = 0.6
        gamma = 1.25
        # anchor event (tau = 0) at the origin, active since long before
        w = uniform_worldline([0, 0, 0], [beta, 0, 0], coupling=1.0,
                              tau_on=-1000.0)
        x = np.array([0.0, 0.8, 0.3, -0.4])
        a = em_potential(w, x)
        denom = np.sqrt(gamma**2 * 0.8**2 + 0.3**2 + 0.4**2)
        assert a[0] == pytest.approx(gamma / denom, rel=1e-12)
        # spatial part follows the (lowered) velocity
        assert a[1] == pytest.approx(-beta * a[0], rel=1e-12)
        assert a[2] == 0.0 and a[3] == 0.0

    def test_zero_before_front(self):
        w = static_worldline([0, 0, 0], coupling=1.0, t_start=0.0)
        # signal from switch-on needs r/c = 5 to arrive
        x = np.array([4.9, 5.0, 0.0, 0.0])
        assert np.all(em_potential(w, x) == 0.0)
        x_after = np.array([5.1, 5.0, 0.0, 0.0])
        assert em_potential(w, x_after)[0] == pytest.approx(0.2, rel=1e-13)


class TestScalarYukawa:
    def test_static_yukawa_profile(self):
        field = scalar_field()  # a2 = 1, kappa = 1
        w = static_worldline([0, 0, 0], coupling=1.0, t_start=-100.0)
        for r in (0.5, 1.0, 2.0):
            x = np.array([1.0, r, 0.0, 0.0])
            expected = -np.exp(-r) / (4.0 * np.pi * r)
            assert scalar_yukawa(field, w, x) == pytest.approx(expected,
                                                               rel=1e-13)

    def test_massless_limit_is_coulomb_shaped(self):
        field = scalar_field(m=0.0)
        w = static_worldline([0, 0, 0], coupling=4.0 * np.pi, t_start=-100.0)
        x = np.array([0.0, 0.0, 2.0, 0.0])
        assert scalar_yukawa(field, w, x) == pytest.approx(-0.5, rel=1e-13)

    def test_boost_invariant_density_argument(self):
        # steady state seen from a boosted frame: value depends on the
        # invariant transverse distance, reproduced by evaluating the static
        # answer at the contracted coordinates
        field = scalar_field()
        beta = 0.5
        gamma = 1.0 / np.sqrt(1.0 - beta**2)
        w = uniform_worldline([0, 0, 0], [beta, 0, 0], coupling=1.0,
                              tau_on=-1000.0)
        x = np.array([0.0, 0.7, 0.4, -0.1])
        rho = np.sqrt(gamma**2 * 0.7**2 + 0.4**2 + 0.1**2)
        expected = -np.exp(-rho) / (4.0 * np.pi * rho)
        assert scalar_yukawa(field, w, x) == pytest.approx(expected, rel=1e-12)

    def test_zero_before_front(self):
        field = scalar_field()
        w = static_worldline([0, 0, 0], coupling=1.0, t_start=0.0)
        assert scalar_yukawa(field, w, np.array([1.9, 2.0, 0, 0])) == 0.0


class TestFarAnchor:
    """A line switched on long before the field point's slice: the
    oracles anchor at the slice's crossing, not at u(0)."""

    def test_static_values_keep_their_digits(self):
        field = scalar_field(s=2.0, m=1.5, c=2.0)  # a2 = 2, kappa = 1.5
        position = np.array([0.3, -0.2, 0.1])
        x = np.array([2.0, 1.3, 0.4, -0.5])
        r = np.linalg.norm(x[1:] - position)
        w = static_worldline(position, coupling=0.7, t_start=-1e10)
        assert em_potential(w, x)[0] == pytest.approx(0.7 / r, rel=1e-14)
        want = -(0.7 / 2.0) * np.exp(-1.5 * r) / (4.0 * np.pi * r)
        assert scalar_yukawa(field, w, x) == pytest.approx(want, rel=1e-14)


class TestDispatcher:
    def test_sums_over_sources(self):
        w1 = static_worldline([1.0, 0, 0], coupling=1.0, t_start=-100.0)
        w2 = static_worldline([-1.0, 0, 0], coupling=3.0, t_start=-100.0)
        x = np.array([0.0, 0.0, 2.0, 0.0])
        a = green_oracle(EM, [w1, w2], x)
        r = np.sqrt(5.0)
        assert a[0] == pytest.approx(4.0 / r, rel=1e-13)

    def test_scalar_dispatch(self):
        field = scalar_field()
        w = static_worldline([0, 0, 0], coupling=2.0, t_start=-50.0)
        x = np.array([0.0, 1.0, 0.0, 0.0])
        assert green_oracle(field, [w], x) == pytest.approx(
            -2.0 * np.exp(-1.0) / (4.0 * np.pi), rel=1e-13)

    def test_unsupported_species_rejected(self):
        from covham.fields import tensor_field
        field = tensor_field(rank=2, a2=1.0, b2=1.0)
        w = static_worldline([0, 0, 0], coupling=1.0)
        with pytest.raises(ValueError, match="closed-form"):
            green_oracle(field, [w], np.array([1.0, 2.0, 0, 0]))

    def test_circular_motion_rejected(self):
        from covham.worldlines import circular_worldline
        w = circular_worldline([0, 0, 0], radius=1.0, omega=0.3, coupling=1.0)
        with pytest.raises(ValueError, match="straight"):
            em_potential(w, np.array([1.0, 3.0, 0, 0]))
