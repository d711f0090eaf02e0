"""Metric helpers: signature, bilinearity, index gymnastics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covham.errors import ZeroModeError
from covham.minkowski import (
    FIVE_POINT_OFFSETS,
    component_signs,
    five_point,
    lower_index,
    mass_shell_energy,
    minkowski_dot,
    on_shell_k,
)

components = st.floats(min_value=-50.0, max_value=50.0,
                       allow_nan=False, allow_infinity=False)


@st.composite
def four_vectors(draw):
    return np.array([draw(components) for _ in range(4)])


def test_signature_on_basis_vectors():
    eye = np.eye(4)
    expected = [1.0, -1.0, -1.0, -1.0]
    for mu in range(4):
        assert minkowski_dot(eye[mu], eye[mu]) == expected[mu]


def test_known_value():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    b = np.array([5.0, 6.0, 7.0, 8.0])
    # 1*5 - (12 + 21 + 32) = -60
    assert minkowski_dot(a, b) == pytest.approx(-60.0, abs=1e-14)


@given(a=four_vectors(), b=four_vectors())
def test_dot_symmetry(a, b):
    assert minkowski_dot(a, b) == pytest.approx(minkowski_dot(b, a), rel=1e-12, abs=1e-12)


@given(a=four_vectors(), b=four_vectors(), c=four_vectors(),
       lam=st.floats(min_value=-10, max_value=10, allow_nan=False))
@settings(max_examples=60)
def test_dot_bilinear(a, b, c, lam):
    lhs = minkowski_dot(a, lam * b + c)
    rhs = lam * minkowski_dot(a, b) + minkowski_dot(a, c)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-9)


def test_dot_is_bilinear_not_sesquilinear():
    a = np.array([1j, 0, 0, 0])
    assert minkowski_dot(a, a) == pytest.approx(-1.0 + 0j)


def test_dot_broadcasts_over_stacks():
    ks = np.array([[1.0, 0, 0, 0], [2.0, 1.0, 0, 0]])
    out = minkowski_dot(ks, ks)
    assert out.shape == (2,)
    assert out == pytest.approx([1.0, 3.0])


@given(v=four_vectors())
def test_lower_index_is_involutive_and_flips_spatial(v):
    w = lower_index(v)
    assert w[0] == v[0]
    assert np.all(w[1:] == -v[1:])
    assert np.all(lower_index(w) == v)


def test_mass_shell_energy_value():
    # |k| = 3, kappa = 4 -> k0 = 5
    assert mass_shell_energy([3.0, 0.0, 0.0], 4.0) == pytest.approx(5.0)


def test_on_shell_k_is_on_shell():
    k = on_shell_k([0.3, -1.2, 0.7], 2.5)
    assert minkowski_dot(k, k) == pytest.approx(2.5**2, abs=1e-12)


def test_massless_zero_mode_rejected():
    with pytest.raises(ZeroModeError):
        mass_shell_energy([0.0, 0.0, 0.0], 0.0)


def test_massive_zero_spatial_mode_is_fine():
    assert mass_shell_energy([0.0, 0.0, 0.0], 1.5) == pytest.approx(1.5)


def test_component_signs_rank2():
    sigma = component_signs(2)
    assert sigma.shape == (4, 4)
    assert sigma[0, 0] == 1.0
    assert sigma[0, 1] == -1.0
    assert sigma[2, 3] == 1.0
    # sum over all 16 entries: (1 - 3)^2 = 4
    assert np.sum(sigma) == pytest.approx(4.0)


def test_component_signs_rank0_is_unit_scalar():
    assert component_signs(0).shape == ()
    assert float(component_signs(0)) == 1.0


def test_five_point_exact_on_quartic():
    x, h = 0.3, 0.1
    t = x + h * FIVE_POINT_OFFSETS
    got = five_point(2.0 - t + 0.5 * t**2 - 3.0 * t**3 + 1.5 * t**4, h)
    assert got == pytest.approx(-1.0 + x - 9.0 * x**2 + 6.0 * x**3,
                                rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("trail", [(), (3, 2)])
def test_five_point_fourth_order_on_sine(trail):
    # stacked samples: one frequency per trailing slot, derivative per slot
    omega = np.linspace(0.5, 1.5, int(np.prod(trail))).reshape(trail)
    x = 0.4
    errs = []
    for h in (0.1, 0.05, 0.025):
        t = x + h * FIVE_POINT_OFFSETS.reshape((4,) + (1,) * len(trail))
        got = five_point(np.sin(omega * t), h)
        assert np.shape(got) == trail
        errs.append(np.max(np.abs(got - omega * np.cos(omega * x))))
    slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(slopes - 4.0) < 0.1), slopes
