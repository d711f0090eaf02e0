"""Worldline kinematics: normalization, crossings, switch-on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covham.dirac import DiracCoupling, interaction_spinor
from covham.errors import CrossingError
from covham.minkowski import minkowski_dot
from covham.worldlines import (
    Worldline,
    circular_worldline,
    equal_time_crossing,
    static_worldline,
    uniform_worldline,
)

taus = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


@st.composite
def worldlines(draw):
    kind = draw(st.sampled_from(["static", "uniform", "circular"]))
    pos = np.array([draw(st.floats(-5, 5)) for _ in range(3)])
    t_start = draw(st.floats(-5, 5))
    if kind == "static":
        return static_worldline(pos, coupling=1.0, t_start=t_start)
    if kind == "uniform":
        direction = np.array([draw(st.floats(-1, 1)) for _ in range(3)])
        norm = np.linalg.norm(direction)
        speed = draw(st.floats(0.0, 0.95))
        beta = direction / norm * speed if norm > 1e-6 else np.zeros(3)
        return uniform_worldline(pos, beta, coupling=1.0, t_start=t_start)
    radius = draw(st.floats(0.1, 3.0))
    omega = draw(st.floats(-0.9, 0.9)) / radius * draw(st.floats(0.1, 0.99))
    return circular_worldline(pos, radius, omega, coupling=1.0,
                              t_start=t_start,
                              phase0=draw(st.floats(0, 2 * np.pi)))


@given(w=worldlines(), tau=taus)
@settings(max_examples=80)
def test_four_velocity_normalized(w, tau):
    _, udot = w.state(tau)
    assert minkowski_dot(udot, udot) == pytest.approx(1.0, abs=1e-12)


@given(w=worldlines(), tau=taus)
@settings(max_examples=60)
def test_time_component_linear_in_tau(w, tau):
    u, udot = w.state(tau)
    assert u[0] == pytest.approx(w.t_start + w.gamma * tau, rel=1e-12, abs=1e-12)
    assert udot[0] == pytest.approx(w.gamma, rel=1e-14)


def test_uniform_four_velocity_frozen_value():
    # beta = 0.6 along x: gamma = 1.25, u_dot = (1.25, 0.75, 0, 0)
    w = uniform_worldline([0, 0, 0], [0.6, 0, 0], coupling=1.0)
    _, udot = w.state(3.7)
    assert udot == pytest.approx([1.25, 0.75, 0.0, 0.0], rel=1e-14)


def test_equal_time_crossing_uniform_frozen_value():
    # gamma = 1.25, t_start = 0: u0(tau) = 1.25 tau = 2.5 at tau = 2
    w = uniform_worldline([0, 0, 0], [0.6, 0, 0], coupling=1.0)
    tau = equal_time_crossing(w, 2.5)
    assert tau == pytest.approx(2.0, abs=1e-14)
    u, _ = w.state(tau)
    assert u[0] == pytest.approx(2.5, abs=1e-12)


def test_equal_time_crossing_circular():
    w = circular_worldline([0, 0, 0], radius=1.0, omega=0.5, coupling=1.0)
    x0 = w.gamma * 1.0  # crossing at tau = 1 by construction
    assert equal_time_crossing(w, x0) == pytest.approx(1.0, abs=1e-13)


@given(w=worldlines(), x0_off=st.floats(0.0, 30.0))
@settings(max_examples=60)
def test_crossing_solves_equal_time_condition(w, x0_off):
    x0 = w.switch_on_time() + x0_off
    tau = equal_time_crossing(w, x0)
    u, _ = w.state(tau)
    assert abs(u[0] - x0) < 1e-12 * max(1.0, abs(x0))


def test_crossing_before_switch_on_raises():
    w = static_worldline([0, 0, 0], coupling=1.0, t_start=1.0, tau_on=2.0)
    assert w.switch_on_time() == pytest.approx(3.0)
    assert not w.active_at(2.999)
    assert w.active_at(3.0)  # boundary included: Theta(0) = 1
    with pytest.raises(CrossingError):
        equal_time_crossing(w, 2.5)


def test_crossing_at_switch_on_time_is_tau_on():
    # (x0 - t_start) / gamma rounds below tau_on on this slice
    w = uniform_worldline([0, 0, 0], [0.35, -0.2, 0.15], coupling=1.0,
                          t_start=-0.1, tau_on=0.4)
    x0 = w.switch_on_time()
    assert (x0 - w.t_start) / w.gamma < w.tau_on
    assert w.active_at(x0)
    assert equal_time_crossing(w, x0) == w.tau_on


def test_circular_stays_on_circle_and_in_plane():
    w = circular_worldline([1.0, -2.0, 0.5], radius=2.0, omega=0.3,
                           coupling=1.0, phase0=0.4)
    for tau in (0.0, 1.3, 7.7):
        u, udot = w.state(tau)
        r = np.hypot(u[1] - 1.0, u[2] + 2.0)
        assert r == pytest.approx(2.0, rel=1e-12)
        assert u[3] == 0.5 and udot[3] == 0.0


def test_superluminal_inputs_rejected():
    with pytest.raises(ValueError):
        uniform_worldline([0, 0, 0], [1.0, 0, 0], coupling=1.0)
    with pytest.raises(ValueError):
        circular_worldline([0, 0, 0], radius=2.0, omega=0.5, coupling=1.0)


# one of each shape, switched on at x0 = 0.37 (static: 0.3 + 0.07)
ARRAY_LINES = {
    "static": static_worldline([0.3, -0.2, 0.1], coupling=1.0,
                               t_start=0.3, tau_on=0.07),
    # (switch_on_time() - t_start) / gamma rounds below tau_on here
    "uniform": uniform_worldline([0, 0, 0], [0.35, -0.2, 0.15],
                                 coupling=1.0, t_start=-0.1, tau_on=0.4),
    "circular": circular_worldline([0.1, -0.2, 0.05], 0.5, 1.2,
                                   coupling=1.0, phase0=0.4, t_start=-0.2,
                                   tau_on=0.3),
}


@pytest.mark.parametrize("kind", sorted(ARRAY_LINES))
def test_array_crossing_matches_scalar_calls(kind):
    w = ARRAY_LINES[kind]
    on = w.switch_on_time()
    x0 = np.array([[on, on + 0.1, on + 0.7], [on + 1.3, on + 2.9, on + 5.0]])
    active = w.active_at(x0)
    assert active.shape == x0.shape and active.all()
    tau = equal_time_crossing(w, x0)
    assert tau.shape == x0.shape
    assert tau[0, 0] == w.tau_on  # the clamp at tau_on, entry by entry
    u, udot = w.state(tau)
    assert u.shape == udot.shape == x0.shape + (4,)
    coupling = DiracCoupling(xi1=[1.0, 0.5j, -0.25, 0.1],
                             xi2=[0.2, 0.0, 0.3j, 0.0],
                             xi3=[0.0, -0.1, 0.0, 0.4j])
    xi = interaction_spinor(coupling, udot)
    assert xi.shape == x0.shape + (4,)
    for i in np.ndindex(x0.shape):
        assert tau[i] == equal_time_crossing(w, x0[i])
        u_i, udot_i = w.state(tau[i])
        assert np.array_equal(u[i], u_i)
        assert np.array_equal(udot[i], udot_i)
        assert np.array_equal(xi[i], interaction_spinor(coupling, udot_i))


@pytest.mark.parametrize("kind", sorted(ARRAY_LINES))
def test_array_crossing_raises_before_switch_on(kind):
    w = ARRAY_LINES[kind]
    on = w.switch_on_time()
    x0 = np.array([on - 1e-9, on, on + 1.0])
    assert w.active_at(x0).tolist() == [False, True, True]
    with pytest.raises(CrossingError):
        equal_time_crossing(w, x0)
    with pytest.raises(CrossingError):  # the scalar call, unchanged
        equal_time_crossing(w, on - 1e-9)


@pytest.mark.parametrize("kwargs", [
    dict(kind="static", beta=[0.3, 0.0, 0.0]),
    dict(kind="uniform", beta=[0.3, 0.0, 0.0], radius=0.5),
    dict(kind="static", omega=0.2),
    dict(kind="circular", radius=1.0, omega=0.5, beta=[0.0, 0.1, 0.0]),
], ids=["static-beta", "uniform-radius", "static-omega", "circular-beta"])
def test_foreign_shape_parameter_rejected(kwargs):
    with pytest.raises(ValueError, match="takes no"):
        Worldline(coupling=1.0, position=[0.0, 0.0, 0.0], **kwargs)


@pytest.mark.parametrize("w", [
    uniform_worldline([0.3, -0.2, 0.1], [0.0, 0.0, 0.0], coupling=1.0,
                      t_start=0.3),
    circular_worldline([0.3, -0.2, 0.1], 0.0, 1.2, coupling=1.0,
                       phase0=0.4, t_start=0.3),
], ids=["uniform-at-rest", "circular-zero-radius"])
def test_degenerate_shapes_equal_static(w):
    static = static_worldline([0.3, -0.2, 0.1], coupling=1.0, t_start=0.3)
    assert w.gamma == static.gamma == 1.0
    tau = np.linspace(-3.0, 7.0, 41)
    for got, want in zip(w.state(tau), static.state(tau)):
        assert np.array_equal(got, want)
