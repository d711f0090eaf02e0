"""Gamma algebra, shell projectors, interaction spinors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covham.dirac import (
    GAMMA,
    DiracCoupling,
    clifford_defect,
    dirac_adjoint,
    interaction_spinor,
    projector_defects,
    shell_projector,
    slash,
)
from covham.errors import ZeroModeError
from covham.minkowski import minkowski_dot, on_shell_k

ETA = np.diag([1.0, -1.0, -1.0, -1.0])


@st.composite
def on_shell_ks(draw):
    kvec = np.array([draw(st.floats(-8, 8)) for _ in range(3)])
    kappa = draw(st.floats(0.05, 6.0))
    return on_shell_k(kvec, kappa), kappa


def test_clifford_algebra_exact():
    assert clifford_defect() == 0.0


def test_gamma0_hermitian_gammai_antihermitian():
    g = GAMMA
    assert np.max(np.abs(g[0] - g[0].conj().T)) == 0.0
    for i in (1, 2, 3):
        assert np.max(np.abs(g[i] + g[i].conj().T)) == 0.0


def test_slash_squares_to_invariant():
    k = np.array([1.3, 0.4, -0.2, 0.9])
    s = slash(k)
    k2 = minkowski_dot(k, k)
    assert np.max(np.abs(s @ s - k2 * np.eye(4))) < 1e-14


def test_slash_stacks():
    ks = np.stack([on_shell_k([1, 0, 0], 1.0), on_shell_k([0, 2, 0], 0.5)])
    s = slash(ks)
    assert s.shape == (2, 4, 4)
    assert np.allclose(s[0], slash(ks[0]))


def test_slash_is_the_metric_contraction_written_out():
    # sum_mu eta_mumu k^mu gamma^mu, one term per mu; each entry of the
    # sum has one nonzero term, so the product form must equal it exactly
    rng = np.random.default_rng(3)
    for k in (rng.normal(size=4), rng.normal(size=(7, 3, 4))):
        want = sum(ETA[mu, mu] * k[..., mu, None, None] * GAMMA[mu]
                   for mu in range(4))
        assert np.array_equal(slash(k), want)


@given(data=on_shell_ks())
@settings(max_examples=60)
def test_projector_identities_on_shell(data):
    k, kappa = data
    d = projector_defects(k, kappa)
    scale = 1.0 + np.max(np.abs(k)) / kappa
    assert d["idempotent_plus"] < 1e-12 * scale**2
    assert d["idempotent_minus"] < 1e-12 * scale**2
    assert d["complementary"] < 1e-12 * scale**2
    assert d["sum_identity"] < 1e-13
    assert d["trace_plus"] < 1e-12 and d["trace_minus"] < 1e-12


def test_projector_rejects_massless():
    with pytest.raises(ZeroModeError):
        shell_projector(np.array([1.0, 1.0, 0, 0]), 0.0, +1)


def test_projector_rejects_bad_branch():
    with pytest.raises(ValueError):
        shell_projector(on_shell_k([0, 0, 0], 1.0), 1.0, 2)


def test_dirac_adjoint_signs():
    psi = np.array([1.0, 2.0j, 3.0, 4.0j])
    bar = dirac_adjoint(psi)
    assert bar == pytest.approx([1.0, -2.0j, -3.0, 4.0j])
    # psi_bar psi = |a|^2 + |b|^2 - |c|^2 - |d|^2
    assert np.sum(bar * psi) == pytest.approx(1 + 4 - 9 - 16 + 0j)


def test_interaction_spinor_velocity_square_reduces():
    # slash(udot)^2 = 1 on a normalized four-velocity: xi3 enters bare
    rng = np.random.default_rng(7)
    xi = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(3)]
    coupling = DiracCoupling(xi1=xi[0], xi2=xi[1], xi3=xi[2])
    udot = np.array([1.25, 0.75, 0.0, 0.0])  # beta = 0.6
    got = interaction_spinor(coupling, udot)
    expected = xi[0] + slash(udot) @ xi[1] + xi[2]
    assert np.max(np.abs(got - expected)) < 1e-12


def test_interaction_spinor_defaults_to_xi1():
    coupling = DiracCoupling(xi1=np.array([1, 0, 0, 0], dtype=complex))
    got = interaction_spinor(coupling, np.array([1.0, 0, 0, 0]))
    assert got == pytest.approx(np.array([1, 0, 0, 0], dtype=complex))


def test_coupling_validates_shape():
    with pytest.raises(ValueError):
        DiracCoupling(xi1=np.zeros(3))
