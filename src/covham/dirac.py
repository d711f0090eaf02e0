"""Gamma matrices, shell projectors, and spinor source couplings.

Standard Dirac representation:

    gamma^0 = diag(1, 1, -1, -1) blocks,   gamma^i = offdiag(sigma_i, -sigma_i),

satisfying {gamma^mu, gamma^nu} = 2 eta^{mu nu}.  slash(k) contracts a
contravariant four-vector through the metric: k_mu gamma^mu
= k^0 gamma^0 - k^i gamma^i.  On the shell k.k = kappa^2 the operators

    P_pm = (kappa pm slash(k)) / (2 kappa)

are complementary projectors (P^2 = P, P_+ P_- = 0, trace 2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroModeError
from .minkowski import minkowski_dot

_SIGMA = np.array([
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)

GAMMA = np.zeros((4, 4, 4), dtype=complex)
GAMMA[0, :2, :2] = np.eye(2)
GAMMA[0, 2:, 2:] = -np.eye(2)
for _i in range(3):
    GAMMA[_i + 1, :2, 2:] = _SIGMA[_i]
    GAMMA[_i + 1, 2:, :2] = -_SIGMA[_i]
GAMMA.setflags(write=False)

# signs of the Dirac pairing psi_bar psi = sum_a s_a |psi_a|^2
ADJOINT_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


def slash(k) -> np.ndarray:
    """k_mu gamma^mu for contravariant k.

    Accepts (4,) or stacked (..., 4); returns (..., 4, 4).
    """
    k = np.asarray(k)
    return np.einsum("m,...m,mab->...ab", np.array([1.0, -1.0, -1.0, -1.0]),
                     k, GAMMA)


def dirac_adjoint(psi) -> np.ndarray:
    """psi_bar = psi^dagger gamma^0 as a length-4 row (stacks on leading axes)."""
    psi = np.asarray(psi)
    return np.conj(psi) * ADJOINT_SIGNS


def shell_projector(k, kappa: float, branch: int) -> np.ndarray:
    """(kappa + branch * slash(k)) / (2 kappa) for branch = +1 or -1."""
    if branch not in (+1, -1):
        raise ValueError("branch must be +1 or -1")
    if kappa == 0.0:
        raise ZeroModeError("shell projector undefined for kappa = 0")
    k = np.asarray(k)
    eye = np.broadcast_to(np.eye(4, dtype=complex), k.shape[:-1] + (4, 4))
    return (kappa * eye + branch * slash(k)) / (2.0 * kappa)


@dataclass(frozen=True)
class DiracCoupling:
    """Source spinor data (xi1, xi2, xi3) attached to a worldline.

    The interaction spinor along the trajectory is

        xi(tau) = xi1 + slash(u_dot) xi2 + slash(u_dot)^2 xi3,

    where slash(u_dot)^2 = (u_dot.u_dot) * identity = identity for a
    proper-time parameterization; the xi3 term is kept in the literal
    form so the reduction is a checked property, not an assumption.
    """

    xi1: np.ndarray
    xi2: np.ndarray | None = None
    xi3: np.ndarray | None = None

    def __post_init__(self):
        for name in ("xi1", "xi2", "xi3"):
            v = getattr(self, name)
            if v is None:
                continue
            v = np.asarray(v, dtype=complex).copy()
            if v.shape != (4,):
                raise ValueError(f"{name} must be a 4-spinor")
            v.setflags(write=False)
            object.__setattr__(self, name, v)


def interaction_spinor(coupling: DiracCoupling, udot) -> np.ndarray:
    """xi1 + slash(udot) xi2 + slash(udot)^2 xi3 at one trajectory point,
    or per point of stacked udot (..., 4), returning (..., 4)."""
    s = slash(udot)
    out = np.broadcast_to(coupling.xi1, s.shape[:-1]).astype(complex)
    if coupling.xi2 is not None:
        out += s @ coupling.xi2
    if coupling.xi3 is not None:
        out += (s @ (s @ coupling.xi3)[..., None])[..., 0]
    return out


def clifford_defect() -> float:
    """Max deviation of {gamma^mu, gamma^nu} from 2 eta^{mu nu} (exact 0),
    over all 16 pairs at once; a NaN in any gamma reads NaN."""
    prod = GAMMA[:, None] @ GAMMA[None, :]  # [mu, nu] = gamma^mu gamma^nu
    anti = prod + prod.swapaxes(0, 1)
    target = 2.0 * np.multiply.outer(np.diag([1.0, -1.0, -1.0, -1.0]),
                                     np.eye(4))
    return float(np.max(np.abs(anti - target)))


def projector_defects(k, kappa: float) -> dict[str, float]:
    """Idempotence, complementarity, and trace defects of P_pm, each the
    worst over k (4,) or stacked (..., 4)."""
    p_plus = shell_projector(k, kappa, +1)
    p_minus = shell_projector(k, kappa, -1)

    def worst(defect):
        return float(np.max(np.abs(defect)))

    return {
        "idempotent_plus": worst(p_plus @ p_plus - p_plus),
        "idempotent_minus": worst(p_minus @ p_minus - p_minus),
        "complementary": worst(p_plus @ p_minus),
        "sum_identity": worst(p_plus + p_minus - np.eye(4)),
        "trace_plus": worst(np.trace(p_plus, axis1=-2, axis2=-1) - 2.0),
        "trace_minus": worst(np.trace(p_minus, axis1=-2, axis2=-1) - 2.0),
        "shell": worst(minkowski_dot(k, k) - kappa**2),
    }
