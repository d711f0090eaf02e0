"""Independent references and pass/fail predicates for the benchmark.

Nothing in this module imports covham.  Closed-form profiles, worldline
kinematics, source rates, Gauss-Legendre quadrature, gamma matrices and
box-mode weights are written out here from the formulas in the package
docstrings, so a check compares the program against a computation made
apart from it.  Every predicate is `value <= tol`, which is False for
NaN, so a non-finite result always counts as a failure.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np

ETA = np.array([1.0, -1.0, -1.0, -1.0])


def within(value: float, tol: float) -> bool:
    """value <= tol, with NaN failing."""
    return bool(value <= tol)


def max_rel_dev(got, ref) -> float:
    """max |got - ref| / max |ref|; NaN anywhere gives NaN."""
    got = np.asarray(got)
    ref = np.asarray(ref)
    if got.shape != ref.shape:
        return math.nan
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def rms_rel_dev(got, ref) -> float:
    """sqrt(sum |got - ref|^2 / sum |ref|^2) over paired arrays."""
    num = sum(float(np.sum(np.abs(np.asarray(g) - np.asarray(r)) ** 2))
              for g, r in zip(got, ref))
    den = sum(float(np.sum(np.abs(np.asarray(r)) ** 2)) for r in ref)
    return math.sqrt(num / den)


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ------------------------------------------------------------ static fields

def coulomb(charge: float, r):
    """Static em potential A_0 = e / r."""
    return charge / np.asarray(r, dtype=float)


def yukawa(coupling: float, a2: float, kappa: float, r):
    """Static scalar field -(g / a2) exp(-kappa r) / (4 pi r)."""
    r = np.asarray(r, dtype=float)
    return -(coupling / a2) * np.exp(-kappa * r) / (4.0 * np.pi * r)


def profile_devs(got, ref) -> np.ndarray:
    """Per-radius relative deviations |got - ref| / |ref|."""
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    return np.abs(got - ref) / np.abs(ref)


# ------------------------------------------------------ worldline kinematics

def trajectory(src: dict, x0):
    """u(x0) and u_dot(x0), shape (T, 4), of a uniform or circular source.

    The source starts at x0 = 0 (proper time 0); coordinate time is
    linear in proper time, so the slice x0 is crossed at tau = x0 / gamma.
    """
    x0 = np.asarray(x0, dtype=float)
    if src["kind"] == "circular":
        speed = src["radius"] * src["omega"]
    else:
        speed = float(np.linalg.norm(src["beta"]))
    g = 1.0 / math.sqrt(1.0 - speed * speed)
    u = np.zeros(x0.shape + (4,))
    udot = np.zeros(x0.shape + (4,))
    u[..., 0] = x0
    udot[..., 0] = g
    pos = np.asarray(src["position"], dtype=float)
    if src["kind"] == "uniform":
        beta = np.asarray(src["beta"], dtype=float)
        u[..., 1:] = pos + x0[..., None] * beta
        udot[..., 1:] = g * beta
    else:
        r, om = src["radius"], src["omega"]
        angle = om * x0 + src["phase0"]
        u[..., 1] = pos[0] + r * np.cos(angle)
        u[..., 2] = pos[1] + r * np.sin(angle)
        u[..., 3] = pos[2]
        udot[..., 1] = -g * r * om * np.sin(angle)
        udot[..., 2] = g * r * om * np.cos(angle)
    return u, udot


def vector_rates(k, sources, a2: float, x0):
    """dC_pm/dx0 of a complex rank-1 tensor field, shape (T, M, 4).

    dC_pm/dx0 = mp (i / a2) sum_j g_j udot_low_j exp(pm i k.u_j) / udot_j^0,
    with every source on from x0 = 0 (boundary included).
    """
    k = np.asarray(k, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    plus = np.zeros((x0.size, k.shape[0], 4), dtype=complex)
    minus = np.zeros_like(plus)
    for src in sources:
        u, udot = trajectory(src, x0)
        active = (x0 >= 0.0).astype(float)
        phase = np.exp(1j * ((u * ETA) @ k.T))  # (T, M)
        scale = src["coupling"] * active / udot[:, 0]
        factor = scale[:, None] * (udot * ETA)
        plus += phase[:, :, None] * factor[:, None, :]
        minus += np.conj(phase)[:, :, None] * factor[:, None, :]
    return (-1j / a2) * plus, (1j / a2) * minus


def gauss_legendre(a: float, b: float, panels: int, order: int = 8):
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    t, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * t[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def vector_coefficients(k, sources, a2: float, x_start: float, x_end: float,
                        panels: int):
    """Gauss-Legendre integral of vector_rates from x_start to x_end.

    x_start must not be negative: the integrand is smooth only after
    every source has switched on.
    """
    nodes, weights = gauss_legendre(x_start, x_end, panels)
    plus = np.zeros((np.asarray(k).shape[0], 4), dtype=complex)
    minus = np.zeros_like(plus)
    for lo in range(0, nodes.size, 16):
        rp, rm = vector_rates(k, sources, a2, nodes[lo:lo + 16])
        wt = weights[lo:lo + 16, None, None]
        plus += np.sum(wt * rp, axis=0)
        minus += np.sum(wt * rm, axis=0)
    return plus, minus


def static_switch_on_coefficients(k, position, coupling: float, a2: float,
                                  x_on: float, x_end: float):
    """Exact rank-1 coefficients of a static source switched on at x_on.

    The rate is a pure exponential exp(pm i k0 x0) after x_on, so the
    integral is closed form.  Only the time component is nonzero.
    """
    k = np.asarray(k, dtype=float)
    k0 = k[:, 0]
    space = np.exp(-1j * (k[:, 1:] @ np.asarray(position, dtype=float)))
    base = (np.exp(1j * k0 * x_end) - np.exp(1j * k0 * x_on)) / (1j * k0)
    plus = np.zeros((k.shape[0], 4), dtype=complex)
    minus = np.zeros_like(plus)
    plus[:, 0] = (-1j / a2) * coupling * space * base
    minus[:, 0] = (1j / a2) * coupling * np.conj(space * base)
    return plus, minus


def reconstruct(k, weight, plus, minus, points) -> np.ndarray:
    """sum_k w [C+ exp(-i k.x) + C- exp(+i k.x)] at each point, (P, 4)."""
    k = np.asarray(k, dtype=float)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros((points.shape[0],) + plus.shape[1:], dtype=complex)
    for lo in range(0, points.shape[0], 64):
        phase = np.exp(-1j * ((points[lo:lo + 64] * ETA) @ k.T))  # (p, N)
        out[lo:lo + 64] = ((phase * weight) @ plus
                           + (np.conj(phase) * weight) @ minus)
    return out


# ------------------------------------------------------------- Dirac algebra

def _gammas() -> np.ndarray:
    sig = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                    [[1, 0], [0, -1]]], dtype=complex)
    g = np.zeros((4, 4, 4), dtype=complex)
    g[0] = np.diag([1.0, 1.0, -1.0, -1.0])
    for i in range(3):
        g[i + 1, :2, 2:] = sig[i]
        g[i + 1, 2:, :2] = -sig[i]
    return g


GAMMA = _gammas()


def shell_projectors(k, kappa: float):
    """P_pm(k) = (kappa pm k_mu gamma^mu) / (2 kappa), shape (N, 4, 4)."""
    k = np.asarray(k, dtype=float)
    ks = np.einsum("nm,mab->nab", k * ETA, GAMMA)
    eye = np.eye(4)
    return (kappa * eye + ks) / (2 * kappa), (kappa * eye - ks) / (2 * kappa)


def branch_defect(k, kappa: float, plus, minus) -> float:
    """max of |P-(k) C+| / max|C+| and |P+(k) C-| / max|C-|.

    Every plus rate is (kappa + slash k) times a spinor and P- annihilates
    it on the shell k.k = kappa^2, so evolved coefficients keep the
    property; an off-shell k or a mixed-up branch breaks it.
    """
    p_plus, p_minus = shell_projectors(k, kappa)
    d_plus = np.einsum("nab,nb->na", p_minus, plus)
    d_minus = np.einsum("nab,nb->na", p_plus, minus)
    return max(float(np.max(np.abs(d_plus)) / np.max(np.abs(plus))),
               float(np.max(np.abs(d_minus)) / np.max(np.abs(minus))))


# ------------------------------------------------------- canonical algebra

def box_weights(n_vectors, box_length: float, kappa: float) -> np.ndarray:
    """Box-mode weights 1 / (L^3 2 k0) with k = 2 pi n / L."""
    k = 2.0 * np.pi * np.asarray(n_vectors, dtype=float) / box_length
    k0 = np.sqrt(np.sum(k * k, axis=1) + kappa * kappa)
    return 1.0 / (box_length**3 * 2.0 * k0)


def pair_value(v, mu: int, nu: int, i: int, j: int, weights) -> float:
    """{q_mu(k_i), V.pi_nu(k_j)} = V.V eta_{mu nu} delta_ij / w_i."""
    if i != j or mu != nu:
        return 0.0
    v = np.asarray(v, dtype=float)
    return float(np.sum(ETA * v * v)) * ETA[mu] / float(weights[i])


def structure_apply(weights, v, sigma, branches: int, x) -> np.ndarray:
    """Lambda @ x for the discrete bracket, in O(n).

    State layout: mode-major, then branch, then the c components of q
    followed by the four pi rows of c components.  The only nonzero
    entries are Lambda[q(k, c), pi(k, mu, c)] = V^mu eta_mumu sigma_c / w_k
    and their antisymmetric partners.
    """
    sigma = np.asarray(sigma, dtype=float).reshape(-1)
    comp = sigma.size
    x = np.asarray(x, dtype=float).reshape(len(weights), branches, 5, comp)
    coef = (np.asarray(v, dtype=float) * ETA)[None, :, None] \
        * sigma[None, None, :] / np.asarray(weights)[:, None, None]
    out = np.empty_like(x)
    out[:, :, 0] = np.einsum("kmc,kbmc->kbc", coef, x[:, :, 1:])
    out[:, :, 1:] = -coef[:, None] * x[:, :, :1]
    return out.reshape(-1)


def jacobi_terms(quads, state, apply_lambda) -> list:
    """The three Jacobi terms {A,{B,C}}, {B,{C,A}}, {C,{A,B}} at state.

    quads are (linear, quad) pairs of quadratic observables; with a
    constant structure matrix the nested bracket needs only the gradient
    grad {B,C} = Q_B Lambda grad C - Q_C Lambda grad B.
    """
    grads = [a + q @ state for a, q in quads]
    terms = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        inner = (quads[j][1] @ apply_lambda(grads[k])
                 - quads[k][1] @ apply_lambda(grads[j]))
        terms.append(float(grads[i] @ apply_lambda(inner)))
    return terms
