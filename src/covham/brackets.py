"""Covariant Poisson bracket over discrete mode grids.

The bracket of two observables A, B of the canonical state is

    {A, B} = int d4k V^mu (dA/dq_nu dB/dpi^{mu nu} - dB/dq_nu dA/dpi^{mu nu}),

with V a fixed four-vector.  On a mode grid the functional derivative
picks up one inverse quadrature weight per mode (so that the state
variable q(k) integrated against a test function reproduces itself),
which makes the discrete structure constants

    Lambda[q(k, c), pi(k, mu, c)] = (1 / w_k) V^mu eta_mumu sigma_c

block-diagonal per mode and per branch; the two branches of a complex
species are independent canonical sectors, so every cross-branch
bracket vanishes.  With this normalization the canonical pair obeys

    {q_c(k), V^mu pi_{mu c'}(k')} = V.V eta_{c c'} delta_kk' / w_k,

the discrete image of the delta-normalized pair relation.

Observables are quadratic forms in the state, closed under the bracket
(constant structure constants make the bracket of quadratics quadratic
and Jacobi exact), or callables with gradients for Leibniz products.
Jacobi terms use grad {B, C} = Q_B Lambda grad C - Q_C Lambda grad B at
the state: O(n^2) matrix-vector work, not O(n^3) matrix products.

Sectors cover component ranks 0 and 1 (scalar, vector, em); the
spinor's constraint momenta do not form an unconstrained (q, pi) pair.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .canonical import CanonicalMode, BranchVars, mode_hamiltonian_gradients
from .errors import ModeBudgetError
from .fields import FieldSpec
from .minkowski import METRIC_DIAG, minkowski_dot
from .modes import ModeGrid

MAX_STATE_SIZE = 4096  # dense Poisson tensor guard


class StateLayout:
    """Flattening of the full canonical state over a mode grid.

    Mode-major order; within a mode, branch-major (plus, then minus for
    complex species); within a branch, the q components followed by the
    four pi rows.
    """

    def __init__(self, field: FieldSpec, grid: ModeGrid):
        if not field.has_bracket_sector:
            raise ValueError(
                "bracket sectors are defined for component ranks 0 and 1")
        self.field = field
        self.grid = grid
        self.branches = field.branches
        self.comp_size = field.n_components
        self.sigma_flat = np.asarray(field.pairing_signs(),
                                     dtype=float).reshape(-1)
        self.per_branch = 5 * self.comp_size  # q block + 4 pi rows
        self.per_mode = len(self.branches) * self.per_branch
        self.size = len(grid) * self.per_mode
        if self.size > MAX_STATE_SIZE:
            raise ModeBudgetError(
                f"bracket state has {self.size} variables; the dense "
                f"Poisson tensor is limited to {MAX_STATE_SIZE}")

    def q_index(self, mode_index: int, branch: str, comp: int = 0) -> int:
        b = self.branches.index(branch)
        return (mode_index * self.per_mode + b * self.per_branch + comp)

    def pi_index(self, mode_index: int, branch: str, mu: int,
                 comp: int = 0) -> int:
        b = self.branches.index(branch)
        return (mode_index * self.per_mode + b * self.per_branch
                + self.comp_size + mu * self.comp_size + comp)

    def pack(self, modes: list[CanonicalMode]) -> np.ndarray:
        if len(modes) != len(self.grid):
            raise ValueError("state must cover every grid mode")
        out = np.empty(self.size)
        for i, mode in enumerate(modes):
            for b, name in enumerate(self.branches):
                bv = getattr(mode, name)
                base = i * self.per_mode + b * self.per_branch
                out[base:base + self.comp_size] = np.asarray(
                    bv.q, dtype=float).reshape(-1)
                out[base + self.comp_size:base + self.per_branch] = \
                    np.asarray(bv.pi, dtype=float).reshape(-1)
        return out

    def unpack_mode(self, state: np.ndarray, mode_index: int) -> CanonicalMode:
        comp = self.field.component_shape
        parts = {}
        for b, name in enumerate(self.branches):
            base = mode_index * self.per_mode + b * self.per_branch
            q = np.asarray(state[base:base + self.comp_size]).reshape(comp)
            pi = np.asarray(
                state[base + self.comp_size:base + self.per_branch]
            ).reshape((4,) + comp)
            parts[name] = BranchVars(q=np.array(q), pi=np.array(pi))
        return CanonicalMode(field=self.field, k=self.grid.k[mode_index],
                             plus=parts["plus"], minus=parts.get("minus"))


@dataclass(frozen=True)
class BracketConfig:
    """Bracket ingredients: species sector, mode grid, and the vector V."""

    field: FieldSpec
    grid: ModeGrid
    v: np.ndarray = dc_field(default_factory=lambda: np.array(
        [1.0, 0.0, 0.0, 0.0]))
    layout: StateLayout = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float).copy()
        if v.shape != (4,) or not np.all(np.isfinite(v)):
            raise ValueError("v must be a finite four-vector")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "layout", StateLayout(self.field, self.grid))

    def poisson_tensor(self) -> np.ndarray:
        """Dense antisymmetric structure matrix Lambda, a new array on
        every call."""
        lay = self.layout
        vfac = (1.0 / self.grid.weight)[:, None] * self.v * METRIC_DIAG
        # one entry per (mode i, branch b, row mu, component c)
        i, b, mu, c = np.indices((len(self.grid), len(lay.branches), 4,
                                  lay.comp_size))
        val = vfac[i, mu] * lay.sigma_flat[c]
        keep = vfac[i, mu] != 0.0
        qi = i * lay.per_mode + b * lay.per_branch + c
        pj = qi + lay.comp_size * (1 + mu)
        lam = np.zeros((lay.size, lay.size))
        lam[qi[keep], pj[keep]] = val[keep]
        lam[pj[keep], qi[keep]] = -val[keep]
        return lam


class QuadraticObservable:
    """c + a.s + s.Q s / 2 with exact gradients a + Q s.

    Q must be symmetric: gradient, bracket_observable and jacobi_terms
    take it as the Hessian.  Closed under sums, multiples and the bracket.
    """

    def __init__(self, const: float = 0.0, linear=None, quad=None,
                 size: int | None = None):
        if linear is None:
            if size is None:
                raise ValueError("need linear coefficients or a state size")
            linear = np.zeros(size)
        self.const = float(const)
        self.linear = np.asarray(linear, dtype=float)
        n = self.linear.shape[0]
        if quad is None:
            quad = np.zeros((n, n))
        self.quad = np.asarray(quad, dtype=float)
        if self.quad.shape != (n, n):
            raise ValueError("quadratic part must be square over the state")

    def value(self, state: np.ndarray) -> float:
        state = np.asarray(state, dtype=float)
        return self.const + float(self.linear @ state) + 0.5 * float(
            state @ (self.quad @ state))

    def gradient(self, state: np.ndarray) -> np.ndarray:
        return self.linear + self.quad @ np.asarray(state, dtype=float)

    def __add__(self, other):
        if not isinstance(other, QuadraticObservable):
            return NotImplemented
        return QuadraticObservable(self.const + other.const,
                                   self.linear + other.linear,
                                   self.quad + other.quad)

    def __rmul__(self, alpha):
        return QuadraticObservable(alpha * self.const, alpha * self.linear,
                                   alpha * self.quad)


class GeneralObservable:
    """Observable from callables: value_fn(state), grad_fn(state)."""

    def __init__(self, value_fn, grad_fn):
        self._value = value_fn
        self._grad = grad_fn

    def value(self, state) -> float:
        return float(self._value(state))

    def gradient(self, state) -> np.ndarray:
        return np.asarray(self._grad(state), dtype=float)


def product(a, b) -> GeneralObservable:
    """Pointwise product with Leibniz-rule gradients."""

    def value_fn(state):
        return a.value(state) * b.value(state)

    def grad_fn(state):
        return (a.value(state) * b.gradient(state)
                + b.value(state) * a.gradient(state))

    return GeneralObservable(value_fn, grad_fn)


def coordinate_observable(layout: StateLayout, kind: str, mode_index: int,
                          branch: str = "plus", comp: int = 0,
                          mu: int | None = None) -> QuadraticObservable:
    """The unit observable returning one stored canonical variable."""
    if kind == "q":
        idx = layout.q_index(mode_index, branch, comp)
    elif kind == "pi":
        if mu is None:
            raise ValueError("pi coordinate needs mu")
        idx = layout.pi_index(mode_index, branch, mu, comp)
    else:
        raise ValueError("kind must be 'q' or 'pi'")
    linear = np.zeros(layout.size)
    linear[idx] = 1.0
    return QuadraticObservable(0.0, linear)


def momentum_vector_observable(layout: StateLayout, v: np.ndarray,
                               mode_index: int, branch: str = "plus",
                               comp: int = 0) -> QuadraticObservable:
    """pi'_c = V^mu pi_{mu c} at one mode, the promoted conjugate momentum."""
    linear = np.zeros(layout.size)
    for mu in range(4):
        linear[layout.pi_index(mode_index, branch, mu, comp)] = v[mu]
    return QuadraticObservable(0.0, linear)


def _gradients(observables, cfg: BracketConfig, state) -> list[np.ndarray]:
    """Each observable's gradient at the state, both shapes checked."""
    state = np.asarray(state, dtype=float)
    if state.shape != (cfg.layout.size,):
        raise ValueError(f"state has shape {state.shape}, layout needs "
                         f"({cfg.layout.size},)")
    grads = [np.asarray(o.gradient(state), dtype=float) for o in observables]
    if any(g.shape != state.shape for g in grads):
        raise ValueError("observable gradients do not match the state size")
    return grads


def poisson_bracket(a, b, cfg: BracketConfig, state: np.ndarray) -> float:
    """{A, B} at the given state."""
    ga, gb = _gradients((a, b), cfg, state)
    return float(ga @ (cfg.poisson_tensor() @ gb))


def bracket_observable(a: QuadraticObservable, b: QuadraticObservable,
                       cfg: BracketConfig) -> QuadraticObservable:
    """{A, B} as a new quadratic observable (exact, state-independent).

    With constant structure matrix Lambda,
    {A, B}(s) = a_A.Lambda a_B + s.(Q_A Lambda a_B - Q_B Lambda a_A)
                + s.(Q_A Lambda Q_B) s,
    and the last kernel is already symmetric after antisymmetrization.
    """
    lam = cfg.poisson_tensor()
    const = float(a.linear @ (lam @ b.linear))
    linear = a.quad @ (lam @ b.linear) - b.quad @ (lam @ a.linear)
    quad = a.quad @ lam @ b.quad
    # Q_A Lambda Q_B - Q_B Lambda Q_A, symmetric since Lambda^T = -Lambda
    quad = quad + quad.T
    return QuadraticObservable(const, linear, quad)


def jacobi_terms(a, b, c, cfg: BracketConfig,
                 state: np.ndarray) -> list[float]:
    """[{A,{B,C}}, {B,{C,A}}, {C,{A,B}}] for quadratic observables.

    Each is grad A . Lambda grad {B, C}(s), with grad {B, C}(s) =
    Q_B Lambda grad C(s) - Q_C Lambda grad B(s): one Lambda, O(n^2) work.
    Their sum is the Jacobi defect; the sum of their magnitudes is the
    scale a relative defect divides by.
    """
    obs = (a, b, c)
    if not all(isinstance(o, QuadraticObservable) for o in obs):
        raise TypeError("Jacobi nesting needs quadratic observables")
    g = _gradients(obs, cfg, state)
    lam = cfg.poisson_tensor()
    f = [lam @ gi for gi in g]  # Lambda grad, shared by the three terms
    return [float(g[x] @ (lam @ (obs[y].quad @ f[z] - obs[z].quad @ f[y])))
            for x, y, z in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]


def jacobi_defect(a, b, c, cfg: BracketConfig, state: np.ndarray) -> float:
    """|{A,{B,C}} + {B,{C,A}} + {C,{A,B}}| for quadratic observables."""
    return abs(sum(jacobi_terms(a, b, c, cfg, state)))


def canonical_pair_bracket(mu: int, nu: int, k_spatial, kprime_spatial,
                           cfg: BracketConfig) -> float:
    """{q_mu(k), V.pi_nu(k')} by the closed pair formula.

    V.V eta_{mu nu} delta_kk' / w_k, the discrete image of the
    delta-normalized canonical pair; off-grid wave vectors raise.
    """
    i = cfg.grid.index_of(k_spatial)
    j = cfg.grid.index_of(kprime_spatial)
    if i != j or mu != nu:
        return 0.0
    vv = minkowski_dot(cfg.v, cfg.v)
    return float(vv) * METRIC_DIAG[mu] / float(cfg.grid.weight[i])


def dw_conservation_check(cfg: BracketConfig, state: np.ndarray,
                          x0: float = 0.0) -> float:
    """Integrand of the constant-of-motion identity, per mu component.

    Accumulates sum_k w_k sum_c (dJ/dq_c)(dJ/dpi_{mu c}) twice, once in
    each factor order, and returns the largest difference across mu.
    The identity is structural (each summand is the same product), so
    the return is exactly 0.0; anything else indicates a broken
    gradient path.
    """
    lay = cfg.layout
    state = np.asarray(state, dtype=float)
    if state.shape != (lay.size,):
        raise ValueError("state does not match the layout")
    x = np.array([x0, 0.0, 0.0, 0.0])
    first = np.zeros(4)
    second = np.zeros(4)
    # lower both slots of the raised dJ/dpi gradient before contracting
    comp_metric = (np.ones(1) if lay.comp_size == 1
                   else np.asarray(METRIC_DIAG, dtype=float))
    for i in range(len(cfg.grid)):
        mode = lay.unpack_mode(state, i)
        grads = mode_hamiltonian_gradients(cfg.field, cfg.grid.k[i], mode, x)
        w = float(cfg.grid.weight[i])
        for name in lay.branches:
            g = getattr(grads, name)
            dq = np.asarray(g.q, dtype=float).reshape(-1)
            dpi = (np.asarray(g.pi, dtype=float).reshape(4, -1)
                   * comp_metric * lay.sigma_flat)
            first += w * np.sum(dq * dpi, axis=1)
            second += w * np.sum(dpi * dq, axis=1)
    return float(np.max(np.abs(first - second)))
