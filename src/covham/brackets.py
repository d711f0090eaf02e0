"""Covariant Poisson bracket over discrete mode grids.

The bracket of two observables A, B of the canonical state is

    {A, B} = int d4k V^mu (dA/dq_nu dB/dpi^{mu nu} - dB/dq_nu dA/dpi^{mu nu}),

with V a fixed four-vector.  StateLayout views the state as an array of
(modes, branches, 5, components), q in row 0 and pi_mu in row 1 + mu,
and as the one canonical.CanonicalMode of its whole grid (modes).
On a mode grid the functional derivative picks up one inverse
quadrature weight per mode, so the structure constants

    Lambda[q(k, c), pi(k, mu, c)] = (1 / w_k) V^mu eta_mumu sigma_c

couple row 0 to rows 1 + mu inside one (mode, branch) block; the two
branches of a complex species are independent canonical sectors.  With
this normalization the canonical pair obeys

    {q_c(k), V^mu pi_{mu c'}(k')} = V.V sigma_c delta_cc' delta_kk' / w_k,

sigma_c the metric signs raising every index of the component c, the
discrete image of the delta-normalized pair relation.

Each BracketConfig builds Lambda once, on its first bracket, keeps its
nonzero entries and drops the dense array; every bracket applies Lambda
through those entries (BracketConfig.apply), O(nnz) work a vector.  A
patched poisson_tensor therefore reaches the bracket only if it is in
place before the config's first bracket.  The dense array lives in an
anonymous private mapping, so only the pages its entries are written
to are ever allocated; the scan for its nonzero entries still reads
every entry (about 130 ms at 4,000^2).

Observables are quadratic forms (closed under the bracket, Jacobi
exact) or callables with gradients for Leibniz products.  Jacobi terms
use grad {B, C} = Q_B Lambda grad C - Q_C Lambda grad B at the state:
O(n^2) matrix-vector work, not O(n^3) matrix products.  Sectors cover
every tensor rank and em; the spinor's constraint momenta do not form
an unconstrained (q, pi) pair.
"""
from __future__ import annotations

import mmap
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .canonical import CanonicalMode, mode_hamiltonian_gradients, row_signs
from .errors import ModeBudgetError
from .fields import FieldSpec
from .minkowski import METRIC_DIAG, component_signs, minkowski_dot
from .modes import ModeGrid

# bounds the scan of the dense Poisson tensor for its nonzero entries
# and the bracket suite's dense n x n quadratic observables
MAX_STATE_SIZE = 4096


class StateLayout:
    """The bracket state: the flat view of an array of `shape`
    (modes, branches, 5, components), the grid's CanonicalMode.rows.

    Branches run plus, then minus for complex species; row 0 of a branch
    holds q_c and row 1 + mu holds pi_{mu c}, lower-index as stored.
    `index` (read-only) holds each entry's flat position, the one place
    offsets are computed.  modes(state) is the state as one
    CanonicalMode over the grid; the raised gradients
    mode_hamiltonian_gradients returns for it, times canonical.row_signs,
    are the derivatives by the stored variables.
    """

    def __init__(self, field: FieldSpec, grid: ModeGrid):
        if not field.has_bracket_sector:
            raise ValueError("the spinor's constraint momenta form no "
                             "unconstrained (q, pi) bracket sector")
        self.field = field
        self.grid = grid
        self.branches = field.branches
        self.comp_size = field.n_components
        self.sigma_flat = row_signs(field)[0]
        self.shape = (len(grid), len(self.branches), 5, self.comp_size)
        self.size = int(np.prod(self.shape))
        if self.size > MAX_STATE_SIZE:
            raise ModeBudgetError(
                f"bracket state has {self.size} variables; the dense "
                f"Poisson tensor is limited to {MAX_STATE_SIZE}")
        self.index = np.arange(self.size).reshape(self.shape)
        self.index.flags.writeable = False

    def q_index(self, mode_index: int, branch: str, comp: int = 0) -> int:
        return int(self.index[mode_index, self.branches.index(branch), 0,
                              comp])

    def pi_index(self, mode_index: int, branch: str, mu: int,
                 comp: int = 0) -> int:
        return int(self.index[mode_index, self.branches.index(branch),
                              1 + mu, comp])

    def modes(self, state: np.ndarray) -> CanonicalMode:
        """The state as one CanonicalMode over the grid, rows a view."""
        return CanonicalMode(field=self.field,
                             rows=np.reshape(state, self.shape))


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
        """Dense antisymmetric structure matrix Lambda, a new writable
        array on every call.  The brackets read it once per config,
        through `_entries` on the first bracket: a patch of this method
        must be in place before then.

        Lambda comes from an anonymous private mapping, not numpy's
        heap: numpy asks for transparent huge pages on large arrays, and
        the scattered writes below would then make every 2 MB page of
        it resident.  Here untouched 4 KB pages are never allocated and
        read as zeros, `_entries`' scan of every entry included (about
        130 ms at 4,000^2)."""
        lay = self.layout
        vfac = (1.0 / self.grid.weight)[:, None] * self.v * METRIC_DIAG
        # one entry per (mode, branch, pi row mu, component), masked
        # before lam exists: masking after it cost 20 MB more peak memory
        pj = lay.index[:, :, 1:]
        qi = np.broadcast_to(lay.index[:, :, :1], pj.shape)
        val = np.broadcast_to(vfac[:, None, :, None] * lay.sigma_flat,
                              pj.shape)
        keep = val != 0.0
        qi, pj, val = qi[keep], pj[keep], val[keep]
        n = lay.size
        # a mapping of 0 bytes is refused: map one for a 0-variable grid
        buf = mmap.mmap(-1, max(8 * n * n, 1),
                        flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        lam = np.frombuffer(buf, count=n * n).reshape(n, n)
        lam[qi, pj] = val
        lam[pj, qi] = -val
        return lam

    @cached_property
    def _entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and values of Lambda's nonzero entries."""
        lam = self.poisson_tensor()
        rows, cols = np.nonzero(lam)
        return rows, cols, lam[rows, cols]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Lambda x for x of shape (n,) or (n, m), from the nonzero entries."""
        x = np.asarray(x, dtype=float)
        rows, cols, vals = self._entries
        if x.ndim == 1:
            return np.bincount(rows, weights=vals * x[cols],
                               minlength=self.layout.size)
        out = np.zeros((self.layout.size,) + x.shape[1:])
        np.add.at(out, rows, vals[:, None] * x[cols])
        return out


class QuadraticObservable:
    """c + a.s + s.Q s / 2 with exact gradients a + Q s.

    Q must be symmetric: gradient, bracket_observable and jacobi_terms
    take it as the Hessian.  quad None is a linear observable, Q = 0
    held without an n x n array; every operation treats it as zero.
    Closed under sums, multiples and the bracket.
    """

    def __init__(self, const: float, linear, quad=None):
        self.const = float(const)
        self.linear = np.asarray(linear, dtype=float)
        n = self.linear.shape[0]
        self.quad = None if quad is None else np.asarray(quad, dtype=float)
        if self.quad is not None and self.quad.shape != (n, n):
            raise ValueError("quadratic part must be square over the state")

    def _quad_times(self, x: np.ndarray) -> np.ndarray:
        """Q x, zeros for a linear observable."""
        return np.zeros(len(x)) if self.quad is None else self.quad @ x

    def value(self, state: np.ndarray) -> float:
        state = np.asarray(state, dtype=float)
        return self.const + float(self.linear @ state) + 0.5 * float(
            state @ self._quad_times(state))

    def gradient(self, state: np.ndarray) -> np.ndarray:
        state = np.asarray(state, dtype=float)
        return self.linear + self._quad_times(state)

    def __add__(self, other):
        if not isinstance(other, QuadraticObservable):
            return NotImplemented
        if self.quad is None or other.quad is None:
            quad = other.quad if self.quad is None else self.quad
        else:
            quad = self.quad + other.quad
        return QuadraticObservable(self.const + other.const,
                                   self.linear + other.linear, quad)

    def __rmul__(self, alpha):
        return QuadraticObservable(alpha * self.const, alpha * self.linear,
                                   None if self.quad is None
                                   else alpha * self.quad)


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
    if kind not in ("q", "pi"):
        raise ValueError("kind must be 'q' or 'pi'")
    if kind == "pi" and mu is None:
        raise ValueError("pi coordinate needs mu")
    row = 0 if kind == "q" else 1 + mu
    linear = np.zeros(layout.size)
    linear[layout.index[mode_index, layout.branches.index(branch), row,
                        comp]] = 1.0
    return QuadraticObservable(0.0, linear)


def momentum_vector_observable(layout: StateLayout, v: np.ndarray,
                               mode_index: int, branch: str = "plus",
                               comp: int = 0) -> QuadraticObservable:
    """pi'_c = V^mu pi_{mu c} at one mode, the promoted conjugate momentum."""
    linear = np.zeros(layout.size)
    linear[layout.index[mode_index, layout.branches.index(branch), 1:,
                        comp]] = v
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
    return float(ga @ cfg.apply(gb))


def bracket_observable(a: QuadraticObservable, b: QuadraticObservable,
                       cfg: BracketConfig) -> QuadraticObservable:
    """{A, B} as a new quadratic observable (exact, state-independent).

    With constant structure matrix Lambda,
    {A, B}(s) = a_A.Lambda a_B + s.(Q_A Lambda a_B + Q_B Lambda^T a_A)
                + s.(Q_A Lambda Q_B) s,
    with Lambda^T a_A read from the same nonzero entries as Lambda.  No
    term uses Lambda^T = -Lambda, so the result is poisson_bracket's for
    any Lambda, antisymmetric or not.
    """
    rows, cols, vals = cfg._entries
    lam_b = cfg.apply(b.linear)
    lam_t_a = np.bincount(cols, weights=vals * a.linear[rows],
                          minlength=cfg.layout.size)
    const = float(a.linear @ lam_b)
    linear = a._quad_times(lam_b) + b._quad_times(lam_t_a)
    if a.quad is None or b.quad is None:
        return QuadraticObservable(const, linear)
    quad = a.quad @ cfg.apply(b.quad)
    quad = quad + quad.T
    return QuadraticObservable(const, linear, quad)


def jacobi_terms(a, b, c, cfg: BracketConfig,
                 state: np.ndarray) -> list[float]:
    """[{A,{B,C}}, {B,{C,A}}, {C,{A,B}}] for quadratic observables.

    Each is grad A . Lambda grad {B, C}(s), with grad {B, C}(s) =
    Q_B Lambda grad C(s) - Q_C Lambda grad B(s): six applications of
    Lambda, O(n^2) work in the Q products.
    Their sum is the Jacobi defect; the sum of their magnitudes is the
    scale a relative defect divides by.
    """
    obs = (a, b, c)
    if not all(isinstance(o, QuadraticObservable) for o in obs):
        raise TypeError("Jacobi nesting needs quadratic observables")
    g = _gradients(obs, cfg, state)
    f = [cfg.apply(gi) for gi in g]  # Lambda grad, shared by the three terms
    return [float(g[x] @ cfg.apply(obs[y]._quad_times(f[z])
                                   - obs[z]._quad_times(f[y])))
            for x, y, z in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]


def jacobi_defect(a, b, c, cfg: BracketConfig, state: np.ndarray) -> float:
    """|{A,{B,C}} + {B,{C,A}} + {C,{A,B}}| for quadratic observables."""
    return abs(sum(jacobi_terms(a, b, c, cfg, state)))


def canonical_pair_bracket(c, c2, k_spatial, kprime_spatial,
                           cfg: BracketConfig):
    """{q_c(k), V.pi_c2(k')} by the closed pair formula.

    V.V sigma_c delta_cc' delta_kk' / w_k for flat component indices c,
    c2 broadcast together (rank 1: c is mu), sigma_c from the metric
    (component_signs), not from the signs Lambda is built from; off-grid
    wave vectors raise.
    """
    i = cfg.grid.index_of(k_spatial)
    j = cfg.grid.index_of(kprime_spatial)
    sigma = component_signs(cfg.field.rank).reshape(-1)[c]
    pair = float(minkowski_dot(cfg.v, cfg.v)) * sigma / float(
        cfg.grid.weight[i])
    return np.where(np.equal(c, c2) & (i == j), pair, 0.0)[()]


def dw_conservation_check(cfg: BracketConfig, state: np.ndarray) -> float:
    """Integrand of the constant-of-motion identity, per mu component.

    Takes the gradients of J by the stored variables at x = 0 in one
    call on StateLayout.modes, then accumulates sum_k w_k sum_{b,c}
    (dJ/dq_c) (dJ/dpi_{mu c}) over the state view twice, once in each
    factor order, returning the largest difference across mu.  The
    record is structural: each summand is the same product in both
    orders, so the return is exactly 0.0 unless the gradient path
    breaks.  A check that the bracket generates the dynamics is ROADMAP
    item 1.
    """
    lay = cfg.layout
    state = np.asarray(state, dtype=float)
    if state.shape != (lay.size,):
        raise ValueError("state does not match the layout")
    grads = (mode_hamiltonian_gradients(cfg.field, cfg.grid.k,
                                        lay.modes(state), np.zeros(4)).rows
             * row_signs(cfg.field))
    dq, dpi = grads[:, :, None, 0], grads[:, :, 1:]
    w = cfg.grid.weight[:, None, None, None]
    first = np.sum(w * (dq * dpi), axis=(0, 1, 3))
    second = np.sum(w * (dpi * dq), axis=(0, 1, 3))
    return float(np.max(np.abs(first - second)))
