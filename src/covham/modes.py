"""Discrete on-shell mode grids.

The invariant momentum integral

    (1/8 pi^3) int d^4k  Theta(k^0) delta(k.k - kappa^2)  f(k)
        = (1/8 pi^3) int d^3k / (2 k0)  f(k0(k), k)

is discretized on a midpoint-rule cube: per axis, n cells of width
dk = 2 kmax / n centered at -kmax + (i + 1/2) dk.  Even n therefore
never places a node at k = 0, which keeps massless grids away from the
zero mode.  Each node carries the quadrature weight

    w = dk^3 / (8 pi^3 * 2 k0),

so sum_k w f(k) approximates the integral above.

Every source rate and every reconstructed field value is a sum of plane
waves exp(pm i k.x) over the grid.  With x lowered the phase factors by
component, exp(pm i k.x) = prod_a exp(pm i k^a x_a), and on a cube grid
each component takes few distinct values (16 per spatial axis and 66
values of k0 on a 16^3 grid; 48 and about 1,800 on the shipped 48^3
grids).  PlaneWaves keeps, per component, the distinct values and each
mode's index into them, and evaluates a block of points from one cos
and sin per distinct value and point, four gathers and three in-place
multiplies, with no complex exponential per mode.  The formula holds
for any k; only its cost depends on how many values repeat.
ModeGrid.waves builds the tables once per grid.  On a cube grid the
spatial tables are the axis itself and each node's index into it, which
build_mode_grid already holds and hands on, so only the k0 column is
sorted (np.unique); hand-built and box grids sort every column.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GridDomainError, ModeBudgetError
from .minkowski import _positive_shell, lower_index, mass_shell_energy

DEFAULT_MODE_BUDGET = 2_000_000
# most time steps any suite may take, as covham.scenario's suite plan
# counts them; each step of a saved history holds every mode's
# coefficients
STEP_BUDGET = 20_000
# largest k0 h of the simulate suite's mode-equation stencil
STENCIL_K0H = 0.03
# largest spatial-component distance at which index_of matches a node
NODE_TOL = 1e-9
# complex entries per chunk of PlaneWaves.at: a chunk's rows and the one
# gather buffer stay in cache, and no second array the size of the block
# is allocated; on a (4,096 x 32) block the fresh pages of one cost more
# than the four gathers together
_GATHER_CHUNK = 2**15


class PlaneWaves:
    """The plane waves exp(sign i k.x) of the modes k (N, 4).

    tables holds, per component a of k, its distinct values (np.unique)
    and each mode's index into them, in the smallest unsigned dtype that
    holds it.  cube = (axis, axis_index), given by build_mode_grid, is a
    cube grid's sorted axis values (n,) and, per spatial component, each
    mode's index into them (N,): the spatial tables are then read off
    the axis values some mode uses, equal to np.unique's, with no sort.
    The values of every component are also kept as one concatenation,
    with each value's component, for at.  The spinor's shell operators
    of these modes are built on first use and kept with the tables
    (shell_operators).
    """

    def __init__(self, k, *, cube=None):
        self.k = np.asarray(k, dtype=float)
        self.tables = []
        self._shell = {}
        for column in self.k.T if cube is None else self.k.T[:1]:
            values, index = np.unique(column, return_inverse=True)
            self.tables.append(
                (values, index.astype(np.min_scalar_type(len(values) - 1))))
        if cube is not None:
            axis, axis_index = cube
            for index in axis_index:
                used = np.zeros(len(axis), dtype=bool)
                used[index] = True
                values = axis[used]
                # a value's rank among the used ones is np.unique's index
                rank = np.cumsum(used) - 1
                self.tables.append((values, rank.astype(
                    np.min_scalar_type(len(values) - 1))[index]))
        sizes = [len(values) for values, _ in self.tables]
        self._values = np.concatenate([values for values, _ in self.tables])
        self._component = np.repeat(np.arange(len(sizes)), sizes)
        self._offsets = np.cumsum([0] + sizes[:-1])

    def shell_operators(self, field) -> tuple[np.ndarray, np.ndarray]:
        """field.shell_operators(k), kappa pm slash(k) per mode (N, 4, 4),
        built on the first call for field.kappa and kept, read-only."""
        ops = self._shell.get(field.kappa)
        if ops is None:
            ops = field.shell_operators(self.k)
            for op in ops:
                op.setflags(write=False)
            self._shell[field.kappa] = ops
        return ops

    def at(self, x, sign: int) -> np.ndarray:
        """exp(sign i k.x) at the points x (P, 4) or (4,): shape (N, P).

        The factors cos + i sin of sign k^a x_a of every component's
        values fill one (values, P) table, one product, one cos and one
        sin for all; the phase is the product of the rows of each
        component's slice of it gathered by mode, taken in place
        _GATHER_CHUNK entries at a time.
        """
        x_low = sign * lower_index(np.asarray(x, dtype=float).reshape(-1, 4))
        # each component's factors are the rows of its slice of the table
        theta = self._values[:, None] * x_low.T[self._component]
        table = np.empty(theta.shape, dtype=complex)
        np.cos(theta, out=table.real)
        np.sin(theta, out=table.imag)
        factors = [(table[lo:lo + len(values)], index) for lo, (values, index)
                   in zip(self._offsets, self.tables)]
        out = np.empty((len(self.k), len(x_low)), dtype=complex)
        step = max(1, _GATHER_CHUNK // max(1, len(x_low)))
        gathered = np.empty((min(step, len(out)), len(x_low)), dtype=complex)
        (first, first_index), *rest = factors
        # mode="clip": the indices are in range, and "raise" would buffer
        # out, one more array of its size
        for lo in range(0, len(out), step):
            rows = out[lo:lo + step]
            np.take(first, first_index[lo:lo + step], axis=0, out=rows,
                    mode="clip")
            part = gathered[:len(rows)]
            for factor, index in rest:
                np.take(factor, index[lo:lo + step], axis=0, out=part,
                        mode="clip")
                rows *= part
        return out


@dataclass(frozen=True)
class ModeGrid:
    """Flat list of on-shell modes with quadrature weights.

    k has shape (N, 4) (contravariant, k[:, 0] on the positive shell),
    weight has shape (N,), the invariant weights d^3k / (8 pi^3 2 k0)
    (1 / (L^3 2 k0) on a box); kappa and the build parameters are not
    kept.  Instances are produced by build_mode_grid; building one by
    hand is fine as long as k is on shell.  waves, the
    grid's PlaneWaves, builds its per-component phase tables on first
    use and keeps them: k must not change after that.  _cube is the
    (axis, axis_index) build_mode_grid leaves for them (None otherwise).
    """

    k: np.ndarray
    weight: np.ndarray
    _cube: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)

    def __len__(self) -> int:
        return self.k.shape[0]

    @cached_property
    def waves(self) -> PlaneWaves:
        return PlaneWaves(self.k, cube=self._cube)

    @property
    def k0(self) -> np.ndarray:
        return self.k[:, 0]

    @property
    def k_spatial(self) -> np.ndarray:
        return self.k[:, 1:]

    def index_of(self, k_spatial) -> int:
        """Index of the grid mode with the given spatial wave vector.

        Used to resolve discrete delta factors in bracket evaluations.
        Raises GridDomainError when no node matches within NODE_TOL.
        """
        k_spatial = np.asarray(k_spatial, dtype=float)
        dist = np.max(np.abs(self.k_spatial - k_spatial), axis=1)
        i = int(np.argmin(dist))
        if dist[i] > NODE_TOL:
            raise GridDomainError(
                f"wave vector {k_spatial.tolist()} is not a node of this "
                f"grid (nearest is off by {dist[i]:.3e})"
            )
        return i


def _axis(kmax: float, n_per_axis: int):
    """Cell width and cell centres of [-kmax, kmax] in n_per_axis cells."""
    dk = 2.0 * kmax / n_per_axis
    return dk, -kmax + dk * (np.arange(n_per_axis) + 0.5)


def k0_bounds(kmax: float, n_per_axis: int, kappa: float,
              k0_floor: float) -> tuple[float, float]:
    """Smallest and largest k0 that build_mode_grid keeps, bit for bit,
    without building the grid (inf past the float range).  A node's
    sqrt(((x^2 + y^2) + z^2) + kappa^2) rounds up as any axis square
    grows, so the extremes sit at the least and the largest square,
    unless the floor drops the least (an odd massless axis); then every
    sum is taken, one z at a time."""
    kk = float(kappa) ** 2
    with np.errstate(over="ignore"):
        sq = _axis(kmax, n_per_axis)[1] ** 2
        low, top = (float(np.sqrt(((v + v) + v) + kk))
                    for v in (sq.min(), sq.max()))
        if low < k0_floor <= top:
            xy = np.add.outer(sq, sq)
            low = min(float(np.min(k0, where=k0 >= k0_floor,
                                   initial=np.inf))
                      for k0 in (np.sqrt((xy + z) + kk) for z in sq))
    return low, top


def build_mode_grid(
    kmax: float,
    n_per_axis: int,
    kappa: float,
    k0_floor: float | None = None,
) -> ModeGrid:
    """Midpoint cube grid over [-kmax, kmax]^3 with shell weights.

    k0_floor defaults to 1e-6 * kmax; nodes with k0 below the floor are
    dropped (only possible for very light fields on grids with odd
    n_per_axis).  The budget is checked before any allocation.
    """
    if kmax <= 0.0:
        raise ValueError("kmax must be positive")
    if n_per_axis < 1:
        raise ValueError("n_per_axis must be >= 1")
    if kappa < 0.0:
        raise ValueError("kappa must be >= 0")
    n_total = n_per_axis**3
    if n_total > DEFAULT_MODE_BUDGET:
        raise ModeBudgetError(
            f"grid of {n_per_axis}^3 = {n_total} modes exceeds the budget "
            f"of {DEFAULT_MODE_BUDGET}")
    if k0_floor is None:
        k0_floor = 1e-6 * kmax

    dk, axis = _axis(kmax, n_per_axis)
    # node (i, j, l) in C order: mass_shell_energy's sum (kx^2 + ky^2) +
    # kz^2 + kappa^2, bit for bit, from the axis squares
    sq = axis**2
    k0 = np.sqrt(((sq[:, None, None] + sq[None, :, None]) + sq[None, None, :]
                  + float(kappa) ** 2).ravel())
    keep = k0 >= k0_floor
    k0 = _positive_shell(k0[keep])
    # each node's index into axis per spatial component, a row at a time
    # (one (3, N) mask takes about ten times as long)
    axis_index = [index[keep] for index in np.indices(
        (n_per_axis,) * 3,
        dtype=np.min_scalar_type(n_per_axis - 1)).reshape(3, -1)]

    k = np.empty((len(k0), 4))
    k[:, 0] = k0
    for a, index in enumerate(axis_index, start=1):
        k[:, a] = axis[index]
    weight = dk**3 / (8.0 * np.pi**3 * 2.0 * k0)
    k.setflags(write=False)
    weight.setflags(write=False)
    grid = ModeGrid(k=k, weight=weight)
    # for waves: the spatial tables come from the axis, with no sort
    object.__setattr__(grid, "_cube", (axis, axis_index))
    return grid


def box_mode_grid(box_length: float, n_vectors, kappa: float) -> ModeGrid:
    """Periodic-box modes k = (2 pi / L) n for integer triples n_vectors.

    Weight per mode is 1 / (L^3 * 2 k0): the box analogue of the
    invariant measure, so sum_k w |C|^2 matches (1/L^3) int d^3x of the
    corresponding density.  Duplicate triples are rejected.
    """
    if box_length <= 0.0:
        raise ValueError("box_length must be positive")
    n_vectors = np.atleast_2d(np.asarray(n_vectors, dtype=float))
    if n_vectors.shape[1] != 3:
        raise ValueError("n_vectors must be integer triples")
    if not np.all(n_vectors == np.round(n_vectors)):
        raise ValueError("box modes require integer triples")
    uniq = {tuple(int(x) for x in row) for row in n_vectors}
    if len(uniq) != n_vectors.shape[0]:
        raise ValueError("duplicate box mode")
    k_spatial = (2.0 * np.pi / box_length) * n_vectors
    k0 = mass_shell_energy(k_spatial, kappa)
    k = np.column_stack([k0, k_spatial])
    weight = 1.0 / (box_length**3 * 2.0 * k0)
    return ModeGrid(k=k, weight=weight)
