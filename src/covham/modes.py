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
ModeGrid.waves builds the tables once per grid.  On a full cube (every
node kept) the spatial tables are the axis values and each node's index
into them, which build_mode_grid already holds and hands on, and k0's
table comes from the axis squares two axes at a time, so a full cube
sorts nothing of size N.  Every other grid (a cube that drops nodes,
hand-built and box grids) sorts every column (np.unique).

The field on one slice at points p is a mode sum sum_k terms(k)
exp(pm i k.p) (PlaneWaves.sum_at).  On a full cube it factors axis by
axis, three small products in place of an (N, points) phase block;
every other grid takes one such block.
"""
from __future__ import annotations

import math
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
# build_mode_grid drops a node whose k0 is below K0_FLOOR * kmax: the
# massless zero mode at the centre of an odd axis
K0_FLOOR = 1e-6
# largest spatial-component distance at which index_of matches a node
NODE_TOL = 1e-9
# complex entries per chunk of PlaneWaves.at: a chunk's rows and the one
# gather buffer stay in cache, and no second array the size of the block
# is allocated; on a (4,096 x 32) block the fresh pages of one cost more
# than the four gathers together
_GATHER_CHUNK = 2**15


def _unique_table(column):
    """np.unique's distinct values of column and each entry's index into
    them, in the smallest unsigned dtype that holds it."""
    values, index = np.unique(column, return_inverse=True)
    return values, index.astype(np.min_scalar_type(len(values) - 1))


def _cube_k0_table(sq, kk):
    """_unique_table of a full cube's k0 column, sqrt(((sq_i + sq_j) +
    sq_l) + kk) over the nodes (i, j, l) in C order, from the axis
    squares sq (n,) two axes at a time: the distinct pair sums, then the
    distinct sums of those and sq_l, then their distinct roots.  The
    operands and their order are build_mode_grid's, so the table is
    np.unique's bit for bit, and no array of the grid's size is sorted;
    a node's index is two gathers through the inverse maps."""
    pairs, pair_index = np.unique(np.add.outer(sq, sq).ravel(),
                                  return_inverse=True)
    sums, sum_index = np.unique(np.add.outer(pairs, sq).ravel(),
                                return_inverse=True)
    values, index = _unique_table(np.sqrt(sums + kk))
    return values, index[sum_index].reshape(len(pairs), -1)[pair_index].ravel()


class PlaneWaves:
    """The plane waves exp(sign i k.x) of the modes k (N, 4).

    tables holds, per component a of k, its distinct values (np.unique)
    and each mode's index into them, in the smallest unsigned dtype that
    holds it.  cube = (axis, axis_index, kappa^2), given by
    build_mode_grid for a full cube only, is its sorted axis values (n,),
    per spatial component each mode's index into them (N = n^3, C
    order), and the kappa^2 of its k0: the spatial tables are then the
    axis itself and k0's is _cube_k0_table's, all equal to np.unique's,
    so a full cube sorts nothing of size N, and sum_at sums its modes
    axis by axis.
    The values of every component are also kept as one concatenation,
    with each value's component, for at.  The spinor's shell operators
    of these modes are built on first use and kept with the tables
    (shell_operators).
    """

    def __init__(self, k, *, cube=None):
        self.k = np.asarray(k, dtype=float)
        self._shell = {}
        self._axis = None
        if cube is None:
            self.tables = [_unique_table(column) for column in self.k.T]
        else:
            # a full cube: every axis value is used, and k0 is a function
            # of the three axis squares
            self._axis, axis_index, kk = cube
            self.tables = [_cube_k0_table(self._axis**2, kk)]
            self.tables += [(self._axis, index) for index in axis_index]
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

    def sum_at(self, terms, points, sign: int) -> np.ndarray:
        """sum_n terms[n] exp(sign i k_n.p), k_n the spatial part of mode
        n, at the points p (P, 3): terms (N, ...), result (P, ...).

        On a full cube mode (i, j, l) has spatial k (a_i, a_j, a_l), a
        the axis, in C order, so the sum factors axis by axis:

            sum_ijl terms[i, j, l] e^{sign i a_i p_x} e^{sign i a_j p_y}
                                   e^{sign i a_l p_z},

        one BLAS product (P x n) @ (n x n^2 ...) contracting the first
        axis of every point and small batched ones the other two.  Any
        other set of modes takes one (N, P) block of at at x = (0, p)
        and one product.
        """
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        tail = terms.shape[1:]
        flat = terms.reshape(len(terms), math.prod(tail))
        if self._axis is None:
            x = np.zeros((len(points), 4))
            x[:, 1:] = points
            # k.x = -k.p at x = (0, p), so at takes the opposite sign
            total = self.at(x, -sign).T @ flat
        else:
            n, m = len(self._axis), flat.shape[1]
            # exp(sign i a p) per spatial component, point and axis value,
            # the minus sign's as the conjugate of the plus sign's
            factors = np.exp(1j * points.T[:, :, None] * self._axis)
            fx, fy, fz = factors if sign > 0 else np.conj(factors)
            part = (fx @ flat.reshape(n, -1)).reshape(len(points), n, n * m)
            part = (fy[:, None, :] @ part).reshape(len(points), n, m)
            total = (fz[:, None, :] @ part)[:, 0]
        return total.reshape((len(points),) + tail)


@dataclass(frozen=True)
class ModeGrid:
    """Flat list of on-shell modes with quadrature weights.

    k has shape (N, 4) (contravariant, k[:, 0] on the positive shell),
    weight has shape (N,), the invariant weights d^3k / (8 pi^3 2 k0)
    (1 / (L^3 2 k0) on a box); kappa and the build parameters are not
    kept.  Instances are produced by build_mode_grid; building one by
    hand is fine, with k on shell (reconstruct_field sums any k).  waves,
    the grid's PlaneWaves, builds its per-component phase tables on
    first use and keeps them: k must not change after that.  _cube is the
    (axis, axis_index, kappa^2) build_mode_grid leaves for them on a full
    cube (None otherwise), from which it sorts nothing of size N and
    sums its modes axis by axis.
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


def _check_scales(kmax: float, kappa: float) -> None:
    """A NaN kmax or kappa would drop every node, an infinite one leave
    k0 = inf or NaN: each must be finite."""
    if not 0.0 < kmax < math.inf:
        raise ValueError(f"kmax must be positive and finite, got {kmax}")
    if not 0.0 <= kappa < math.inf:
        raise ValueError(f"kappa must be >= 0 and finite, got {kappa}")


def k0_bounds(kmax: float, n_per_axis: int,
              kappa: float) -> tuple[float, float]:
    """Smallest and largest k0 that build_mode_grid keeps, bit for bit,
    without building the grid (inf past the float range; the smallest is
    inf when no node is kept).  A node's sqrt(((x^2 + y^2) + z^2) +
    kappa^2) rounds up as any axis square grows, so the extremes sit at
    the least and the largest square, unless the floor drops the least
    (an odd axis on a field lighter than the floor); then every sum is
    taken, one z at a time."""
    _check_scales(kmax, kappa)
    floor, kk = K0_FLOOR * kmax, float(kappa) ** 2
    with np.errstate(over="ignore"):
        sq = _axis(kmax, n_per_axis)[1] ** 2
        low, top = (float(np.sqrt(((v + v) + v) + kk))
                    for v in (sq.min(), sq.max()))
        if low < floor:
            xy = np.add.outer(sq, sq)
            low = min(float(np.min(k0, where=k0 >= floor, initial=np.inf))
                      for k0 in (np.sqrt((xy + z) + kk) for z in sq))
    return low, top


def build_mode_grid(kmax: float, n_per_axis: int, kappa: float) -> ModeGrid:
    """Midpoint cube grid over [-kmax, kmax]^3 with shell weights.

    Nodes with k0 below the floor K0_FLOOR * kmax are dropped: only the
    centre node of an odd axis, on a field lighter than the floor (a
    one-node grid then keeps nothing).  The budget is checked before any
    allocation.  k's spatial columns are the axis broadcast over the
    cube.  With every node kept the grid carries its cube, so its phase
    tables (ModeGrid.waves) come from the axis, sorting nothing of size
    N, and its slice sums (PlaneWaves.sum_at) go axis by axis; a grid
    that drops a node carries none.
    """
    _check_scales(kmax, kappa)
    if n_per_axis < 1:
        raise ValueError("n_per_axis must be >= 1")
    n_total = n_per_axis**3
    if n_total > DEFAULT_MODE_BUDGET:
        raise ModeBudgetError(
            f"grid of {n_per_axis}^3 = {n_total} modes exceeds the budget "
            f"of {DEFAULT_MODE_BUDGET}")

    dk, axis = _axis(kmax, n_per_axis)
    # node (i, j, l) in C order is (k0, axis[i], axis[j], axis[l]), k0
    # mass_shell_energy's sum (kx^2 + ky^2) + kz^2 + kappa^2, bit for bit,
    # from the axis squares; the spatial columns are the axis broadcast
    sq, kk = axis**2, float(kappa) ** 2
    nodes = np.empty((n_per_axis,) * 3 + (4,))
    nodes[..., 0] = np.sqrt(((sq[:, None, None] + sq[None, :, None])
                             + sq[None, None, :]) + kk)
    nodes[..., 1] = axis[:, None, None]
    nodes[..., 2] = axis[:, None]
    nodes[..., 3] = axis
    k = nodes.reshape(-1, 4)
    keep = k[:, 0] >= K0_FLOOR * kmax
    full = keep.all()
    if not full:
        k = k[keep]
    k0 = _positive_shell(k[:, 0])
    weight = dk**3 / (8.0 * np.pi**3 * 2.0 * k0)
    k.setflags(write=False)
    weight.setflags(write=False)
    grid = ModeGrid(k=k, weight=weight)
    if full:
        # for waves: each node's index into axis per spatial component,
        # the tables read off the axis and the mode sum taken axis by axis
        axis_index = np.indices((n_per_axis,) * 3, dtype=np.min_scalar_type(
            n_per_axis - 1)).reshape(3, -1)
        object.__setattr__(grid, "_cube", (axis, axis_index, kk))
    return grid


def box_mode_grid(box_length: float, n_vectors, kappa: float) -> ModeGrid:
    """Periodic-box modes k = (2 pi / L) n for integer triples n_vectors.

    Weight per mode is 1 / (L^3 * 2 k0): the box analogue of the
    invariant measure, so sum_k w |C|^2 matches (1/L^3) int d^3x of the
    corresponding density.  Duplicate triples are rejected.
    """
    if not 0.0 < box_length < math.inf:
        raise ValueError(f"box_length must be positive and finite, got "
                         f"{box_length}")
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
