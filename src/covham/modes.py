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
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridDomainError, ModeBudgetError
from .minkowski import mass_shell_energy

DEFAULT_MODE_BUDGET = 2_000_000
# most time steps a scenario may ask for, directly or through a window
# refined to STENCIL_K0H; each step of the simulate suite's history holds
# every mode's coefficients
STEP_BUDGET = 20_000
# largest k0 h of the simulate suite's mode-equation stencil, the finest
# refinement a suite asks of the scenario window (the hamilton suite
# refines its probed modes to 0.06)
STENCIL_K0H = 0.03
# largest spatial-component distance at which index_of matches a node
NODE_TOL = 1e-9


@dataclass(frozen=True)
class ModeGrid:
    """Flat list of on-shell modes with quadrature weights.

    k has shape (N, 4) (contravariant, k[:, 0] on the positive shell),
    weight has shape (N,).  Instances are produced by build_mode_grid;
    building one by hand is fine as long as k is on shell.
    """

    k: np.ndarray
    weight: np.ndarray
    kappa: float
    kmax: float
    n_per_axis: int
    spacing: float
    k0_floor: float = 0.0

    def __len__(self) -> int:
        return self.k.shape[0]

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


def build_mode_grid(
    kmax: float,
    n_per_axis: int,
    kappa: float,
    k0_floor: float | None = None,
    mode_budget: int = DEFAULT_MODE_BUDGET,
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
    if n_total > mode_budget:
        raise ModeBudgetError(
            f"grid of {n_per_axis}^3 = {n_total} modes exceeds the budget "
            f"of {mode_budget}; raise mode_budget explicitly if intended"
        )
    if k0_floor is None:
        k0_floor = 1e-6 * kmax

    dk = 2.0 * kmax / n_per_axis
    axis = -kmax + dk * (np.arange(n_per_axis) + 0.5)
    kx, ky, kz = np.meshgrid(axis, axis, axis, indexing="ij")
    k_spatial = np.column_stack([kx.ravel(), ky.ravel(), kz.ravel()])

    k0 = np.sqrt(np.sum(k_spatial**2, axis=1) + kappa**2)
    keep = k0 >= k0_floor
    k_spatial = k_spatial[keep]
    k0 = mass_shell_energy(k_spatial, kappa)

    k = np.empty((k_spatial.shape[0], 4))
    k[:, 0] = k0
    k[:, 1:] = k_spatial
    weight = dk**3 / (8.0 * np.pi**3 * 2.0 * k0)
    k.setflags(write=False)
    weight.setflags(write=False)
    return ModeGrid(
        k=k,
        weight=weight,
        kappa=float(kappa),
        kmax=float(kmax),
        n_per_axis=int(n_per_axis),
        spacing=dk,
        k0_floor=float(k0_floor),
    )


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
    return ModeGrid(
        k=k,
        weight=weight,
        kappa=float(kappa),
        kmax=float(np.max(np.abs(k_spatial), initial=0.0)),
        n_per_axis=0,
        spacing=2.0 * np.pi / box_length,
        k0_floor=0.0,
    )
