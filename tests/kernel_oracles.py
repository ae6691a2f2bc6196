"""Whole-grid forms of the solver's kernel, for tests.

The solver only ever makes kernel rows a batch at a time (`kernel_rows`);
these give the whole matrix and the sum rule's outside integral per point,
so that tests can check them against quadrature and rebuild h_z = h_a + K g.
"""

import numpy as np

from scaperture.grid import Grid
from scaperture.solver.kernel import _outside, kernel_rows


def boundary_correction(grid: Grid) -> np.ndarray:
    """Exact integral of 1/(4 pi s^3) over the plane outside the grid square,
    the sum rule's target that `kernel_rows` uses, seen from every point."""
    return _outside(grid.half_extent, grid.points[:, 0], grid.points[:, 1])


def cell_integrated_kernel(grid: Grid) -> np.ndarray:
    """Every row of `kernel_rows`: the kernel integrated exactly over every cell."""
    return kernel_rows(grid, np.arange(grid.n_points))
