"""Weighted least-squares power-law fits on log-log axes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scaperture.constants import MIN_FIT_RADII


@dataclass(frozen=True)
class PowerLawFit:
    slope: float
    slope_err: float
    intercept: float  # log|B| at log L = 0


def fit_power_law(lengths, values, sigma=None) -> PowerLawFit:
    """Fit log|B| = intercept + slope log L by weighted least squares.

    Weights are 1/sigma_log^2 with sigma_log = sigma/|B|; all-zero sigmas
    fall back to an ordinary fit with residual-scaled errors, and isolated
    zero sigmas are floored at the smallest positive one.
    """
    lengths = np.asarray(lengths, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(lengths) < MIN_FIT_RADII:
        raise ValueError(f"need at least {MIN_FIT_RADII} points to fit")
    if np.any(values == 0.0) or len(set(np.sign(values))) != 1:
        raise ValueError("values must be nonzero and of one sign")

    logl = np.log(lengths)
    logb = np.log(np.abs(values))
    design = np.column_stack([np.ones_like(logl), logl])

    weighted = sigma is not None and np.any(np.asarray(sigma) > 0)
    if weighted:
        sigma_log = np.asarray(sigma, dtype=float) / np.abs(values)
        floor = sigma_log[sigma_log > 0].min()
        sigma_log = np.maximum(sigma_log, floor)
        w = 1.0 / sigma_log**2
    else:
        w = np.ones_like(logl)

    wd = design * w[:, None]
    cov = np.linalg.inv(design.T @ wd)
    beta = cov @ (wd.T @ logb)
    if not weighted:
        resid = logb - design @ beta
        dof = max(len(logl) - 2, 1)
        cov = cov * (resid @ resid) / dof
    return PowerLawFit(
        slope=float(beta[1]),
        slope_err=float(np.sqrt(max(cov[1, 1], 0.0))),
        intercept=float(beta[0]),
    )
