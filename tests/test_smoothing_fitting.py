import numpy as np
import pytest

from scaperture.experiments.fitting import fit_power_law


def test_fit_exact_power_law():
    L = np.geomspace(1.0, 100.0, 12)
    B = 2.5 * L**-3
    fit = fit_power_law(L, B)
    assert fit.slope == pytest.approx(-3.0, abs=1e-12)
    assert fit.slope_err == pytest.approx(0.0, abs=1e-10)


def test_fit_monte_carlo_coverage():
    # 5 percent noise, 50 points: at least 95 of 100 seeds land within 0.1
    L = np.geomspace(1.0, 100.0, 50)
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        B = 3.0 * L**-2 * (1 + 0.05 * rng.standard_normal(50))
        fit = fit_power_law(L, B, sigma=0.05 * np.abs(B))
        hits += abs(fit.slope + 2.0) <= 0.1
    assert hits >= 95


def test_fit_scale_invariance():
    rng = np.random.default_rng(7)
    L = np.geomspace(1.0, 30.0, 20)
    B = 1.3 * L**-2.2 * (1 + 0.02 * rng.standard_normal(20))
    sig = 0.02 * np.abs(B)
    base = fit_power_law(L, B, sig)
    scaled_b = fit_power_law(L, 7.7 * B, 7.7 * sig)
    scaled_l = fit_power_law(3.1 * L, B, sig)
    assert scaled_b.slope == pytest.approx(base.slope, abs=1e-12)
    assert scaled_l.slope == pytest.approx(base.slope, abs=1e-12)
    assert scaled_b.intercept != pytest.approx(base.intercept, abs=1e-6)


def test_fit_rejects_mixed_signs():
    L = np.geomspace(1.0, 10.0, 6)
    B = np.array([1.0, -1.0, 1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        fit_power_law(L, B)


def test_fit_rejects_short_series():
    with pytest.raises(ValueError):
        fit_power_law([1, 2, 3, 4], [1, 1, 1, 1])
