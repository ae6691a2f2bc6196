"""Sweeps, fits, engine comparisons and couplings built on the two engines."""
