"""Closed forms for a point dipole in a circular aperture at zero penetration depth."""
