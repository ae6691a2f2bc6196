"""Physical constants and default parameters (SI units throughout)."""

# CODATA 2022, written out so that importing the package loads no scipy
MU0 = 1.25663706127e-06           # vacuum permeability, N/A^2
PLANCK = 6.62607015e-34           # J s
BOHR_MAGNETON = 9.2740100657e-24  # J/T
ELECTRON_G = 2.00231930436092     # |g_e|

# moment of a single spin-1 particle, m = 2 g mu_B
DEFAULT_MOMENT = 2.0 * ELECTRON_G * BOHR_MAGNETON

GAUSS = 1e-4  # tesla
MIN_FIT_RADII = 5  # fewest sweep radii the power-law fit is made from
EVAL_Y = 5e-9  # height of the evaluation line y = EVAL_Y of every scenario, m

# thin-film material defaults: clean Nb layer
DEFAULT_LONDON_DEPTH = 50e-9
DEFAULT_THICKNESS = 80e-9
DEFAULT_FILM_FACTOR = 90.0   # film half-extent in scale radii; > 1 covers the aperture
DEFAULT_GRID_FACTOR = 100.0  # grid half-extent in scale radii; > the film's
DEFAULT_RATIO = 125.0  # scenario grid: far spacing over the spacing at the refined positions
