"""Isospectral Morse and Poschl-Teller families: bound-state spectra and the
Fourier-Bessel connection between the two pictures."""

from .grids import Grid, SampledFunction
from .numerics import (OscillatoryError, QuadratureResult, bessel_j,
                       integrate_oscillatory_bessel, sinc_interp,
                       sinc_kinetic)
from .potentials import (FAMILIES, MorseParams, PTParams,
                         SingularConfigurationError, Well, riccati_residual)
from .eigensolver import (GridTooSmallError, Spectrum, default_grid,
                          discretize, solve_bound_states)
from .transforms import (HankelPlan, TruncationWarning, angular_phase_integral,
                         hankel, make_hankel_plan, potential_term_map,
                         potential_term_sandwich, wavefunction_map)
from .analysis import (SpectralReport, energy_shift_check, gamma_sweep,
                       isospectral_check, solve, solve_morse, solve_pt)

__version__ = "0.1.0"
