"""Isospectral Morse and Poschl-Teller families: bound-state spectra and the
Fourier-Bessel connection between the two pictures."""

from .grids import Grid, SampledFunction
from .numerics import (OscillatoryError, QuadratureError, QuadratureResult,
                       bessel_j, integrate_adaptive,
                       integrate_oscillatory_bessel, lower_incomplete_gamma,
                       sinc_interp, sinc_kinetic)
from .potentials import (MorseParams, PotentialCurve, PTParams,
                         SingularConfigurationError, f_morse, f_pt,
                         morse_generalized, morse_partner, morse_shifted,
                         pt_generalized, pt_partner, pt_shifted, q_morse,
                         q_pt, riccati_residual)
from .eigensolver import (GridTooSmallError, Spectrum, discretize,
                          solve_bound_states)
from .transforms import (HankelPlan, TruncationWarning, angular_phase_integral,
                         hankel, make_hankel_plan, potential_term_map,
                         potential_term_sandwich, wavefunction_map)
from .analysis import (SpectralReport, energy_shift_check, gamma_sweep,
                       isospectral_check, solve_morse, solve_pt)

__version__ = "0.1.0"
