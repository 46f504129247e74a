"""Solvable PT-symmetric models with a complex-contour numerical cross-check.

The package pairs closed-form analytic oracles (``models``) with an
independent finite-difference eigensolver on shifted complex contours
(``contour`` + ``eigen``) and exposes both through a small CLI
(``ptspec``).
"""

from .contour import Contour, contour_for, grid_points, potential_value
from .eigen import (Crossing, ScanResult, classify_spectrum,
                    crossing_params, eig_dense, match_spectra, pt_defect,
                    ptho_numeric_family, scan_parameter, solve_lowest,
                    solve_spectrum)
from .models import (AngularParams, PthoParams, angular_energy,
                     angular_wavefunction, ptho_energy, ptho_levels,
                     ptho_wavefunction, termination_levels)
from .specfun import cpow, gegenbauer, hyp2f1, laguerre

__version__ = "0.1.0"
