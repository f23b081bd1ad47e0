"""staticstar: static perfect-fluid stellar models on Riemannian spatial slices.

Subpackage map
--------------
``numerics``    radial functions and jets, grids, root finding, RK45, piecewise polynomials
``errors``      the package's exceptions, each mapped to a CLI exit code
``config``      run configuration: built-in defaults, INI file, CLI overrides
``geometry``    curvature, field-equation residuals, convention bridge
``tov``         equations of state and interior integration (TOV system)
``catalog``     exact solutions with closed-form evaluators and self-checks
``quasilocal``  Hawking / Brown-York masses, level-set reports, topology checks
``energy``      pointwise energy-condition scans
``conformal``   conformally flat model construction from quadric invariants
``cli``         command-line entry point (``staticstar``)
"""

from . import catalog, conformal, energy, geometry, numerics, quasilocal, tov
from .catalog import AnalyticModel, build as build_catalog_model
from .conformal import BasicInvariant, ConformalModel, build_model
from .energy import ConditionScan, scan_conditions, scan_model
from .errors import StaticStarError
from .geometry import FluidData, ResidualReport, spf_residuals, to_geometric, to_physical
from .quasilocal import QuasiLocalReport, SphereClass, level_set_data, mass_sweep
from .tov import EquationOfState, StellarModel, integrate_tov, match_exterior

__all__ = [
    "AnalyticModel",
    "BasicInvariant",
    "ConditionScan",
    "ConformalModel",
    "EquationOfState",
    "FluidData",
    "QuasiLocalReport",
    "ResidualReport",
    "SphereClass",
    "StaticStarError",
    "StellarModel",
    "build_catalog_model",
    "build_model",
    "catalog",
    "conformal",
    "energy",
    "geometry",
    "integrate_tov",
    "level_set_data",
    "mass_sweep",
    "match_exterior",
    "numerics",
    "quasilocal",
    "scan_conditions",
    "scan_model",
    "spf_residuals",
    "to_geometric",
    "to_physical",
    "tov",
]
