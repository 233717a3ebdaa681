"""supercalc: exact finite-generator superalgebra with analysis on top.

Modules cover: the coefficient algebra itself (grassmann), functions of
even/odd variables (superspace), block linear algebra with a multiplicative
super-determinant (superlinalg), integration over anticommuting variables and
its change-of-variables subtleties (berezin), Fourier transforms in odd and
mixed variables (fourier_odd), and super Hamilton flows with propagators built
from classical data (weyl_dynamics).
"""

from . import berezin, fourier_odd, grassmann, superlinalg, superspace, weyl_dynamics
from .fourier_odd import OddFourierConfig
from .grassmann import AnalyticSpec, Supernumber
from .superlinalg import Supermatrix
from .superspace import SuperFunction, SuperMap, SuperPoint
from .weyl_dynamics import FlowState, SuperHamiltonian, WeylSymbolParams

__version__ = "0.1.0"

__all__ = [
    "berezin",
    "fourier_odd",
    "grassmann",
    "superlinalg",
    "superspace",
    "weyl_dynamics",
    "OddFourierConfig",
    "Supernumber",
    "Supermatrix",
    "SuperFunction",
    "SuperMap",
    "SuperPoint",
    "AnalyticSpec",
    "FlowState",
    "SuperHamiltonian",
    "WeylSymbolParams",
    "__version__",
]
