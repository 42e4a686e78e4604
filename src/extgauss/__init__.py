"""Gaussian probability with uninformative directions.

Core value types are re-exported here; the functional API lives in the
submodules:

- :mod:`extgauss.subspace`: canonical subspaces of R^n and their lattice
- :mod:`extgauss.gauss`: Gaussian maps, conditionals, supports
- :mod:`extgauss.linrel`: left-total linear and affine relations
- :mod:`extgauss.decorated`: maps/relations with monoid-valued noise
- :mod:`extgauss.extended`: extended Gaussians and exact conditioning
- :mod:`extgauss.dsl`: the small probabilistic language
- :mod:`extgauss.cli`: the ``gx`` command-line tool
"""

from .subspace import DEFAULT_TOL, NonFiniteInput, NotComplementary, Subspace, Tolerance
from .gauss import AffineSupportMap, GaussianMap, NotPSD
from .linrel import (
    AffineQuotientForm,
    AffineRelation,
    LinearRelation,
    NotLeftTotal,
    QuotientForm,
)
from .decorated import (
    CovDec,
    DecoratedMap,
    DecoratedRelation,
    Decoration,
    NoiseTransform,
    PairDec,
    PointDec,
    SubDec,
    ZeroDec,
)
from .extended import (
    CovarianceRep,
    ExtendedGaussian,
    ExtendedGaussianMap,
    InfeasibleObservation,
    PrecisionRep,
)
from .dsl import ParseError, PosteriorReport, Program, TypeCheckError

__all__ = [
    "DEFAULT_TOL",
    "Tolerance",
    "Subspace",
    "NotComplementary",
    "GaussianMap",
    "AffineSupportMap",
    "NotPSD",
    "LinearRelation",
    "AffineRelation",
    "QuotientForm",
    "AffineQuotientForm",
    "NotLeftTotal",
    "Decoration",
    "ZeroDec",
    "PointDec",
    "SubDec",
    "CovDec",
    "PairDec",
    "DecoratedMap",
    "DecoratedRelation",
    "NoiseTransform",
    "ExtendedGaussian",
    "ExtendedGaussianMap",
    "PrecisionRep",
    "CovarianceRep",
    "InfeasibleObservation",
    "NonFiniteInput",
    "Program",
    "PosteriorReport",
    "ParseError",
    "TypeCheckError",
]

__version__ = "0.1.0"
