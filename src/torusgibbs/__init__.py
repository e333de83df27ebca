"""Grand-canonical Bose gases on the unit torus with attractive three-body
interactions, their mass-cutoff Gibbs states, and the classical Gibbs
measures they approach at high temperature.

Subpackages:

- `model`        parameters, spectrum, kernel, cutoffs, ground state
- `fock`         occupation bases, sparse interaction triplets, ladder maps
- `qgibbs`       quantum Gibbs states, partition functions, entropies
- `cgibbs`       classical field sampler and importance-sampling estimators
- `semiclassics` coherent states, lower symbols, moment comparisons
- `experiments`  reproducible sweep drivers and the selftest
"""

from . import cgibbs, experiments, fock, model, qgibbs, semiclassics
from .errors import (
    InvalidConfigError,
    NumericalFailureError,
    QuadratureFailureError,
    ResourceLimitError,
    SupportMismatchError,
    SupportViolationError,
    TorusGibbsError,
    UnsupportedOrderError,
)

__version__ = "0.1.0"

__all__ = [
    "model", "fock", "qgibbs", "cgibbs", "semiclassics", "experiments",
    "TorusGibbsError", "ResourceLimitError", "NumericalFailureError",
    "QuadratureFailureError", "SupportMismatchError", "SupportViolationError",
    "UnsupportedOrderError", "InvalidConfigError",
]
