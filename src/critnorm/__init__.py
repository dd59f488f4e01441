"""Numerical laboratory for localized smoothing and critical-norm
concentration experiments on a periodic box.

Subpackage map:

- fields, spectral: grids and multiplier operators
- fieldio: the CSV writer of every report, and a field plane as CSV
- norms: Lebesgue/Morrey/Lorentz norm engines and inequality checks
- besov: Littlewood-Paley projections, Besov norms, frequency splitting
- mild: Duhamel integrals, forward solves of the mild and drift-operator equations
- cylinder: parabolic-cylinder quadrature and every time rule over stored slices
- pns: perturbed Navier-Stokes time stepper and energy bookkeeping
- pressure: localized pressure representation and oscillation estimates
- ckn: dyadic ledger of local quantities and test-function battery
- corpus: stock fields of the pipeline and the heat-smoothing experiment
- pipeline: the chain from the data split to the ledgers (run_chain), not imported here
"""

__version__ = "0.1.0"

from .fields import (
    Grid,
    ScalarField,
    SpaceTimeField,
    TensorField,
    VectorField,
)

__all__ = [
    "Grid",
    "ScalarField",
    "VectorField",
    "TensorField",
    "SpaceTimeField",
    "__version__",
]
