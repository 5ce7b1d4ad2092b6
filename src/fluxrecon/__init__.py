"""Reaction-law recovery for semilinear heat equations from boundary flux data."""

from .eigenbasis import EigenBasis, make_basis, verify_orthonormality
from .errors import ConfigurationError, FluxreconError, InputError, NumericalError
from .families import make_boundary_data, make_reaction
from .fields import BoundaryTrace, SolutionField
from .forward import (DirichletData, Nonlinearity, ObservedData, neumann_trace,
                      solve_linear_heat, solve_semilinear, synthesize_observation)
from .geometry import (BoundaryNodeSet, DomainKind, DomainSpec, SpatialGrid,
                       boundary_nodes, build_grid, interval, rectangle)
from .heatkernel import KernelEvaluator
from .recon import (CoefficientSeries, CurveEstimate, ReconstructionConfig,
                    ReconstructionResult, assemble_series, build_curve,
                    compute_data_functional, differentiate_coefficients,
                    evaluate_curve, extend_boundary_data, flux_difference,
                    project_coefficients, reconstruct, volterra_oracle)

__version__ = "0.1.0"
