"""Simulator and verification harness for a coupled wave system with
nonlinear monotone boundary dissipation."""

from .admissibility import (CoefficientSchedule, HypothesisReport, build_report,
                            constant_schedule, decay_envelope, decaying_schedule)
from .discretization import (SemiDiscreteSystem, SimState, assemble,
                             project_initial_data, rhs)
from .errors import (ConfigError, FitUndefinedError, InadmissiblePartitionError,
                     InvalidArgumentError, NumericalFailureError, StepFailureError)
from .feedback import (CATALOG, FeedbackLaw, LipschitzLaw, hardening_law,
                       identity_law, saturating_law, strauss_approximate, zero_law)
from .geometry import (BoundaryPartition, Mesh,
                       build_interval_mesh, build_rect_mesh, classify_boundary,
                       embedding_constants, geometric_constants)
from .timestepper import StepControl, integrate, load_checkpoint, save_checkpoint

__version__ = "0.1.0"
