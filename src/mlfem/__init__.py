"""Multilevel adaptive P1 finite elements on the unit square.

Solves the parametric diffusion problem with a local multigrid solver on
adaptively refined nested Courant meshes, estimates errors with a residual
indicator, and realizes every step of that pipeline a second time as exact
sparse convolutions for verification and dataset export.
"""

from .adapt import AfemStep, afem, mark_doerfler, mark_threshold, refine
from .assembly import DiffusionField, RhsField, compute_upsilon
from .convnet import ConvKernel, StencilBank, build_stencil_bank
from .estimator import EstimatorField, estimate
from .field import LevelMask, MultilevelField, uniform_masks, zero_field
from .mesh import ConfigurationError, GridHierarchy, build_hierarchy
from .problems import CookieProblem, SampleRng
from .solver import SmootherConfig, SolveReport, choose_omega, llmg_solve

__version__ = "0.1.0"

__all__ = [
    "AfemStep",
    "ConfigurationError",
    "ConvKernel",
    "CookieProblem",
    "DiffusionField",
    "EstimatorField",
    "GridHierarchy",
    "LevelMask",
    "MultilevelField",
    "RhsField",
    "SampleRng",
    "SmootherConfig",
    "SolveReport",
    "StencilBank",
    "afem",
    "build_hierarchy",
    "build_stencil_bank",
    "choose_omega",
    "compute_upsilon",
    "estimate",
    "llmg_solve",
    "mark_doerfler",
    "mark_threshold",
    "refine",
    "uniform_masks",
    "zero_field",
    "__version__",
]
