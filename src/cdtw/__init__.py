"""Exact continuous dynamic time warping for 1D polygonal curves.

Public API re-exported here: curve construction, the exact solver with path
reconstruction and complexity statistics, baseline measures (DTW, discrete
Frechet), and the sampled-grid approximation oracle.
"""

from .baselines import GridConfig, cdtw_grid, discrete_frechet, dtw
from .curves import Cell, Curve, build_curve, cell_info, height, point_at
from .engine import (
    CdtwResult,
    EngineConfig,
    SolveStats,
    WarpPath,
    cdtw_exact,
    reconstruct_path,
)
from .errors import (
    CdtwError,
    CoverageGap,
    EmptyInput,
    IndexOutOfRange,
    InsufficientVertices,
    InvariantViolation,
    OutOfDomain,
    ProvenanceMissing,
    ResolutionZero,
    TooLarge,
    WrongCellType,
)
from .piecewise import PiecewiseQuadratic

__all__ = [
    "build_curve",
    "point_at",
    "height",
    "cell_info",
    "Curve",
    "Cell",
    "cdtw_exact",
    "reconstruct_path",
    "CdtwResult",
    "EngineConfig",
    "SolveStats",
    "WarpPath",
    "dtw",
    "discrete_frechet",
    "cdtw_grid",
    "GridConfig",
    "PiecewiseQuadratic",
    "CdtwError",
    "InsufficientVertices",
    "OutOfDomain",
    "IndexOutOfRange",
    "WrongCellType",
    "CoverageGap",
    "InvariantViolation",
    "ProvenanceMissing",
    "EmptyInput",
    "TooLarge",
    "ResolutionZero",
]
