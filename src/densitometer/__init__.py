"""densitometer: dilation geometry, convergence indexes and density-rate scans.

The package builds and probes square-packing set models: weight sequences fix
the square areas, simultaneous dilation blows packings up into rectangle
unions, a step rate function converts block scales into density lower bounds,
and a seeded scan harness measures empirical density ratios against those
bounds.
"""

from .errors import DensitometerError
from .interval1d import Interval
from .dilation import Rectangle, dilate_1d, dilate_2d
from .weights import WeightSequence, analyze
from .auxfn import (
    RateFunction,
    Schedule,
    build_rate_function,
    choose_subsequence,
    little_o_check,
    series_diagnostics,
)
from .setmodel import CompactSetModel, build_cover, build_packing
from .scan import ScanConfig, scan_deficit_envelope, scan_density_bound, separation_check

__all__ = [
    "DensitometerError",
    "Interval",
    "Rectangle",
    "dilate_1d",
    "dilate_2d",
    "WeightSequence",
    "analyze",
    "Schedule",
    "RateFunction",
    "choose_subsequence",
    "build_rate_function",
    "series_diagnostics",
    "little_o_check",
    "CompactSetModel",
    "build_packing",
    "build_cover",
    "ScanConfig",
    "scan_density_bound",
    "separation_check",
    "scan_deficit_envelope",
]

__version__ = "0.1.0"
