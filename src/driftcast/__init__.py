"""Adaptive forecast combination under concept drift.

Simulates drifting series streams, fits recency-weighted global and local
base learners, combines them online with error-contribution or
gradient-descent weighting, and scores everything with a prequential
harness plus Friedman/Hochberg rank statistics.
"""

__version__ = "0.1.0"

from driftcast.core import Dataset, DriftMeta, derive_series_seed
from driftcast.simulate import SimConfig, make_dataset

__all__ = [
    "Dataset",
    "DriftMeta",
    "SimConfig",
    "derive_series_seed",
    "make_dataset",
    "__version__",
]
