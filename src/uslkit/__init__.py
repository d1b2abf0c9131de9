"""Scalability analysis toolkit.

Quantifies how throughput scales with concurrency using a two-coefficient
capacity model (contention + coherency), fits the coefficients to
measured data, validates measurements against the efficiency bound,
cross-checks against an exact closed-queue solution, and extracts
steady-state throughput from load-test time series.

Each module's ``__all__`` is its public API, and the package re-exports
all of them.
"""

from . import errors, fitting, model, queueing, timeseries, validation
from .errors import *
from .fitting import *
from .model import *
from .queueing import *
from .timeseries import *
from .validation import *

__version__ = "0.1.0"

__all__ = [*errors.__all__, *model.__all__, *fitting.__all__, *validation.__all__,
           *queueing.__all__, *timeseries.__all__]
