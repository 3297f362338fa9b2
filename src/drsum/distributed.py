"""The simulated multi-worker solver's names for the benchmark's tracer.

The multi-worker run is the solver module's one epoch loop and driver
with one contiguous shard per worker: solver.solve runs config.p
workers, and p = 1 is the centralized run.  This module holds only the
names the tracer in perfbench/tracing.py wraps: dist_run_epoch, which
solve calls for p > 1, is solver.run_epoch under a second name, and the
composite and constraint names below are bound here because the tracer
wraps them in this module as it does in solver.
"""

from .composite import (  # noqa: F401
    batch_estimates,
    delta_update,
    evaluate_psi,
    gradient_mapping,
)
from .constraints import max_violation  # noqa: F401
# the benchmark's tests import the closed-form call counts from here
from .solver import dist_expected_oracle_calls  # noqa: F401
from .solver import run_epoch as dist_run_epoch
