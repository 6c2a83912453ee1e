"""Haar-wavelet compressibility of compound Poisson processes.

Exact simulation of compound Poisson paths and Brownian motion on [0, 1],
exact Haar wavelet expansions of the jump paths, linear / greedy / best
M-term approximation schemes, closed-form error formulas and envelopes,
and a reproducible Monte Carlo harness that verifies the former against
the latter.
"""

# Nothing in cpwave uses scipy. perfbench/child.py reads the version of the
# scipy in sys.modules for its report; the bare import is lazy and loads
# none of scipy's subpackages. ROADMAP item 2 moves child.py to
# importlib.metadata, and then this import goes.
import scipy  # noqa: F401

from .processes import (
    CompoundPoissonPath,
    JumpLaw,
    brownian_grid,
    derive_stream,
    sample_grid,
    sample_path,
)
from .haar import discrete_haar_forward
from .schemes import InvariantViolation
from .theory import (
    TheoryPoint,
    expected_two_pow,
    greedy_mse_envelope,
    linear_mse,
    spacing_survival,
)
from .dct import DctCoeffs, dct2_forward
from .harness import (
    CurveRecord,
    ExperimentConfig,
    run_dict_compare,
    run_envelope_check,
    run_mse_curve,
    run_spacing_check,
    write_csv,
    write_json,
)

__version__ = "0.1.0"
