"""Shifted polylogarithm (Lerch-type) evaluation on the half-plane
Re(w) < 1/2 through a multiple-harmonic power series in z = w/(w-1),
an accelerated zeta(s) series at z = 1/2, and an exact-rational layer that
verifies the combinatorial identities behind the transform.

Layers:

- `exact`  - arbitrary-precision rational kernel: multiple harmonic sums,
  both sides of the binomial identity and the exact series coefficients.
- `series` - complex binary64 evaluators with a-posteriori error bounds;
  `logseries`, the log-series route near |z| = 1, and `inversion`, the
  inversion formula at |w| >= 3/2, are each imported on first use.
- `verify` - grid sweeps of every identity, recurrence and bound, reported
  as `VerificationReport`s; imported when `run_suite` or one is first read.
- `cli`    - `mhlerch eval|zeta|verify|bench` with JSON/CSV output.
"""

from .errors import DomainError, InvalidShiftError, PrecisionError
from .exact import (
    LemmaParams,
    MultiSumSpec,
    coefficient_exact,
    lemma_lhs,
    lemma_rhs,
    multi_sum,
)
from .series import (
    SeriesResult,
    ShiftParam,
    disk_to_half_plane,
    lerch_accelerated,
    lerch_direct,
    zeta_accelerated,
)

__version__ = "0.1.0"


def __getattr__(name):  # PEP 562: called only for a name the module lacks
    if name not in ("VerificationReport", "run_suite"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import verify
    return getattr(verify, name)


__all__ = [
    "DomainError",
    "InvalidShiftError",
    "PrecisionError",
    "LemmaParams",
    "MultiSumSpec",
    "coefficient_exact",
    "lemma_lhs",
    "lemma_rhs",
    "multi_sum",
    "SeriesResult",
    "ShiftParam",
    "disk_to_half_plane",
    "lerch_accelerated",
    "lerch_direct",
    "zeta_accelerated",
    "VerificationReport",
    "run_suite",
    "__version__",
]
