"""Spectral tools for Sturm-Liouville problems with a constant delay.

The operator is -y'' + q(x) y(x - a) on (0, pi) with a potential that
vanishes below the delay.  The package builds characteristic functions
for the four Dirichlet/Neumann endpoint combinations, computes their
zeros with certified counts, and constructs one-parameter potential
families sharing both characteristic functions, together with the
integral-operator eigenpair machinery those families are built from.
"""

from .charfn import CharData, build_w, delta_closed, delta_direct
from .delay_solver import (
    DelaySetup,
    endpoint_values,
    grid_breakpoints,
    p_function,
    series_term,
    y1_closed,
    y2_closed,
)
from .errors import (
    ConsistencyError,
    ContourError,
    DelaySLError,
    DomainError,
    GridMismatchError,
    IncompleteSpectrumError,
    NoEigenvaluesError,
    PreconditionError,
    RefinementError,
)
from .family import (
    bridge_integral,
    build_member,
    omega_of_member,
    w_of_member,
)
from .fredholm import (
    EigenPair,
    FredholmOperator,
    apply,
    apply_discrete,
    eigenpairs,
    nystrom,
    project,
    reference_pair,
    zero_mean,
)
from .gridfn import (
    Interval,
    PiecewiseFunction,
    SampledSegment,
    assemble_segments,
    cumulative,
    integrate,
    piecewise_quad,
    read_csv,
    sample_function,
    simpson_rule,
    write_csv,
)
from .kernels import ckernel, kernel_pair, skernel
from .spectrum import (
    Spectrum,
    SpectrumEntry,
    compare,
    compute_spectrum,
    count_roots,
    initial_guesses,
    refine_root,
)

__version__ = "0.1.0"

__all__ = [
    "CharData",
    "build_w",
    "delta_closed",
    "delta_direct",
    "DelaySetup",
    "endpoint_values",
    "grid_breakpoints",
    "p_function",
    "series_term",
    "y1_closed",
    "y2_closed",
    "ConsistencyError",
    "ContourError",
    "DelaySLError",
    "DomainError",
    "GridMismatchError",
    "IncompleteSpectrumError",
    "NoEigenvaluesError",
    "PreconditionError",
    "RefinementError",
    "bridge_integral",
    "build_member",
    "omega_of_member",
    "w_of_member",
    "EigenPair",
    "FredholmOperator",
    "apply",
    "apply_discrete",
    "eigenpairs",
    "nystrom",
    "project",
    "reference_pair",
    "zero_mean",
    "Interval",
    "PiecewiseFunction",
    "SampledSegment",
    "assemble_segments",
    "cumulative",
    "integrate",
    "piecewise_quad",
    "read_csv",
    "sample_function",
    "simpson_rule",
    "write_csv",
    "ckernel",
    "kernel_pair",
    "skernel",
    "Spectrum",
    "SpectrumEntry",
    "compare",
    "compute_spectrum",
    "count_roots",
    "initial_guesses",
    "refine_root",
]
