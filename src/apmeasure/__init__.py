"""Exact rational arithmetic for discrete point measures on the real line.

The package builds a self-similar averaged lattice measure stage by stage,
certifies each inequality its construction relies on, performs exact
piecewise-linear convolution and almost-period defect measurements, and
runs point-set matching together with the smoothed-difference product
harness.  There is no floating point anywhere on the certified paths.
"""

from .construction import (
    AtomBudgetError,
    ClusterCertificate,
    StageScan,
    StageStabilityError,
    build_stage,
    cluster_certificate,
    limit_window,
    projected_atom_count,
    provenance,
    radius_series_tail_bound,
    stage_window,
    verify_mass_decay,
    verify_stage_scan,
    verify_stage_stability,
    verify_tail_estimate,
)
from .matching import (
    FarFieldReport,
    HarnessConfig,
    HarnessConfigError,
    LumpDecomposition,
    MatchReport,
    OriginIdentityCheck,
    disagreement_product,
    far_field_check,
    lump_decompose,
    match_close,
    origin_product_identity,
    sparsity_bound,
)
from .measures import (
    Atom,
    DiscreteMeasure,
    Interval,
    WindowError,
    averaging_radius,
    combine,
    make_measure,
    rational,
    restrict,
    sliding_count_sup,
    sliding_variation_sup,
)
from .piecewise import (
    AlmostPeriodCertificate,
    FaithfulnessError,
    PiecewiseLinearFn,
    almost_period_certificate,
    almost_period_defect,
    bump,
    convolution_rows,
    convolution_sup,
    convolution_value,
    triangle_test_function,
)

__version__ = "0.1.0"
