"""Exact rational arithmetic for discrete point measures on the real line.

The package builds a self-similar averaged lattice measure stage by stage,
certifies each inequality its construction relies on, performs exact
piecewise-linear convolution and almost-period defect measurements, and
runs point-set matching together with the smoothed-difference product
harness.  There is no floating point anywhere on the certified paths.

The names below are re-exported lazily (PEP 562): `import apmeasure` loads
no submodule, and a name's module loads on its first use, so a command
pays only for the modules it runs.
"""

from importlib import import_module

_EXPORTS = {  # module: the names re-exported from it
    "construction": """AtomBudgetError ClusterCertificate StageScan StageStabilityError
        build_stage cluster_certificate limit_window projected_atom_count provenance
        radius_series_tail_bound stage_window verify_mass_decay verify_stage_scan
        verify_stage_stability verify_tail_estimate""",
    "matching": """FarFieldReport HarnessConfig HarnessConfigError LumpDecomposition MatchReport
        OriginIdentityCheck disagreement_product far_field_check lump_decompose match_close
        origin_product_identity sparsity_bound""",
    "measures": """Atom DiscreteMeasure Interval WindowError averaging_radius combine make_measure
        rational restrict sliding_count_sup sliding_variation_sup""",
    "piecewise": """AlmostPeriodCertificate FaithfulnessError PiecewiseLinearFn
        almost_period_certificate almost_period_defect bump convolution_rows convolution_sup
        convolution_value triangle_test_function""",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_SOURCE)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
