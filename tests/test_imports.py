"""Start-up cost: the package re-exports its names lazily, and each CLI
command runs only the library modules it uses.  Which modules a command
runs is read in a fresh interpreter, since this one has them all."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import apmeasure
from apmeasure.serialize import save_measure
from helpers import integer_comb, perturbed_comb

SRC = Path(apmeasure.__file__).resolve().parents[1]

# the report a fresh child prints: its exit code, the apmeasure modules in sys.modules and
# those of them that ran (a lazily registered module is a LazyLoader stub until its first use)
RUN_MAIN = """
import contextlib, io, json, sys, types
from apmeasure import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
ours = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "apmeasure"}
print(json.dumps([code, sorted(ours), sorted(n for n, m in ours.items()
                                             if type(m) is types.ModuleType)]))
"""


def fresh(script, *argv, **env):
    """What `script` prints as JSON when run with `argv` in a fresh interpreter on this source."""
    child_env = {k: v for k, v in os.environ.items() if k != "APMEASURE_ATOM_CAP"}
    child_env.update(env, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=child_env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


BASE = ["apmeasure", "apmeasure.cli"]
EXPANSION = [*BASE, "apmeasure.construction", "apmeasure.measures"]
# every layer is in sys.modules once the CLI is imported, as code that wraps them expects
LAYERS = [*EXPANSION, "apmeasure.matching", "apmeasure.piecewise", "apmeasure.serialize"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    work = tmp_path_factory.mktemp("imports")
    save_measure(integer_comb(-3, 3), work / "mu.json")
    save_measure(perturbed_comb(-3, 3), work / "nu.json")
    return work


@pytest.mark.parametrize("argv, env, code, loaded", [
    (["--help"], {}, 0, BASE),
    (["verify", "x"], {}, 2, BASE),
    (["verify", "2"], {"APMEASURE_ATOM_CAP": "0"}, 2, BASE),
    (["verify", "2"], {}, 0, EXPANSION),
    (["build", "1", "--out", "{work}/s1.json"], {}, 0, [*EXPANSION, "apmeasure.serialize"]),
    (["ap", "2", "--epsilon", "1/10", "--range", "9"], {}, 0, [*EXPANSION, "apmeasure.piecewise"]),
    (["lump", "--mu", "{work}/mu.json", "--nu", "{work}/nu.json", "--v", "1/4"], {}, 0,
     [*EXPANSION, "apmeasure.matching", "apmeasure.piecewise", "apmeasure.serialize"]),
], ids=["help", "usage-error", "bad-env-cap", "verify", "build", "ap", "lump"])
def test_command_runs_only_its_modules(argv, env, code, loaded, files):
    argv = [arg.format(work=files) for arg in argv]
    assert fresh(RUN_MAIN, *argv, **env) == [code, sorted(LAYERS), sorted(loaded)]


EXPORTS = sorted("""
    AlmostPeriodCertificate Atom AtomBudgetError ClusterCertificate DiscreteMeasure
    FaithfulnessError FarFieldReport HarnessConfig HarnessConfigError Interval LumpDecomposition
    MatchReport OriginIdentityCheck PiecewiseLinearFn StageScan StageStabilityError WindowError
    almost_period_certificate almost_period_defect averaging_radius build_stage bump
    cluster_certificate combine convolution_rows convolution_sup convolution_value
    disagreement_product far_field_check limit_window lump_decompose make_measure match_close
    origin_product_identity projected_atom_count provenance radius_series_tail_bound rational
    restrict sliding_count_sup sliding_variation_sup sparsity_bound stage_window
    triangle_test_function verify_mass_decay verify_stage_scan verify_stage_stability
    verify_tail_estimate""".split())


def test_package_import_loads_no_submodule():
    script = ('import json, sys, apmeasure\n'
              'print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "apmeasure")))')
    assert fresh(script) == ["apmeasure"]


def test_package_exports():
    assert len(EXPORTS) == 48 and sorted(apmeasure.__all__) == EXPORTS
    assert set(EXPORTS) <= set(dir(apmeasure))
    namespace = {}
    exec("from apmeasure import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTS
    assert apmeasure.build_stage is apmeasure.construction.build_stage
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        apmeasure.no_such_name
