"""Every name a module exports through ``__all__`` resolves, and names
that were removed stay removed.

A name that moves between modules can leave a stale entry behind in the
package root or in its old module; ``from fracfield import *`` would then
fail while ordinary imports of other names keep working.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import fracfield
import oracle

# The package's modules, and the test oracles' module beside the tests.
MODULES = ["fracfield"] + sorted(
    f"fracfield.{info.name}"
    for info in pkgutil.iter_modules(fracfield.__path__)) + ["oracle"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


# The names the benchmark's output checks import from the package root.
BENCHMARK_IMPORTS = ("EquationKind", "GridFunction", "PointGrid", "conv_cov",
                     "initial_term_grid", "make_drift", "make_initial_data",
                     "mild_residual")


@pytest.mark.parametrize("name", BENCHMARK_IMPORTS)
def test_root_exports_benchmark_imports(name):
    assert name in fracfield.__all__
    assert hasattr(fracfield, name)


def test_quasilinear_solves_through_solve_replicates():
    # The traced benchmark wraps quasilinear's binding of solve_F, if it
    # has one; solve_replicates returns the fields and a MarchRecord.
    from fracfield import quasilinear
    assert hasattr(quasilinear, "solve_replicates")
    assert not hasattr(quasilinear, "solve_F")


# The march replaced the Picard loop: its record, its contraction ratio,
# and the tolerance and budget that selected nothing are gone.
@pytest.mark.parametrize("module, name", [
    ("fracfield", "PicardInfo"),
    ("fracfield.det_solver", "PicardInfo"),
    ("fracfield.det_solver", "_contraction_ratio"),
    ("fracfield.det_solver", "_picard_step"),
])
def test_picard_loop_is_gone(module, name):
    mod = importlib.import_module(module)
    assert name not in mod.__all__
    assert not hasattr(mod, name)


# One NumericalError reports every failed march and every failed
# factorization, with what it found in its message.
@pytest.mark.parametrize("name", ["MaxIterExceededError", "NotPsdError"])
@pytest.mark.parametrize("module", ["fracfield", "fracfield.errors"])
def test_numerical_error_subclasses_are_gone(module, name):
    mod = importlib.import_module(module)
    assert name not in mod.__all__
    assert not hasattr(mod, name)


def test_solver_controls_are_gone():
    names = {f.name for f in dataclasses.fields(fracfield.SimulationConfig)}
    assert not names & {"tol", "max_iter"}
    params = inspect.signature(fracfield.solve_replicates).parameters
    assert not set(params) & {"tol", "max_iter"}
    assert "MarchRecord" in fracfield.__all__


def test_test_oracles_are_not_installed():
    # Every run-time quantity is a closed form.  The quadrature engine and
    # the solver's Volterra and Picard routes are the tests' independent
    # checks, and live in tests/oracle.py, not in the package.
    for name in ("fracfield.oracle", "fracfield.quadrature"):
        assert importlib.util.find_spec(name) is None
    assert {"spectral_integral", "ode_oracle", "picard_oracle",
            "replicate_stream", "standard_normals"} <= set(oracle.__all__)


def _module_level_imports(tree):
    """The modules a test file imports, or asks pytest.importorskip for,
    outside the bodies of its functions."""
    names = []
    nodes = list(ast.iter_child_nodes(tree))
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.append(node.module)
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "attr", None) == "importorskip"
              and node.args and isinstance(node.args[0], ast.Constant)):
            names.append(node.args[0].value)
        nodes.extend(ast.iter_child_nodes(node))
    return names


@pytest.mark.parametrize("path", sorted(
    Path(__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_scipy_is_imported_only_inside_tests(path):
    # Without scipy every test module must still collect, so that only
    # the tests that call scipy skip (pytest.importorskip in their body).
    names = _module_level_imports(ast.parse(path.read_text()))
    assert not [n for n in names if n.split(".")[0] == "scipy"]


# Test oracles live with the tests, not in the run-time modules.
@pytest.mark.parametrize("module, name", [
    ("fracfield", "ode_oracle"),
    ("fracfield", "fit_hoelder_mc"),
    ("fracfield.det_solver", "ode_oracle"),
    ("fracfield.det_solver", "picard_oracle"),
    ("fracfield.analysis", "fit_hoelder_mc"),
    ("fracfield.analysis", "_lag_pairs"),
    ("fracfield", "replicate_stream"),
    ("fracfield", "standard_normals"),
    ("fracfield.sampler", "replicate_stream"),
    ("fracfield.sampler", "standard_normals"),
    ("fracfield.sampler", "_uniforms"),
])
def test_test_oracles_left_the_run_time_modules(module, name):
    mod = importlib.import_module(module)
    assert name not in mod.__all__
    assert not hasattr(mod, name)


@pytest.mark.parametrize("module", [m for m in MODULES if m != "oracle"])
def test_one_stream_route(module):
    # sample_field seeds every replicate's PCG64 itself; numpy's
    # per-replicate Generator route is the tests' oracle.
    mod = importlib.import_module(module)
    assert not {"Generator", "SeedSequence", "default_rng"} & set(vars(mod))


def test_seed_hash_has_one_method():
    from fracfield.sampler import _Hash
    assert "__call__" not in vars(_Hash)
    assert callable(_Hash.rows)


def test_analysis_does_not_sample():
    from fracfield import analysis
    for name in ("factor_psd", "sample_field", "cov_matrix"):
        assert not hasattr(analysis, name)


# Result fields that only echoed a call's inputs, and a property that
# only a test read, are gone too.
@pytest.mark.parametrize("cls, gone", [
    ("DriftSpec", {"truncation_level"}),
    ("PsdFactor", {"points"}),
    ("FieldSample", {"points", "master_seed"}),
    ("SimulationResult", {"points"}),
    ("DriftSpec", {"bound"}),
    ("SimulationConfig", {"truncation_ladder"}),
    ("SimulationResult", {"config"}),
    ("LadderResult", {"config"}),
    ("HContinuityResult", {"eqn"}),
    ("LemmaReport", {"kind", "eqn", "horizon"}),
    ("HContinuityResult", {"reference", "pairs"}),
    ("LemmaReport", {"hurst"}),
])
def test_unread_fields_are_gone(cls, gone):
    from fracfield import analysis
    owner = getattr(fracfield if hasattr(fracfield, cls) else analysis, cls)
    names = {f.name for f in dataclasses.fields(owner)}
    assert not names & gone
    assert not [name for name in gone if hasattr(owner, name)]


# The increment-bound constant dispatcher, the one-point
# Kolmogorov-Smirnov distance and the names that only tests read are
# gone.
@pytest.mark.parametrize("module, name", [
    ("fracfield", "LemmaConstantKind"),
    ("fracfield", "lemma_constant"),
    ("fracfield.spectral", "LemmaConstantKind"),
    ("fracfield.spectral", "lemma_constant"),
    ("fracfield", "marginal_distance"),
    ("fracfield.analysis", "marginal_distance"),
    ("fracfield.analysis", "_ndtr"),
    ("fracfield.report", "sha256_of"),
    ("fracfield.spectral", "_check_alpha_horizon"),
    ("fracfield.det_solver", "INITIAL_KINDS"),
])
def test_unused_constants_and_distances_are_gone(module, name):
    mod = importlib.import_module(module)
    assert name not in mod.__all__
    assert not hasattr(mod, name)


def test_drift_is_only_lipschitz():
    # The solvers assume a globally Lipschitz drift and nothing more.
    names = [f.name for f in dataclasses.fields(fracfield.DriftSpec)]
    assert names == ["func", "lipschitz_constant", "name"]
    assert not hasattr(fracfield.DriftSpec, "is_bounded")


# Points are one (k, 2) node array, and one forcing is a stack of one for
# solve_replicates: the point class, its converter, the grid's list of
# point tuples and the one-forcing solve wrapper are gone.
@pytest.mark.parametrize("module, name", [
    ("fracfield", "SpaceTimePoint"),
    ("fracfield.covariance", "SpaceTimePoint"),
    ("fracfield.covariance", "_as_point"),
    ("fracfield.analysis", "SpaceTimePoint"),
    ("fracfield.analysis", "_as_point"),
    ("fracfield", "solve_F"),
    ("fracfield.det_solver", "solve_F"),
])
def test_point_class_and_one_forcing_solve_are_gone(module, name):
    mod = importlib.import_module(module)
    assert name not in getattr(mod, "__all__", ())
    assert not hasattr(mod, name)


# Initial data are registry profiles with closed-form terms: the Gauss
# rules that integrated other callables, and the probe that checked them,
# are gone.
@pytest.mark.parametrize("name", ["_v0_span", "_legendre_rules",
                                  "_HERMITE_NODES", "_HERMITE_WEIGHTS",
                                  "_PROBE_X"])
def test_initial_data_quadrature_is_gone(name):
    from fracfield import det_solver
    assert not hasattr(det_solver, name)


def test_solver_imports_no_gauss_rules_or_sampler():
    tree = ast.parse(Path(fracfield.__file__).with_name(
        "det_solver.py").read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    imported += [("." * node.level) + (node.module or "")
                 for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert not [n for n in imported if n.startswith("numpy.polynomial")
                or n in (".sampler", "fracfield.sampler")]


def test_grid_gives_node_arrays_not_point_tuples():
    assert not hasattr(fracfield.PointGrid, "points")
    assert callable(fracfield.PointGrid.nodes)
