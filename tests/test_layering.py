"""The package's import graph, read from the source with `ast`: it has no
cycle; `sources` imports no package module but `rng`, so the sync clock,
which reads the emission lattice, stays in `correlator`; and the fit
engine, `nlsq`, imports none but `errors`, so it knows no physics model.
The package's public names are pinned here too: a name joins or leaves
them only with a diff to this file."""

import ast
from pathlib import Path

import photon_correlator

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "photon_correlator"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _imported(node):
    """The package modules one import statement reads, `__init__` for the
    package itself."""
    if isinstance(node, ast.Import):
        paths = [alias.name.split(".") for alias in node.names]
        return {path[1] if len(path) > 1 else "__init__"
                for path in paths if path[0] == PACKAGE.name}
    path = node.module.split(".") if node.module else []
    if node.level == 0:
        if path[:1] != [PACKAGE.name]:
            return set()
        path = path[1:]
    if path:
        return {path[0]}
    # `from . import x` reads module x, or a name the package itself exports
    return {alias.name if alias.name in MODULES else "__init__" for alias in node.names}


def package_imports():
    """module -> the package modules it imports, at any depth in its code"""
    return {path.stem: set().union(*(_imported(node)
                                     for node in ast.walk(ast.parse(path.read_text()))
                                     if isinstance(node, (ast.Import, ast.ImportFrom))))
            for path in PACKAGE.glob("*.py")}


def find_cycle(graph):
    """A list of modules, each importing the next and the last the first,
    or None."""
    state, path = {}, []

    def visit(module):
        state[module] = "open"
        path.append(module)
        for dep in sorted(graph.get(module, ())):
            if state.get(dep) == "open":
                return path[path.index(dep):]
            if dep not in state and (cycle := visit(dep)):
                return cycle
        state[module] = "done"
        path.pop()
        return None

    for module in sorted(graph):
        if module not in state and (cycle := visit(module)):
            return cycle
    return None


def test_cycle_finder_finds_cycles():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) is None
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c"]
    assert find_cycle({"a": {"a"}}) == ["a"]


def test_import_reader_sees_every_form():
    tree = ast.parse("from . import rng\nfrom .correlator import x\n"
                     "import photon_correlator.timetags\nfrom photon_correlator import y\n"
                     "from photon_correlator.errors import z\nimport numpy\n"
                     "def f():\n    from .sources import w\n")
    found = set().union(*(_imported(node) for node in ast.walk(tree)
                          if isinstance(node, (ast.Import, ast.ImportFrom))))
    assert found == {"rng", "correlator", "timetags", "__init__", "errors", "sources"}


def test_package_imports_form_no_cycle():
    graph = package_imports()
    assert graph["pipelines"]  # the reader sees the package's imports at all
    assert find_cycle(graph) is None


def test_sources_imports_only_rng():
    assert package_imports()["sources"] <= {"rng"}


def test_nlsq_imports_only_errors():
    assert package_imports()["nlsq"] <= {"errors"}


PUBLIC_NAMES = {
    "AnalysisError", "BiasCurvePoint", "ConfigError", "DECalibrationPoint",
    "DetectorModel", "FormatError", "G2Estimate", "Histogram", "HistogramConfig",
    "Mode", "PoissonLaserModel", "PulsedSourceModel", "RunConfig", "SplitRatio",
    "TagStream", "bias_lookup", "de_model", "decay_model", "fit_de", "fit_lifetime",
    "fwhm_to_sigma", "g2_zero", "load_config", "measure_irf", "parse_config_text",
    "peak_fwhm", "pulse_period_ps", "read_bias_curve", "read_de_sweep",
    "read_histogram_csv", "read_tags", "reverse_start_stop", "sigma_to_fwhm",
    "solve_photon_stats", "tac_histogram", "write_bias_curve", "write_de_sweep",
    "write_histogram_csv", "write_tags",
}


def test_public_names_are_pinned():
    assert set(photon_correlator.__all__) == PUBLIC_NAMES
    assert len(photon_correlator.__all__) == len(PUBLIC_NAMES)  # each once
    namespace = {}
    exec("from photon_correlator import *", namespace)
    assert namespace.keys() - {"__builtins__"} == PUBLIC_NAMES
