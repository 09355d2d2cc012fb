"""Every name a library module imports, the package's __init__ included,
is referenced in that module; and the package's public names, which its
__init__ imports from their modules on first use."""

import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import conformal_metrics

PACKAGE = Path(conformal_metrics.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    referenced = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)}
    unused = [name for name in _imported_names(tree)
              if name not in referenced]
    assert not unused, f"{path.name} imports {unused} and never uses them"


# the package's public names, by the module that defines each
_PUBLIC = {
    "domains": "Domain boundary_distance contains hyperbolic_density "
               "koebe_slit_plane log_strip punctured_disk slit_disk unit_disk "
               "upper_half_plane",
    "errors": "ConformalMetricsError IncompatibleCompositionError "
              "InvalidParameterError MapNotUnivalentError NoDensityRouteError "
              "NotLocallyUnivalentError OutsideDomainError QuadratureError "
              "SingularPointError",
    "jets": "Jet3 compose pre_schwarzian scale schwarzian",
    "maps": "AnalyticMap cayley_map compose_maps identity_map "
            "image_boundary_distance koebe_map log_slit_map make_catalog_map "
            "mobius_map parse_map_spec power_map punctured_disk_covering_map "
            "pushforward_density",
    "metrics": "Polyline SolverConfig hyperbolic_distance path_quadrature "
               "quasihyperbolic_distance quasihyperbolic_distance_detailed",
    "verify": "BOUND_KINDS BoundReport SampleSet check_composition_laws "
              "check_covering_identity check_distance_comparison "
              "check_log_construction check_pointwise_bounds "
              "distortion_ratio estimate_uniformity_constant "
              "punctured_disk_ratio",
}


def test_public_names_are_their_modules_objects():
    names = [(module, name) for module, text in _PUBLIC.items()
             for name in text.split()]
    assert conformal_metrics.__all__ == [name for _, name in names]
    assert set(conformal_metrics.__all__) <= set(dir(conformal_metrics))
    for module, name in names:
        value = getattr(conformal_metrics, name)
        assert value is getattr(import_module(f"conformal_metrics.{module}"),
                                name)
        assert vars(conformal_metrics)[name] is value  # resolved once
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        conformal_metrics.nosuch
    with pytest.raises(ImportError):
        from conformal_metrics import nosuch  # noqa: F401


def test_importing_the_package_loads_none_of_its_modules():
    # a submodule is still an attribute of the package, imported on use
    src = Path(conformal_metrics.__file__).resolve().parent.parent
    code = ("import sys, conformal_metrics; print(sorted(m for m in "
            "sys.modules if m.startswith('conformal_metrics.'))); "
            "print(conformal_metrics.maps.__name__)")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (
        0, "[]\nconformal_metrics.maps\n"), proc.stderr
