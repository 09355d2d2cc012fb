"""The benchmark's per-layer metrics come from perfbench/tracer.py, which
wraps library functions by name.  A stage none of whose functions exists is
reported absent and its metrics read 0 without failing, so a rename or a
deletion in the library is caught here instead.  The grid stage is gone
with the solver's grid start; every other stage must still find its
functions.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_stage_finds_a_library_function():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.Tracer().absent == ["metrics.grid"]
