"""The benchmark's tracer (``perfbench/tracer.py``) still binds every spdcl function it wraps.

The tracer names its functions at import, as module attributes, and wraps
them wherever a loaded ``spdcl`` module holds them.  A library change that
removes or renames one of them fails here, not only in the benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_installs_and_uninstalls_over_the_library():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # an AttributeError names a traced function that is gone
    traced = tracer.SPAN_FUNCTIONS + tracer.COUNTED_FUNCTIONS
    modules = {name: dict(vars(mod)) for name, mod in sys.modules.items() if name.split(".")[0] == "spdcl"}
    t = tracer.Tracer()
    try:
        t.install()
        # Every traced function is held by some spdcl module, and is wrapped there.
        assert {id(value) for _, _, value in t._patched} == {id(fn) for fn in traced}
    finally:
        t.uninstall()
    for name, before in modules.items():
        after = vars(sys.modules[name])
        assert all(after[attr] is value for attr, value in before.items()), name
