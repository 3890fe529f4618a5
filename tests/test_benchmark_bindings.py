"""The frozen benchmark still binds and runs the spdcl names it calls.

The tracer (``perfbench/tracer.py``) names its functions at import, as
module attributes, and wraps them wherever a loaded ``spdcl`` module holds
them.  The workloads (``perfbench/workloads.py``) call ``trainer.TrainHyper``,
``RunConfig.curriculum``, ``run_spdcl`` / ``run_baseline``, ``cli.main`` and
the ``synth`` and ``io`` helpers.  A library change that removes or renames
one of them, or changes its signature, fails here, not only in the
benchmark run.
"""

import importlib.util
import sys
import warnings
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)  # an AttributeError or ImportError names a spdcl name that is gone
    return module


def test_tracer_installs_and_uninstalls_over_the_library():
    tracer = load("perfbench_tracer", PERFBENCH / "tracer.py")
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


@pytest.mark.parametrize("workload", ["zipf-curriculum", "bigvocab-baseline", "rescore-cli"])
def test_each_workload_runs_one_tiny_pass(workload, tmp_path):
    workloads = load("perfbench_workloads", PERFBENCH / "workloads.py")
    work = tmp_path / "work"
    workloads.generate_inputs(workload, "tiny", 1, work)
    wl = workloads.make_workload(workload, work)
    with warnings.catch_warnings():
        # rescore-cli's set-up counts the training lines through a file it
        # never closes; that handle is the benchmark's, not the library's.
        warnings.simplefilter("ignore", ResourceWarning)
        wl.setup_once()
    result = wl.run_pass(tmp_path / "out")
    assert result.epoch_ok == [True] * wl.config.epochs_T
    assert result.final_macro_f1 is not None
