"""The benchmark's tracer wraps package functions by the attribute their
callers look up.  A refactor that moves one of those names must fail here,
not in the benchmark run."""
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize(
    "owner, attr", [(h[0], h[1]) for h in tracer.SPAN_HOOKS], ids=lambda v: str(v)
)
def test_span_hook_resolves(owner, attr):
    # the tracer reads the attribute from the owner's own namespace
    assert callable(tracer._resolve(owner).__dict__[attr])


@pytest.mark.parametrize("attr", ["_sample_indices", "apply_gate"])
def test_simulator_seam_resolves(attr):
    assert callable(tracer._resolve("qregress.simulator").__dict__[attr])
