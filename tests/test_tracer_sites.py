"""Every name the benchmark tracer wraps still exists where it looks, so a
change that drops or moves one fails here, by name, in seconds, and not as
a failed benchmark run."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()
# the sites it wraps besides SPAN_SITES: candidate counts and beam steps
SITES = [(module, attribute) for _, module, attribute in tracer.SPAN_SITES] + [
    ("kgdial.pipeline", "collect_candidates"),
    ("kgdial.generate", "ToyGenerator._step_forward"),
]


@pytest.mark.parametrize("module,attribute", SITES,
                         ids=[f"{m}.{a}" for m, a in SITES])
def test_wrapped_name_resolves_in_its_owner(module, attribute):
    owner, name = tracer._resolve(module, attribute)
    assert name in owner.__dict__, f"{module}.{attribute} is gone"
