"""Every name that perfbench's tracer wraps exists, so deleting one fails here,
not only in a `run.py --trace 1` run.  The tracer imports only the stdlib."""

import importlib
import importlib.util
from pathlib import Path

from polarvol import rng, volume

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    missing = [
        f"{layer}.{name}"
        for layer, names in tracer.WRAPPED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"polarvol.{layer}"), name, None))
    ]
    missing += [f"RngStream.{name}" for name in tracer.RNG_METHODS if not callable(getattr(rng.RngStream, name, None))]
    assert not missing, missing
    assert callable(volume._run_chunks)
