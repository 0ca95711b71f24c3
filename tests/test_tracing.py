"""The benchmark tracer still finds every csforge function it wraps."""

import importlib.util
from pathlib import Path

from csforge import boolean, cli, encoder, qam

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_patches_and_restores_its_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    owners = (boolean.BooleanPolynomial, cli, encoder, qam)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    try:
        # a name deleted from csforge fails here, as it would fail --trace 1
        tracing.instrument(tracer)
        patched = {(owner.__name__, name) for owner, names in zip(owners, before)
                   for name, value in names.items() if vars(owner)[name] is not value}
    finally:
        tracer.restore()
    assert {("csforge.qam", "encode_pair"), ("csforge.qam", "recursion_to_encoder"),
            ("BooleanPolynomial", "__init__"), ("csforge.cli", "is_gcp")} <= patched
    for owner, names in zip(owners, before):
        assert all(vars(owner)[name] is value for name, value in names.items())
