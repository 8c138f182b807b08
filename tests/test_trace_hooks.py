"""The benchmark's tracer patches qbench names that must keep existing.

``perfbench/tracing.py`` makes 42 patches, to qbench functions and methods
and to ``requests.Session.request``: each is replaced by a span-recording
wrapper for the length of a ``with Tracer()`` block.  Deleting or renaming any of those names makes every
traced benchmark run fail with ``AttributeError``; this test fails first.
"""
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
N_PATCHES = 42


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores_every_name():
    tracer = _load_tracing().Tracer()
    with tracer:
        patched = list(tracer._patches)
        assert len(patched) == N_PATCHES
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr} not patched"
    assert tracer._patches == []
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"
