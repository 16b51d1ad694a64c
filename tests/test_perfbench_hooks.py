"""The benchmark's tracer hooks library functions by name, and a hook
whose target is gone is skipped with its metrics reading 0.  This loads
``perfbench/tracer.py`` as it is, so a renamed hook target fails here
and not only in the separate ``pytest perfbench`` run."""

import importlib.util
import pathlib

import manifold_descent as md
import manifold_descent.cli  # noqa: F401  (the tracer hooks cli.main)

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_perfbench_hook_finds_its_target_and_uninstalls():
    tracer = _load_tracer()
    t = tracer.Tracer(md)
    t.install()
    try:
        assert t.missing == []
    finally:
        t.uninstall()
    assert tracer.installed_wrappers(md) == []
