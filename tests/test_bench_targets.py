"""Every name the benchmark's layer tracer wraps still exists.

``perfbench/layers.py`` wraps the functions and methods it lists by name
(``subspace.orthonormal_columns``, ``Subspace.__init__``, ...).  A refactor
that renames or deletes one of them breaks the traced benchmark pass;
building the tracer here makes it fail the tests instead.  The tracer is
only constructed, never installed.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("_bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_tracer_finds_every_target():
    layers = _load_layers()
    tracer = layers.Tracer()
    wrapped = {patch[3].__name__ for patch in tracer._patches}
    for layer, targets in layers.LAYERS.items():
        for target in targets:
            assert target.split(".")[-1] in wrapped, f"{layer}.{target}"


def test_tracer_leaves_the_package_alone():
    import extgauss.subspace as subspace

    before = subspace.orthonormal_columns
    _load_layers().Tracer()
    assert subspace.orthonormal_columns is before
