"""The benchmark's traced mode wraps named engine entry points.

``perfbench/layers.py`` attributes host time to layers by patching
functions such as ``Jit.compile``, ``SourceJit.compile_warm`` and
``runtime.supervise_slices`` for the duration of a traced run.  Renaming
or deleting any of them breaks ``perfbench/run.py --trace 1``; this test
says so without running the benchmark.
"""

from perfbench import layers


def test_every_wrapped_name_exists():
    for targets in layers.LAYERS.values():
        for owner, attr in targets:
            assert callable(getattr(owner, attr, None)), (owner, attr)


def test_install_wraps_and_restores():
    originals = [(owner, attr, getattr(owner, attr))
                 for targets in layers.LAYERS.values()
                 for owner, attr in targets]
    clock = layers.LayerClock()
    try:
        with clock.installed():
            for owner, attr, original in originals:
                assert getattr(owner, attr) is not original
    finally:
        clock.close()
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original
