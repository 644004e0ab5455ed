"""End-to-end and per-layer benchmark for ``run_superpin``.

Run it from the repository root::

    python3 perfbench/run.py --workload gcc-icount2 --seed 103 \
        --seconds 40 --trace 0

See ``perfbench/bench.py`` for the metrics and ``perfbench/workloads.py``
for why each workload was chosen.
"""
