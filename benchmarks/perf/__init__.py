"""The promise manager's performance benchmark.

Four closed-loop workloads over loopback TCP, seven bounded end-to-end
metrics plus a failure count and an anomaly count, and a per-layer
budget timed from outside the program.  ``README.md`` in this directory
has the workload, metric and interaction tables; ``BENCHMARK.json`` at
the repository root is the machine-readable contract.

Run the whole set with ``PYTHONPATH=src python -m benchmarks.perf``, or
one measured run the way the driver does::

    python3 benchmarks/perf/__main__.py --workload serial_pairs \\
        --seed 1 --seconds 20 --trace 0
"""
