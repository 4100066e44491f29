"""Entry point: ``python -m benchmarks.perf`` or ``python3 benchmarks/perf/__main__.py``.

The driver runs the second form from a bare checkout with no
``PYTHONPATH``, so the repository root and ``src/`` are put on the path
here before anything of the benchmark or the program is imported.
"""

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
if sys.path and os.path.abspath(sys.path[0]) == _HERE:
    # Run as a file: keep the benchmark's modules from shadowing others.
    del sys.path[0]
for _entry in (os.path.join(_ROOT, "src"), _ROOT):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.perf.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
