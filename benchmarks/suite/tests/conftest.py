"""Make the benchmark's modules importable by their file names.

Run with ``PYTHONPATH=src python -m pytest benchmarks/suite/tests``.
"""

import pathlib
import sys

SUITE = pathlib.Path(__file__).resolve().parent.parent
if str(SUITE) not in sys.path:
    sys.path.insert(0, str(SUITE))
