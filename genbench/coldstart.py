"""One cold start: a fresh interpreter imports genpi from the checkout's
src/ and loads one workload's inputs.

    python3 genbench/coldstart.py <workload>
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (needs src/ on the path first)

workloads.load(sys.argv[1], ROOT)
