#!/usr/bin/env python3
"""Entry point of the layered stack benchmark (see README.md).

    python3 benchmarks/stack/run.py --workload dense_scene --seed 12 \
        --seconds 20 --trace 0
"""

import os
import sys
import time

_STARTED = time.perf_counter()

if os.environ.get("PYTHONHASHSEED") != "0":
    # Set iteration order (and with it Python call counts and checkpoint
    # bytes) must repeat from run to run.
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable] + sys.argv)

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
sys.path[:0] = [_HERE, os.path.join(_ROOT, "src")]

from stackbench import cli  # noqa: E402  (needs the path set above)

if __name__ == "__main__":
    sys.exit(cli.main(sys.argv[1:], started=_STARTED, root=_ROOT))
