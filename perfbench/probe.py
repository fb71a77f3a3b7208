"""Set-up probe: `contda run <config>` up to the call of `run_config`.

Prints the wall-clock time (`time.time()`) at which `run_config` would
start and exits without running it, so the parent can time interpreter
start, the contda and NumPy imports and config validation.

    python3 perfbench/probe.py CONFIG.json
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from contda import cli  # noqa: E402


def _stop(cfg):
    print(repr(time.time()), flush=True)
    raise SystemExit(0)


cli.run_config = _stop
sys.exit(cli.main(["run", sys.argv[1]]))
