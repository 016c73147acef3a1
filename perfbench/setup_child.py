"""Set-up time of a fresh process: `import eventfdi` plus config resolution.

Reads a scenario payload as JSON on stdin, then times the import and
`config_from_dict`. Afterwards it times the machine-speed reference (see
speed.py) in the same process, and prints both times in seconds. Usage:

    python3 perfbench/setup_child.py <src directory> < payload.json
"""

import json
import os
import sys
import time

payload = json.load(sys.stdin)
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import eventfdi  # noqa: E402

eventfdi.config_from_dict(payload)
seconds = time.perf_counter() - start
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import speed  # noqa: E402

print(repr(seconds), repr(speed.reference_seconds()))
