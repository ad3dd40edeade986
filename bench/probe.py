"""One set-up measurement in a fresh interpreter: import lpdens, load the inputs.

    python3 probe.py SRC_DIR WORKLOAD INPUT_FILE...

Prints {"import_s": ..., "load_s": ...} as one JSON line.
"""

import json
import sys
import time

sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import lpdens  # noqa: E402

t1 = time.perf_counter()
import workloads  # noqa: E402

wl = workloads.WORKLOADS[sys.argv[2]](sys.argv[3:])
t2 = time.perf_counter()
wl.load(lpdens)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t3 - t2}))
