"""Record one pass of every workload at the default seed into reference.json.

    python3 bench/record.py

The runner compares every call made at the default seed with these
records. Re-record only in a change that means to alter lpdens's outputs.
"""

import json
import os
import shutil
import sys

import run


def main():
    sys.path.insert(0, str(run.SRC))
    import lpdens
    import workloads

    workdir = run.ROOT / ".bench_work" / f"record-{os.getpid()}"
    workdir.mkdir(parents=True)
    reference = {}
    try:
        for name in run.WORKLOADS:
            cls = workloads.WORKLOADS[name]
            wl = cls(cls.generate(run.DEFAULT_SEED, workdir))
            wl.load(lpdens)
            wl.prepare(lpdens)
            calls = run.run_pass(wl, lpdens, None).calls
            untyped = [c.untyped for c in calls if c.untyped]
            if untyped:
                sys.exit(f"untyped errors in {name}: {untyped}")
            reference[name] = [c.record for c in calls]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is using it
            pass
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
