"""tools/dump_outputs.py: it runs against this checkout and writes the same bytes every run."""

import subprocess
import sys
from pathlib import Path

import lpdens

REPO = Path(__file__).resolve().parents[1]


def test_dump_outputs_is_deterministic(tmp_path):
    # a public rename would break the tool; an output that varies between runs
    # would make its before/after `cmp` meaningless
    src = str(Path(lpdens.__file__).resolve().parents[1])
    outs = [tmp_path / f"dump{i}.json" for i in range(2)]
    for out in outs:
        subprocess.run([sys.executable, str(REPO / "tools" / "dump_outputs.py"), src, str(out)],
                       check=True, capture_output=True, timeout=300)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert outs[0].stat().st_size > 0
