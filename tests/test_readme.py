"""README.md's code examples run against this checkout, so no public name can leave under them."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import lpdens

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.DOTALL | re.MULTILINE)


def test_readme_examples_run():
    (quick_start,) = _blocks("python")
    src = str(Path(lpdens.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", quick_start], capture_output=True, text=True,
                         timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    _, p_value = map(float, run.stdout.split())
    assert 0.0 <= p_value <= 1.0

    (design,) = _blocks("json")
    assert lpdens.SimDesign.from_dict(json.loads(design)).dgp.name == "exponential"
