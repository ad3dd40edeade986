"""tools/dump_outputs.py writes the same bytes every run; tools/compare_dumps.py names what differs."""

import json
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


def test_compare_dumps_names_changed_labels(tmp_path):
    src = str(Path(lpdens.__file__).resolve().parents[1])
    dump = tmp_path / "dump.json"
    subprocess.run([sys.executable, str(REPO / "tools" / "dump_outputs.py"), src, str(dump)],
                   check=True, capture_output=True, timeout=300)
    entries = json.loads(dump.read_text())
    compare = [sys.executable, str(REPO / "tools" / "compare_dumps.py"), str(dump)]
    same = subprocess.run(compare + [str(dump)], capture_output=True, text=True, timeout=60)
    assert same.returncode == 0
    assert same.stdout.splitlines() == [f"{len(entries)} identical, 0 changed, 0 new, 0 removed"]

    label = entries[7][0]
    entries[7][1] += " "
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(entries))
    diff = subprocess.run(compare + [str(edited)], capture_output=True, text=True, timeout=60)
    assert diff.returncode == 1
    assert diff.stdout.splitlines() == [
        f"{len(entries) - 1} identical, 1 changed, 0 new, 0 removed",
        f"changed: {label} (text differs)"]

    # a label whose numbers alone moved reports the largest move over its largest number
    old = [["numbers", "{'h_p1': 0.5, 'se': [-2.0, 0.001]}"], ["text", "{'case_tag': 'cdf_interior'}"]]
    new = [["numbers", "{'h_p1': 0.5, 'se': [-2.0, 0.0015]}"], ["text", "{'case_tag': 'cdf_boundary'}"]]
    paths = []
    for name, dump in (("old.json", old), ("new.json", new)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(dump))
    moved = subprocess.run([sys.executable, str(REPO / "tools" / "compare_dumps.py"), *map(str, paths)],
                           capture_output=True, text=True, timeout=60)
    assert moved.returncode == 1
    assert moved.stdout.splitlines() == [
        "0 identical, 2 changed, 0 new, 0 removed",
        "changed: numbers (numbers moved by 2.5e-04 of the largest)",
        "changed: text (text differs)"]
