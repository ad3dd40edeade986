"""Compare two ``tools/dump_outputs.py`` files label by label.

    python3 tools/compare_dumps.py OLD.json NEW.json

Prints how many labels hold byte-identical results in both files, how many
changed, how many only NEW has and how many only OLD has, then one line per
label that is not identical. A changed label whose results differ only in
their numbers shows the largest |old - new| over the largest |old| number of
the label; any other difference is marked ``text differs``. Exits 1 when a
label changed or was removed, else 0, so a refactor that only adds labels
passes.
"""

import json
import re
import sys

#: a number in a result's repr; digits inside a name such as ``x1`` do not count
NUMBER = re.compile(r"-?\b(?:\d+(?:\.\d*)?(?:e[-+]?\d+)?|inf|nan)\b")


def compare(old_path, new_path):
    """Labels of the two dumps as (identical, changed, new, removed) lists.

    Each changed entry is a (label, relative change) pair, the change being
    None when more than the numbers differ.
    """
    with open(old_path) as fh:
        old = dict(json.load(fh))
    with open(new_path) as fh:
        new = dict(json.load(fh))
    identical = [label for label in old if new.get(label) == old[label]]
    changed = [(label, relative_change(old[label], new[label]))
               for label in old if label in new and new[label] != old[label]]
    added = [label for label in new if label not in old]
    removed = [label for label in old if label not in new]
    return identical, changed, added, removed


def relative_change(old, new):
    """Largest |old - new| over the largest |old| number if only numbers differ, else None."""
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return None
    olds, news = NUMBER.findall(old), NUMBER.findall(new)
    moved = max(abs(float(x) - float(y)) for x, y in zip(olds, news) if x != y)
    return moved / (max(abs(float(x)) for x in olds) or 1.0)


def main(old_path, new_path):
    identical, changed, added, removed = compare(old_path, new_path)
    print(f"{len(identical)} identical, {len(changed)} changed, "
          f"{len(added)} new, {len(removed)} removed")
    for label, change in changed:
        note = "text differs" if change is None else f"numbers moved by {change:.1e} of the largest"
        print(f"changed: {label} ({note})")
    for kind, labels in (("new", added), ("removed", removed)):
        for label in labels:
            print(f"{kind}: {label}")
    return 1 if changed or removed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: compare_dumps.py OLD.json NEW.json")
    sys.exit(main(sys.argv[1], sys.argv[2]))
