"""Compare two ``tools/dump_outputs.py`` files label by label.

    python3 tools/compare_dumps.py OLD.json NEW.json

Prints how many labels hold byte-identical results in both files, how many
changed, how many only NEW has and how many only OLD has, then one line per
label that is not identical. Exits 1 when a label changed or was removed,
else 0, so a refactor that only adds labels passes.
"""

import json
import sys


def compare(old_path, new_path):
    """Labels of the two dumps as (identical, changed, new, removed) lists."""
    with open(old_path) as fh:
        old = dict(json.load(fh))
    with open(new_path) as fh:
        new = dict(json.load(fh))
    identical = [label for label in old if new.get(label) == old[label]]
    changed = [label for label in old if label in new and new[label] != old[label]]
    added = [label for label in new if label not in old]
    removed = [label for label in old if label not in new]
    return identical, changed, added, removed


def main(old_path, new_path):
    identical, changed, added, removed = compare(old_path, new_path)
    print(f"{len(identical)} identical, {len(changed)} changed, "
          f"{len(added)} new, {len(removed)} removed")
    for kind, labels in (("changed", changed), ("new", added), ("removed", removed)):
        for label in labels:
            print(f"{kind}: {label}")
    return 1 if changed or removed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: compare_dumps.py OLD.json NEW.json")
    sys.exit(main(sys.argv[1], sys.argv[2]))
