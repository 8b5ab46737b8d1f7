"""Re-render the golden reports under tests/golden.

    python tests/render_goldens.py              # every file of the table
    python tests/render_goldens.py all_m2_p2_s7.json ...

Each report is run from its row of ``GOLDENS`` in test_acceptance.py, the
table the golden tests read, with one BLAS thread.  For each file the
script prints the check rows that moved (``moved_checks``) and rewrites
the file only if its bytes changed.  A moved row is a change of a pinned
residual: say which one moved, and by how much, wherever the change is
described.
"""

import os
import sys
from pathlib import Path

# before numpy is imported: the goldens are rendered with one BLAS thread
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from test_acceptance import GOLDEN, GOLDENS, golden_report, golden_text, moved_checks  # noqa: E402


def main(names) -> int:
    for name in names or sorted(GOLDENS):
        if name not in GOLDENS:
            print(f"{name}: not in the GOLDENS table", file=sys.stderr)
            return 2
        path = GOLDEN / name
        old = path.read_text() if path.exists() else ""
        new = golden_text(golden_report(name))
        if new == old:
            print(f"{name}: unchanged")
            continue
        path.write_text(new)
        moved = moved_checks(old, new) if old else ["new file"]
        print(f"{name}: rewritten")
        for line in moved or ["no check row moved; the report layout did"]:
            print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
