"""The crgeo source tree to compare this one with: a directory, or a git revision's ``src``.

It imports nothing beyond the standard library, so a tool that measures
its child processes stays small itself.
"""

import contextlib
import io
import subprocess
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


@contextlib.contextmanager
def exported(old, repo=REPO):
    """``old`` if it is a directory, else the ``src`` of the git revision ``old`` of ``repo``,
    exported into a temporary directory removed on exit."""
    if Path(old).is_dir():
        yield Path(old)
        return
    proc = subprocess.run(["git", "-C", str(repo), "archive", "--format=tar", old, "src"], capture_output=True)
    if proc.returncode:
        raise SystemExit(f"{old}: neither a directory nor a revision with a src tree\n{proc.stderr.decode()}")
    with tempfile.TemporaryDirectory() as tmp, tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(tmp, filter="data")
        yield Path(tmp) / "src"
