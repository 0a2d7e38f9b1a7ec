"""Run a ``python -c`` probe whose ``ru_maxrss`` is its own.

Linux carries a process's resident high-water mark across ``exec``: a
child exec'd straight from the test session starts with the session's
peak, so a probe smaller than the session reads zero growth whatever it
does.  A shell's forked child starts from the shell's, which is tiny.
"""

import os
import subprocess
import sys

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(repro.__file__))


def run_probe(code: str, *paths: str) -> str:
    """Stdout of ``code`` run by a fresh interpreter under a shell, with
    the package source and ``paths`` importable, from the repo root."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([SRC, *paths, os.environ.get("PYTHONPATH", "")]),
    )
    out = subprocess.run(
        ["sh", "-c", '"$@"; :', "sh", sys.executable, "-c", code],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return out.stdout
