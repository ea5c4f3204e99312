"""Process set-up shared by every benchmark entry point.

Import this before numpy: it pins the BLAS thread pools to one thread (the
benchmark is a single-threaded closed loop on a 2-core machine) and puts the
checkout's ``src`` directory first on ``sys.path`` so the program under test
is the one in this checkout, never an installed copy.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class MissingProgram(RuntimeError):
    """The checkout does not hold the program's sources."""


def prepare():
    """Pin BLAS threads, point imports at ``src/`` and return the package root."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    package = SRC / "tricoh"
    if not (package / "__init__.py").is_file():
        raise MissingProgram(f"no program sources at {package}")
    os.environ["PYTHONPATH"] = str(SRC)
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    return package


def import_program():
    """Import tricoh from this checkout and check that it is not another copy."""
    package = prepare()
    import tricoh

    if Path(tricoh.__file__).resolve().parent != package.resolve():
        raise MissingProgram(f"imported tricoh from {tricoh.__file__}, expected {package}")
    return tricoh


def git_sha():
    """Commit of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
