"""Fixtures shared by several test modules."""

import subprocess
import sys
from pathlib import Path

import pytest

import mixedit


@pytest.fixture
def import_leaves_out():
    """``check(statement, module)`` runs ``statement`` in a fresh
    interpreter on this checkout's sources and asserts that ``module`` is
    then absent from ``sys.modules``."""
    src = str(Path(mixedit.__file__).resolve().parents[1])

    def check(statement: str, module: str):
        code = (f"import sys; sys.path.insert(0, sys.argv[1]); {statement}; "
                f"sys.exit({module!r} in sys.modules)")
        run = subprocess.run([sys.executable, "-c", code, src], timeout=60)
        assert run.returncode == 0

    return check
