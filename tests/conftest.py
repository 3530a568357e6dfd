"""Fixtures shared by several test modules."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mixedit
from mixedit.dataset import build_demo_catalog


@pytest.fixture(scope="session")
def resampled_root(tmp_path_factory):
    """A demo catalog with its speech at 48 kHz and its audio at 44.1 kHz,
    so that every source is resampled, on both plan shapes: one tap group
    and three."""
    root = tmp_path_factory.mktemp("resampled")
    rows = []
    for rate, kind in ((48000, "speech"), (44100, "audio")):
        meta = build_demo_catalog(root / kind, seed=0, rate=rate)
        rows += [dict(row, path=f"{kind}/{row['path']}")
                 for row in json.loads(meta.read_text()) if row["type"] == kind]
    (root / "metadata.json").write_text(json.dumps(rows))
    return root


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


@pytest.fixture
def assert_dump_is():
    """``check(prefix, mask)`` asserts that ``{prefix}.csv`` holds the
    values and shape of the ``EditingMask`` ``mask`` to ``%.6g``, and that
    ``{prefix}.pgm`` holds them over ``[0, m_max]`` as 8-bit grey levels,
    low rows at the bottom."""
    def check(prefix, mask):
        values = np.loadtxt(f"{prefix}.csv", delimiter=",", ndmin=2)
        assert values.shape == mask.shape
        np.testing.assert_allclose(values, mask.values, rtol=5e-6, atol=0)
        magic, size, depth, pixels = Path(f"{prefix}.pgm").read_bytes().split(
            b"\n", 3)
        assert magic == b"P5" and depth == b"255"
        assert size == b"%d %d" % mask.shape[::-1]
        scaled = np.clip(mask.values / mask.m_max, 0, 1) * 255
        assert np.array_equal(np.frombuffer(pixels, np.uint8),
                              np.flipud(np.round(scaled)).ravel())

    return check
