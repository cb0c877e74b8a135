"""The demos run as a user runs them, and print what they printed when
these digests were taken; the tour prints every recurrence next to its
closed form."""

import hashlib
import pathlib
import subprocess
import sys

import pytest

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo,digest", [
    ("closed_forms_tour.py",
     "d17d1b7948809f2681f4c0e2e7b63e4840ec43c1f30edf13c6de4d3c5820b13e"),
    ("composition_algebra.py",
     "1ca0f1b2203391926df991a932fd9d6fe4e9ca4483e9eeac1ee6184c0391e50f"),
])
def test_demo_stdout_digest(demo, digest):
    # -I: no PYTHONPATH and no user site; each demo finds src/ itself.
    proc = subprocess.run([sys.executable, "-I", str(DEMOS / demo)],
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
