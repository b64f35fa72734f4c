"""The allocator policy set at import: freed large numpy temporaries stay resident."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# eight touched 1 MiB arrays allocated and freed per cycle; prints the minor page faults
# of 20 cycles after one warm cycle
CYCLES = """
import resource

import privcell  # noqa: F401
import numpy as np


def cycle():
    arrays = [np.ones(1 << 17) for _ in range(8)]
    del arrays


cycle()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    cycle()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _glibc():
    """The running glibc's version string; None off glibc (checked the way privcell checks it)."""
    try:
        return os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return None


@pytest.mark.skipif(not _glibc(), reason="the policy is set on glibc only")
def test_freed_temporaries_do_not_fault_in_again():
    """Run in a fresh process: in this one glibc's sliding threshold depends on what ran before.

    Without the policy each cycle faults its 8 MiB in again (about 2,000 pages)."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", CYCLES], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) / 20 < 50
