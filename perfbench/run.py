"""privcell benchmark entry point.

    python3 perfbench/run.py --workload desk-npfw --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout: privcell is imported from ./src,
nothing needs installing.  BLAS is pinned to one thread before numpy
loads, so every run is the same single-threaded baseline.  See
perfbench/README.md for the workloads and metrics.
"""

import os
import sys
from pathlib import Path

BLAS_THREADS = "1"


def main():
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "privcell").is_dir():
        print(f"run.py: no privcell sources under {root / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(root / "src"))
    import bench  # loads numpy, yaml and privcell

    return bench.main(sys.argv[1:], root)


if __name__ == "__main__":
    sys.exit(main())
