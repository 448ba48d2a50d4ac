"""Time one set-up in a fresh interpreter: import semiforge and build a workload's inputs.

    python3 perfbench/setup_probe.py <workload> <seed> <directory>

Prints the elapsed seconds on its last line.  ``run.py`` starts two of
these after every pass and reports the fastest as ``setup_s``.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    workload, seed, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import semiforge  # noqa: F401  (the import is part of what is timed)
    import workloads

    workloads.build(workload, seed, directory)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
