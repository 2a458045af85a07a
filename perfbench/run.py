"""Benchmark of watermpc, run from the repository root:

    python3 perfbench/run.py --workload net3-loop --seed 0 --seconds 20 --trace 0

It pins BLAS to one thread and imports watermpc from ``src/`` of the tree
it sits in, never from an installed copy; without that source it exits
with code 2. See ``harness.py`` for what it measures and prints.
"""

import os
import sys
from pathlib import Path

# Must precede the first numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _use_source_tree() -> bool:
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "watermpc" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import watermpc

    return Path(watermpc.__file__).resolve().is_relative_to(src)


if __name__ == "__main__":
    if not _use_source_tree():
        print("error: no watermpc source under src/ next to perfbench/", file=sys.stderr)
        sys.exit(2)
    from harness import main

    sys.exit(main())
