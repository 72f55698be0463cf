"""Cold-start probe for ``setup_s``, run by run.py in a fresh interpreter:

    python3 perfbench/setup_probe.py <src dir> <workload> <seed> <work dir>
    python3 perfbench/setup_probe.py --dependencies

The first form times ``import fracbessel, fracbessel.cli`` plus the
workload's first op; the second times importing only the library's
dependencies (numpy, scipy.special, scipy.integrate), which run.py uses as
the machine-speed reference for the first.  Either prints the seconds from
the start of this script.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    if sys.argv[1] == "--dependencies":
        import numpy  # noqa: F401
        import scipy.integrate  # noqa: F401
        import scipy.special  # noqa: F401

        return
    import workloads

    src, workload, seed, workdir = sys.argv[1:5]
    sys.path.insert(0, src)
    import fracbessel
    import fracbessel.cli  # noqa: F401

    op = workloads.make_inputs(workload, int(seed))[0]
    try:
        workloads.bind(op, fracbessel, Path(workdir))()
    except Exception:  # a first op that fails still costs its time
        pass


main()
print(time.perf_counter() - START)
