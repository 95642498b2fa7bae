"""One cold set-up of a workload in a fresh interpreter, timed.

    python3 bench/cold_start.py WORKLOAD SEED WORKDIR

Imports finkite from src/ before anything of the benchmark's own,
generates the workload's inputs from the seed and runs the first op of
each type once, without its oracle.  Prints the seconds from the first
statement of this file to the point where the first timed op would
start.  `run.py` runs this several times during each run; `setup_s` is
the median.
"""
from time import perf_counter

START = perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path.insert(0, SRC)

import finkite.algebra  # noqa: E402,F401
import finkite.cli  # noqa: E402,F401
import finkite.finmaps  # noqa: E402,F401
import finkite.gallery  # noqa: E402,F401
import finkite.internal  # noqa: E402,F401
import finkite.kitecond  # noqa: E402,F401
import finkite.limits  # noqa: E402,F401
import finkite.schemas  # noqa: E402,F401

MODULES = ("finmaps", "limits", "internal", "kitecond", "algebra", "schemas",
           "cli", "gallery")


class Modules:
    """finkite's modules by short name, as the workloads expect them."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, sys.modules[f"finkite.{name}"])


def main() -> int:
    workload, seed, workdir = sys.argv[1:4]
    where = os.path.realpath(finkite.finmaps.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        print(f"error: finkite imported from {where}, not from {SRC}",
              file=sys.stderr)
        return 2
    import random
    from workloads import WORKLOADS, first_of_each_type
    ops = WORKLOADS[workload](Modules(), random.Random(f"{workload}/{seed}"),
                              "full", workdir)
    for op in first_of_each_type(ops):
        op.run()
    print(perf_counter() - START)
    return 0


if __name__ == "__main__":
    sys.exit(main())
