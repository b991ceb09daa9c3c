"""One cold set-up of a workload, timed from inside a fresh process.

    python3 perfbench/coldstart.py <workload>

Imports `actualcause`, parses every `.cm` document the workload uses and
builds each model's runtime with a first solve, then prints the seconds
that took at the reference host's speed (see `speed.py`).  Interpreter
start-up is not included.
"""

from __future__ import annotations

import sys

import common
import speed

# a set-up lasts about a tenth of a second: sample the host's speed often
# enough to get a dozen samples or more
INTERVAL_S = 0.005


def main(workload: str) -> None:
    names = common.workload_models(common.load_reference(), workload)
    common.use_source()
    with speed.Sampler(INTERVAL_S) as sampler:
        mark = sampler.mark()
        import actualcause

        common.setup_documents(actualcause, names)
        elapsed, scale = sampler.close(mark)
    common.check_imported(actualcause)
    print(repr(elapsed * scale))


if __name__ == "__main__":
    main(sys.argv[1])
