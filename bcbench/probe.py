"""One fresh-interpreter set-up: import bornchoice, make the inputs, warm up.

    python3 bcbench/probe.py WORKLOAD SEED

Prints {"setup_s": ...} measured from before the package import. The
package is imported first, before any benchmark module that would load
numpy on its own, so the import is timed whole.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import bornchoice  # noqa: E402,F401

import workloads  # noqa: E402


def main() -> None:
    workload = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
    workload.prepare()
    workload.warm_up()
    print(json.dumps({"setup_s": time.perf_counter() - START}))


if __name__ == "__main__":
    main()
