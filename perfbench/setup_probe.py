"""Time one cold set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD

Set-up is importing qbench (numpy, requests and the Clifford tables it
builds at import) plus building the device and backend, plus starting the
mock server where the workload uses one.  Stopping the server is not timed.
Prints the seconds.
"""
import os
import sys
import time


def main() -> None:
    start = time.perf_counter()
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    import workloads

    release = workloads.WORKLOADS[sys.argv[1]].setup()
    elapsed = time.perf_counter() - start
    release()
    print(repr(elapsed))


if __name__ == "__main__":
    main()
