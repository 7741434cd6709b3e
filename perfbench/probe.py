"""Host-speed probe, run as a child process of the benchmark:

    python3 perfbench/probe.py <out-file>

Times a fixed pure-Python loop about ten times a second and appends
``<monotonic time> <seconds>`` lines to ``out-file``. It exits on SIGTERM
or when its parent goes away. See hostspeed.py for how the samples are used.
"""

import os
import sys
import time

LOOP = 200_000  # ~4 ms on an unloaded core of the reference host


def main(path: str) -> None:
    parent = os.getppid()
    with open(path, "w") as out:
        while os.getppid() == parent:
            t0 = time.monotonic()
            n = 0
            for _ in range(LOOP):
                n += 1
            t1 = time.monotonic()
            out.write(f"{t1:.6f} {t1 - t0:.7f}\n")
            out.flush()
            time.sleep(0.1)


if __name__ == "__main__":
    main(sys.argv[1])
