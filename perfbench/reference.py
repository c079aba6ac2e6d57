"""Reference kernel that measures how fast the machine is right now.

Run as a child process of the benchmark: every line read from stdin runs the
kernel once and answers with its duration in seconds.  The kernel is fixed
numpy work that does not touch heiscouple -- streaming over arrays larger
than the caches, plus many small-array calls like the engines' -- so its
time moves with host-level contention (other tenants on a shared machine)
and not with changes to the program.  Living in its own process, its arrays
stay out of the benchmark's peak memory.
"""

import sys
import time

import numpy as np


def main():
    gen = np.random.Generator(np.random.Philox(key=np.array([7, 7], dtype=np.uint64)))
    big = gen.standard_normal(2**22)
    buf = np.empty_like(big)
    for _ in sys.stdin:
        t0 = time.perf_counter()
        for _ in range(6):
            np.cumsum(big, out=buf)
            np.multiply(buf, buf, out=buf)
            float(buf.sum())
        x = np.zeros(1024)
        for _ in range(1600):
            g = gen.standard_normal(1024)
            x = np.where(x > 0.0, x + g, np.abs(x - g))
            float(x.sum())
        print(time.perf_counter() - t0, flush=True)


if __name__ == "__main__":
    main()
