"""Host-speed calibration: a fixed kernel timed next to every block of ops.

The host this benchmark runs on is shared, and its speed drifts by 20-35%
over seconds to minutes, for pure-Python and numpy work alike. A timed op
is therefore divided by the time of a fixed calibration kernel measured just
before and just after it, and multiplied by the kernel's ``reference_s``,
its time at the reference speed. The result is the op's time in seconds at
the reference speed: drift that slows the op and the kernel alike cancels,
and a faster program still reads faster, because the kernel never calls
cesrank.

Each workload has its own kernel, mixing the kinds of work its op does:
building Python tuples and dicts (the economy's support graph, the
connectivity checks) and numpy passes over n x n arrays. The kernel runs in
its own process, so its arrays add nothing to the workload process's peak
RSS and its objects nothing to that process's heap. It never runs while an
op runs.

Run as a script, this module is that process: for each line read on stdin,
a kernel name, it times that kernel ``repeats`` times and prints the median
seconds; it exits at end of input.
"""

import os
import statistics
import subprocess
import sys
import time

#: The kernel of each workload: Python items inserted into a dict of tuples,
#: then ``rounds`` of a scale and a matrix-vector product on ``side`` x
#: ``side`` float arrays. The mix follows the op: ``ces-large`` is mostly
#: Python (the n^2 support graph and its connectivity checks) on 8 MB arrays,
#: ``pagerank-large`` mostly numpy streaming its 72 MB n x n matrices (whose
#: speed depends on how much of the host's shared cache is left to it), and
#: ``ces-small`` Python plus many numpy calls on small arrays. With
#: ``fresh``, each round allocates a new array, as a ``pagerank-large`` op
#: allocates its 72 MB matrices: on a VM the first-touch page faults of large
#: arrays slow down with the host too. ``setup`` is
#: for the set-up time, which is imports and input generation: Python only.
#: A calibration is the median of ``repeats`` kernel runs; ``ces-large``
#: takes three, because one 5 s op sits between two calibrations and a
#: single 0.07 s run samples the host's speed at one instant.
#: ``reference_s`` is the kernel's median, rounded, on a 2-vCPU Intel Xeon
#: VM at 2.1 GHz, one BLAS thread; only the ratio to it matters, and it must
#: not change between two commits that are compared.
KERNELS = {
    "ces-large": {"py_items": 200_000, "side": 1000, "rounds": 10, "fresh": False, "repeats": 3, "reference_s": 0.07},
    "ces-small": {"py_items": 120_000, "side": 150, "rounds": 3000, "fresh": False, "repeats": 1, "reference_s": 0.08},
    "pagerank-large": {"py_items": 20_000, "side": 3000, "rounds": 3, "fresh": True, "repeats": 1, "reference_s": 0.09},
    "setup": {"py_items": 200_000, "side": 1, "rounds": 0, "fresh": False, "repeats": 1, "reference_s": 0.075},
}


def kernel_factory(workload: str):
    """The calibration kernel of ``workload``, with its arrays allocated once."""
    import numpy as np

    spec = KERNELS[workload]
    py_items, rounds = spec["py_items"], spec["rounds"]
    m = np.random.default_rng(0).random((spec["side"], spec["side"]))
    b = np.empty_like(m)
    v = np.ones(spec["side"])
    fresh = spec["fresh"]

    def kernel() -> float:
        start = time.perf_counter()
        table = {}
        for i in range(py_items):
            table[(i, i & 255)] = i * 0.5
        for _ in range(rounds):
            if fresh:
                (m * 1.0001) @ v
            else:
                np.multiply(m, 1.0001, out=b)
                b @ v
        return time.perf_counter() - start

    return kernel


def at_reference_speed(seconds: float, before: float, after: float, reference_s: float) -> float:
    """``seconds`` of wall time between calibrations ``before`` and ``after``, at the reference speed."""
    return seconds * reference_s / ((before + after) / 2)


class Calibrator:
    """The kernel's process; ``measure()`` times one calibration there."""

    def __init__(self, workload: str):
        self.workload = workload
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            for kernel in (workload, "setup"):
                self.measure(kernel)  # warm-up: allocation, first-touch page faults
        except BaseException:
            self.close()
            raise

    def reference_s(self, kernel=None) -> float:
        return KERNELS[kernel or self.workload]["reference_s"]

    def measure(self, kernel=None) -> float:
        """Seconds of one calibration with ``kernel`` (by default the workload's)."""
        self.proc.stdin.write((kernel or self.workload) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration process ended with code {self.proc.wait()}")
        return float(line)

    def close(self) -> None:
        """End the process and wait for it, on every path."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _serve() -> None:
    kernels = {}
    for line in sys.stdin:
        name = line.strip()
        if name not in kernels:
            kernels[name] = kernel_factory(name)
        runs = [kernels[name]() for _ in range(KERNELS[name]["repeats"])]
        print(repr(statistics.median(runs)), flush=True)


if __name__ == "__main__":
    _serve()
