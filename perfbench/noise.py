"""Probe how much the machine's own speed drifts, apart from seqrig.

    python3 perfbench/noise.py [seconds]

Times three fixed jobs back to back for the given seconds (default 80): a
pure-Python loop, sixty 32x1024 @ 1024x2048 GEMMs on one BLAS thread, and
``%.17g`` formatting of 61,440 floats.  For each it prints the median, the
spread (quartile distance over the median) of single samples, and the
median of each eighth of the probe.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402


def main() -> int:
    seconds = float(sys.argv[1]) if len(sys.argv) > 1 else 80.0
    rng = np.random.default_rng(0)
    a, b = rng.random((32, 1024)), rng.random((1024, 2048))
    samples: dict[str, list[float]] = {"python loop": [], "gemm": [], "format": []}
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        mid = time.perf_counter()
        for _ in range(60):
            a @ b
        mid2 = time.perf_counter()
        ",".join(f"{v:.17g}" for v in b[:30].ravel())
        stop = time.perf_counter()
        for name, value in zip(samples, (mid - start, mid2 - mid, stop - mid2)):
            samples[name].append(value)
    for name, values in samples.items():
        q1, median, q3 = statistics.quantiles(values, n=4)
        size = len(values) // 8
        windows = [statistics.median(values[i:i + size])
                   for i in range(0, size * 8, size)] if size else []
        print(f"{name}: {len(values)} samples, median {median:.4f} s, spread "
              f"{(q3 - q1) / median:.1%}; medians of eighths: "
              + " ".join(f"{w:.4f}" for w in windows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
