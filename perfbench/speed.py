"""Machine-speed calibration for timings taken on a shared, drifting CPU.

On a shared virtual machine the speed of the same code drifts by tens of
percent over tens of seconds, which would swamp any regression bound.  So
every op is preceded by a fixed calibration kernel that does not touch
``treerep``, and each op's wall time is scaled by how much slower than
its reference time the kernel ran around it:

    scaled = wall / median(kernel slowdowns of the nearby ops)

A change to the program cannot move the kernel, so a faster program
still reads faster; a slower machine no longer does.  Reported times are
therefore "seconds at reference speed": the speed at which the kernels
take their reference times, their medians on a 2-vCPU Intel Xeon
(2.0 GHz) VM with Python 3.11 and numpy 2.4.

Not all work drifts alike.  Over ten minutes in which the Fraction
kernel's time varied twofold, verify ops slowed much less than it did,
and about as much as a numpy kernel shaped like their samplers.  Scaled
by that array kernel, verify's op time had an IQR/median of 0.04-0.05
across 20-op chunks; scaled by the Fraction kernel, 0.12-0.14.  A second
probe ran identities' deck.  Its ops (lattice tables, jets) fell between
the two kernels: over ten runs each, the Fraction kernel over-corrected
them (slow machine states read fast) and the array kernel under-corrected
them.  So each workload is scaled by the kernel that tracks it, or by the
geometric mean of both where it lies between them (:data:`KERNEL_OF`).
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.003
ARRAY_REFERENCE_S = 0.0045
WINDOW = 3  # ops on each side whose kernel times set an op's speed


def kernel():
    """Fixed work shaped like the engine's hot loop, written without ``treerep``.

    A two-state message-passing sweep down a path of 14 vertices for 10
    zero patterns, in Fractions with denominators up to 20.
    """
    bits = 0
    for mask in range(10):
        f0 = f1 = Fraction(1)
        for v in range(14):
            r = Fraction(v % 9 + 1, 10)
            p = Fraction(v % 7 + 1, 20)
            mix = r * f0 + (1 - r) * f1
            f0, f1 = (1 - p) * f0 + p * mix, (1 - p) * f1 + p * mix
            if mask >> (v % 6) & 1:
                f1 = Fraction(0)
        bits += f0.numerator.bit_length()
    return bits


def array_kernel():
    """Fixed work shaped like the samplers, written without ``treerep``.

    Poisson and Bernoulli draws for 20000 samples, packed into bitmask
    words and counted with ``bincount``.  numpy is imported here, so that
    importing this module leaves the set-up time of ``treerep`` alone.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    n = 20000
    words = np.zeros(n, dtype=np.uint64)
    for bit in range(6):
        hit = rng.poisson(0.3, n) >= 1
        words[hit] |= np.uint64(1 << bit)
        keep = rng.random(n) < 0.4
        words |= keep.astype(np.uint64) << np.uint64(bit + 6)
    return int(np.bincount(words.astype(np.int64), minlength=1 << 12).max())


KERNELS = {"fraction": (kernel, REFERENCE_S), "array": (array_kernel, ARRAY_REFERENCE_S)}

# Workloads not named here are scaled by the Fraction kernel alone.
KERNEL_OF = {"identities": ("fraction", "array"), "verify": ("array",)}


def calibrate(repeats=1, names=("fraction",)):
    """Slowdown against reference speed: for each kernel, the median of
    ``repeats`` runs divided by its reference time; the geometric mean
    over ``names``."""
    product = 1.0
    for name in names:
        fn, reference_s = KERNELS[name]
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        product *= statistics.median(samples) / reference_s
    return product ** (1.0 / len(names))


def scale(seconds, slowdowns):
    """Divide each of ``seconds`` by the median slowdown in a window around it."""
    scaled = []
    for i, value in enumerate(seconds):
        window = slowdowns[max(0, i - WINDOW): i + WINDOW + 1]
        scaled.append(value / statistics.median(window))
    return scaled
