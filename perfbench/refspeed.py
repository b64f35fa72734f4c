"""Host speed, from a fixed reference kernel timed between trials.

On a shared host the same code runs 1.5-3x slower for phases of seconds
to minutes, while other tenants load the cores, caches and memory it
shares.  That swing belongs to the host, not to privcell, and it is wider
than any useful regression bound.  So the benchmark times a fixed kernel
that calls nothing in privcell -- small complex Gram products in a Python
loop, a complex Gaussian draw, a Hermitian eigensolve and pure-Python
arithmetic, the kinds of work a trial does -- between timed calls, and
scales each call's wall time by NOMINAL_S over the kernel's time around
it.  A scaled time reads as seconds on a host where the kernel takes
NOMINAL_S; it follows changes to privcell and much less the host's
phases.  The kernel's inputs are fixed, so both sides of a comparison
run the same reference.
"""

import statistics
from time import perf_counter

import numpy as np

# The kernel's median time on a quiet 2-core Intel Xeon (Sapphire Rapids
# class) KVM guest, one BLAS thread.  Any fixed value serves; this one
# makes scaled seconds read as wall seconds on that host.
NOMINAL_S = 0.0018
REPEATS = 5  # kernel runs per sample; the sample is their median


class Reference:
    """The reference kernel and the speed samples taken with it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = [rng.standard_normal((8, 24)) + 1j * rng.standard_normal((8, 24)) for _ in range(12)]
        a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self._herm = a + a.conj().T
        # Work buffers, allocated once: a kernel that allocated large arrays
        # would time the allocator, whose cost depends on what the rest of
        # the process has allocated and freed.
        self._z = np.empty((2, 120, 120))
        self._w = np.empty((120, 120))
        self.samples = []  # seconds per kernel sample, in the order taken
        self._kernel()  # first call pays lazy set-up; not a sample

    def _kernel(self):
        acc = 0.0
        for _ in range(4):
            for x in self._small:
                g = x.conj().T @ x
                acc += np.linalg.norm(0.5 * (g + g.conj().T))
        np.random.default_rng(1).standard_normal(out=self._z)
        for z in self._z:
            np.add(z, z.T, out=self._w)
            acc += np.abs(self._w, out=self._w).sum()
        acc += np.linalg.eigvalsh(self._herm).sum()
        s = 0
        for i in range(8000):
            s += i
        return acc + s

    def sample(self):
        """Seconds the kernel takes now (median of REPEATS runs); kept in samples."""
        times = []
        for _ in range(REPEATS):
            t0 = perf_counter()
            self._kernel()
            times.append(perf_counter() - t0)
        s = statistics.median(times)
        self.samples.append(s)
        return s


def scaled(seconds, *samples):
    """Wall seconds at the nominal speed, given kernel samples taken around them."""
    return seconds * NOMINAL_S * len(samples) / sum(samples)
