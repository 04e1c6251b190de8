"""Machine-speed calibration for end-to-end timings.

The sandboxes this benchmark runs in share their cores with other machines'
work, and their speed drifts by up to 2x over tens of seconds: long enough
that no amount of repetition inside one run averages it out. So every timed
interval of an untraced run is bracketed by a fixed probe, and its wall time
is rescaled by NOMINAL_PROBE_S / (mean probe time before and after):

    calibrated = wall * NOMINAL_PROBE_S / probe

A calibrated second is a second at the speed where the probe takes
NOMINAL_PROBE_S. The probe is the benchmark's own copy of greedy row-action
steps (a matvec, an argmax, a projection) on a 2000x50 matrix plus a few
%.17g text round trips, the interpreter-bound work that dominates the
pipeline. It never calls rowaction, so a change to the program moves the
calibrated times but not the probe. Memory-bound work (the 10000x100
matvec) tracks the probe less closely. Raw wall times and factors are kept
next to the calibrated times in the report file.
"""

import time

import numpy as np

NOMINAL_PROBE_S = 0.012
PROBE_STEPS = 500
PROBE_ROUND_TRIPS = 4


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(20180309)
        small = rng.standard_normal((2000, 50))
        self.small = small / np.linalg.norm(small, axis=1, keepdims=True)
        self.rhs = rng.standard_normal(2000)
        self.text = small[:8].ravel().tolist()

    def probe(self) -> float:
        """Seconds one fixed unit of work takes right now. The unit lasts
        about 12 ms so that, like the measured work, it averages over the
        millisecond-scale bursts of the other work sharing the core."""
        a, b = self.small, self.rhs
        t0 = time.perf_counter()
        x = np.zeros(a.shape[1])
        for _ in range(PROBE_STEPS):
            r = a @ x - b
            i = int(np.argmax(r * r))
            x = x + (b[i] - float(np.dot(a[i], x))) * a[i]
        for _ in range(PROBE_ROUND_TRIPS):
            # the %.17g text round trip that saving and loading a system does
            [float(t) for t in " ".join(f"{v:.17g}" for v in self.text).split()]
        return time.perf_counter() - t0

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Turns wall seconds measured between two probes into calibrated seconds."""
        return NOMINAL_PROBE_S / ((before + after) / 2)

    def scaled(self, fn):
        """Run fn() between two probes; returns its result and their factor."""
        before = self.probe()
        result = fn()
        return result, self.factor(before, self.probe())


class Unscaled(SpeedProbe):
    """A probe that always reads nominal, for runs that want raw wall times
    (traced runs)."""

    def __init__(self):
        pass

    def probe(self) -> float:
        return NOMINAL_PROBE_S
