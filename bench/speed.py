"""Machine-speed probe: measured wall times scaled to a reference speed.

The benchmark runs on small shared hosts whose speed swings by up to 1.5x for
seconds to minutes at a time, with no steal time to show for it: a fixed
single-threaded loop is that much slower, in CPU time as well as wall time.
Raw wall times of runs taken a few minutes apart then differ by more than any
change worth measuring.  So the timed passes run this probe between tasks.

The probe is a fixed amount of four kinds of work that u3kit's tasks are made
of, and that a busy host slows by different amounts: interpreter work (dict
updates), many small numpy calls, a batched FFT over 0.5 MB, and a random
gather from a 4 MB array, larger than a core's L2 cache.  Each kind's time
over its reference time below is its slowdown; their mean is the machine's
speed factor at that moment.  The timed passes run the probe before their
first task and after each task; a task's wall time over the mean factor of
its pass's probes is its time at reference speed.  A pass takes 3 to 15 s,
shorter than most of the host's slow and fast spells, and the mean over its
7 to 25 probes evens out the probe's own noise.  The probe's arrays add
about 4 MB to the process's peak RSS.

The probe never calls u3kit, so a change to the library cannot move it.  The
reference times are typical probe times on a 2-core Intel Xeon (KVM,
2.0 GHz) with Python 3.11 and numpy 2.4; on other hardware the factor is not
1, but it is the same for a parent and a change measured there.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# (kind, rounds per probe, reference seconds of one round); a probe takes
# the median of its rounds of each kind
KINDS = (("interpreter", 3, 0.58e-3), ("small_numpy", 3, 0.36e-3),
         ("batched_fft", 3, 2.2e-3), ("gather", 3, 0.6e-3))
WARM_UP = 3  # probes run and discarded first: the first FFT of a shape plans it


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.tiny = np.arange(5)
        self.rows = np.exp(2j * np.pi * rng.uniform(size=(8, 4001)))
        self.table = rng.standard_normal(1 << 19)
        self.picks = rng.integers(0, self.table.size, size=50_000)
        self.work = {"interpreter": self._interpreter, "small_numpy": self._small_numpy,
                     "batched_fft": self._batched_fft, "gather": self._gather}
        self.seconds: dict[str, list[float]] = {kind: [] for kind, _, _ in KINDS}  # for the result file
        for _ in range(WARM_UP):
            self.factor()
        for times in self.seconds.values():
            times.clear()

    @staticmethod
    def _interpreter() -> int:
        counts: dict[int, int] = {}
        for i in range(2500):
            counts[i % 37] = counts.get(i % 37, 0) + i * i % 11
        return sum(counts.values())

    def _small_numpy(self) -> int:
        a = self.tiny
        for _ in range(150):
            a = (a + self.tiny) % 5
        return int(a.argmax())

    def _batched_fft(self) -> int:
        return int(np.argmax(np.abs(np.fft.fft(self.rows, axis=1)[:, 1])))

    def _gather(self) -> float:
        return float(self.table[self.picks].sum())

    def factor(self) -> float:
        """Run the probe once; the machine's slowdown against the reference."""
        slowdowns = []
        for kind, rounds, ref in KINDS:
            times = []
            for _ in range(rounds):
                t0 = time.perf_counter()
                self.work[kind]()
                times.append(time.perf_counter() - t0)
            self.seconds[kind].append(statistics.median(times))
            slowdowns.append(self.seconds[kind][-1] / ref)
        return statistics.fmean(slowdowns)


def reference_seconds(seconds: float, factors: list[float]) -> float:
    """A wall time over the mean speed factor of the probes run around it."""
    return seconds / statistics.fmean(factors)
