"""Machine-speed probe: reports times at a fixed reference speed.

The shared machines this benchmark runs on change speed by up to ~1.5x
within a minute (other tenants; the same pure-Python loop measured
27-50 ms over 60 s), which no amount of repetition inside one run
averages out.  So while a workload runs, a separate probe process
executes a fixed ~0.3 ms pure-Python loop every 25 ms (about 1% of
one core) and reports the CPU time each loop took.  CPU time, not wall
time, so the probe measures how fast the machine executes Python, not
how long it queued behind the workload's own processes.  The probe
is pinned to the CPU the program under test runs on (see
``common.cpu_roles``): the two CPUs of the VM change speed
independently of each other.

A timed phase is then reported as ``raw_s * REFERENCE_PROBE_S /
median(probe)`` over the probes that ran during the phase (widened to
at least :data:`MIN_PROBES`): seconds at the reference speed.  The raw
wall times are printed beside the normalized ones.

Run as a script, this file is the probe process itself.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import threading
import time
from typing import FrozenSet, List, Optional, Tuple

from common import place

#: Probe CPU time that counts as reference speed (the loop's typical
#: time on an idle 2-vCPU VM when this benchmark was defined).
REFERENCE_PROBE_S = 0.0003
PERIOD_S = 0.025
LOOP = 6_000
MIN_PROBES = 7


def _probe_forever() -> None:
    clock = time.perf_counter
    cpu = time.process_time
    while True:
        wall = clock()
        started = cpu()
        total = 0
        for i in range(LOOP):
            total += i * i
        sys.stdout.write(f"{wall!r} {cpu() - started!r}\n")
        sys.stdout.flush()
        time.sleep(PERIOD_S)


class SpeedProbe:
    """The probe subprocess plus the readings it has sent so far."""

    def __init__(self, cpus: Optional[FrozenSet[int]] = None) -> None:
        """Start probing; *cpus* pins the probe where the program runs."""
        self.readings: List[Tuple[float, float]] = []
        self._lock = threading.Lock()
        self._proc = subprocess.Popen([sys.executable, __file__],
                                      stdout=subprocess.PIPE, text=True)
        place(self._proc.pid, cpus)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self._proc.stdout:
            wall, seconds = line.split()
            with self._lock:
                self.readings.append((float(wall), float(seconds)))

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_PROBE_S / median(probe)`` around [start, end].

        The window widens symmetrically until it holds
        :data:`MIN_PROBES` readings (short phases); with no readings at
        all the scale is 1.
        """
        with self._lock:
            readings = list(self.readings)
        if not readings:
            return 1.0
        pad = 0.0
        while True:
            inside = [s for t, s in readings if start - pad <= t <= end + pad]
            if len(inside) >= min(MIN_PROBES, len(readings)):
                return REFERENCE_PROBE_S / statistics.median(inside)
            pad += PERIOD_S

    def normalize(self, seconds: float,
                  window: Optional[Tuple[float, float]]) -> float:
        if window is None:
            return seconds
        return seconds * self.scale(*window)

    def close(self) -> None:
        self._proc.kill()
        self._proc.wait()
        self._reader.join(timeout=5)
        self._proc.stdout.close()


if __name__ == "__main__":
    try:
        _probe_forever()
    except (BrokenPipeError, KeyboardInterrupt):
        pass
