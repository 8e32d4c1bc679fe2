"""Machine-speed probe and the clock that normalizes the benchmark's timings.

On a shared host the speed of the same deterministic work drifts by about
+-20% over seconds (measured on a 2-vCPU virtual machine by repeating one
``scren2`` call for a minute), so raw wall times of one run spread too much
between runs to bound a regression.  The benchmark therefore cuts each timed
call into segments with a fixed probe at both ends, and scales each
segment's time by ``REFERENCE_S`` over the mean of its two probe times: the
result is the call's time at the speed where one probe takes ``REFERENCE_S``.

The probe uses only numpy and scipy, never ``scren``, so no change to the
program moves it.  It does the roof engine's kind of work (Powell line
searches over small batched SVDs), so a host slow-down hits both alike.
"""

from time import perf_counter, process_time

import numpy as np
from scipy.optimize import minimize

REFERENCE_S = 0.05

_rng = np.random.default_rng(0)
_MATS = _rng.standard_normal((4, 2, 2)) + 1j * _rng.standard_normal((4, 2, 2))


def _objective(x: np.ndarray) -> float:
    m = _MATS * np.exp(1j * x[:4])[:, None, None]
    return float(np.linalg.svd(m, compute_uv=False).sum() + np.sum((x - 0.3) ** 2))


def probe() -> tuple[float, float]:
    """Wall and CPU seconds of one fixed batch of Powell searches."""
    t0, c0 = perf_counter(), process_time()
    for _ in range(4):
        minimize(_objective, np.zeros(8), method="Powell", options={"maxfev": 300})
    return perf_counter() - t0, process_time() - c0


class Clock:
    """Times consecutive calls at reference speed, excluding probe time.

    A probe runs when the clock is made, at every ``lap`` (the end of a
    call) and at a ``checkpoint`` inside a call once ``interval`` seconds
    have passed since the last probe.  Long calls offer checkpoints so that
    their segments stay short next to the host's speed drift.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.probes = [probe()]
        self._lap = [0.0, 0.0, 0.0, 0.0]
        self._mark()

    def _mark(self) -> None:
        self._t, self._c = perf_counter(), process_time()

    def _cut(self) -> None:
        wall, cpu = perf_counter() - self._t, process_time() - self._c
        before, after = self.probes[-1], probe()
        self.probes.append(after)
        self._lap[0] += wall * 2.0 * REFERENCE_S / (before[0] + after[0])
        self._lap[1] += cpu * 2.0 * REFERENCE_S / (before[1] + after[1])
        self._lap[2] += wall
        self._lap[3] += cpu
        self._mark()

    def checkpoint(self) -> None:
        if perf_counter() - self._t >= self.interval:
            self._cut()

    def lap(self) -> tuple[float, float, float, float]:
        """End a call: its wall and CPU seconds at reference speed, then raw."""
        self._cut()
        lap, self._lap = tuple(self._lap), [0.0, 0.0, 0.0, 0.0]
        return lap
