"""Gauges how fast the host runs while a repetition is timed.

On a shared host the same repetition can take twice as long from one minute to
the next while nothing in the program changes (knowledge_cap on a 2-vCPU VM:
2.2 s to 4.8 s for the same seed within six minutes, with CPU time tracking
wall time, so the slowdown is not stolen time).  While a repetition runs,
``HostGauge`` interrupts it every ``PERIOD_S`` of wall time with a SIGALRM
handler that times ``probe``, a fixed few-millisecond kernel, in CPU time: a
probe that the host happens to preempt would otherwise read as a slow host,
and on a host that steals time such probes dominated the mean.  ``run.py``
removes the probes' time from the repetition and scales what is left to a host
on which ``probe`` takes ``REFERENCE_S``: it multiplies by a power of
``REFERENCE_S`` over the mean probe time during that repetition.

The probes sample the host's speed at the same moments the work runs.  For the
same knowledge_cap repetition repeated for 200 s, the log of its time
correlated with the log of the mean probe time at 0.95-0.97, where a single
kernel run between repetitions correlated at 0.6.  Repetition time moves
faster than probe time, though: across runs the pooled log-log slope was
1.2-1.5, and by the plain ratio fast periods still scaled low.  The scale
factor is therefore the ratio raised to ``ELASTICITY``: over four earlier
sets of five or ten seeds it cut the spread of wall_s across runs from
0.05-0.11 of the median, with the plain ratio, to 0.03-0.06.  In ten runs per
workload on a 2-vCPU Intel Xeon VM, scaled wall_s spread 0.016-0.059 of its
median against 0.03-0.26 unscaled.

The probe mixes what the workloads spend their time on: vectorized fidelity
arithmetic over 48 x 48 and 128 x 128 tensor rules (knowledge_cap's cap
quadrature), 2x2 complex products (rb_point's per-gate objective), 4x4
density-matrix updates (rb_noisy_state's channel) and plain Python float
arithmetic.  It uses only numpy and Python, never the package under test, so
a change to the package cannot move it.
"""

from __future__ import annotations

import math
import signal
import time
from statistics import fmean

import numpy as np

# Mean probe time, in seconds, of the host that scaled times refer to: about
# the mean during repetitions on a 2-vCPU Intel Xeon VM (Python 3.11,
# numpy 2.4), so scaled and unscaled times there are alike.
REFERENCE_S = 0.0075

# Wall time between probes while a repetition runs.
PERIOD_S = 0.1

# Power of the probe-time ratio that scales a repetition (see above).
ELASTICITY = 1.3


def _tensor_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    x = np.polynomial.legendre.leggauss(order)[0]
    theta, phi = np.meshgrid(0.5 * (x + 1.0), math.pi * (x + 1.0))
    return theta.ravel(), phi.ravel()


# A 48 x 48 rule stays in the core's caches; a 128 x 128 one, the largest
# order the cap quadrature certifies, does not.
_RULES = ((_tensor_nodes(48), 3), (_tensor_nodes(128), 2))
_U2 = np.array([[0.6, 0.8j], [0.8j, 0.6]])
_U4 = np.kron(_U2, np.array([[0.8, 0.6], [-0.6, 0.8]], dtype=complex))
_DAMP = np.diag([1.0, 0.99, 0.99, 0.98]).astype(complex)


def probe() -> float:
    """Runs the fixed probe kernel once; returns the CPU time it took, in
    seconds."""
    t0 = time.thread_time()
    for (theta, phi), rounds in _RULES:
        for k in range(rounds):
            c = np.cos(0.5 * theta + 0.01 * k)
            s = np.sin(0.5 * theta) * np.exp(1j * phi)
            psi0 = 0.6 * c + 0.8j * s
            psi1 = 0.8j * c + 0.6 * s
            p0 = np.abs(psi0) ** 2
            f = 0.9 * p0 + 0.1 * (1.0 - p0) + 2.0 * np.real(np.conj(psi0) * s * psi1)
            np.dot(theta, np.clip(f, 0.0, 1.0))
    a = np.eye(2, dtype=complex)
    for _ in range(80):
        a = _U2 @ a
        a = a / np.linalg.norm(a)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    for _ in range(40):
        rho = _DAMP @ (_U4 @ rho @ _U4.conj().T) @ _DAMP
        rho = rho / np.trace(rho).real
    x = 0.0
    for i in range(3000):
        x += math.sin(i) * 0.5
    return time.thread_time() - t0


def host_factor(samples, reference: float) -> float:
    """``reference`` over the mean of the probe times ``samples``, raised to
    ``ELASTICITY``: the factor that takes a time measured while they were
    taken to a host on which the probe takes ``reference`` seconds."""
    if not samples:
        raise ValueError("no probe samples")
    if min(samples) <= 0.0 or reference <= 0.0:
        raise ValueError("probe times must be positive")
    return (reference / fmean(samples)) ** ELASTICITY


class HostGauge:
    """Times ``probe`` once on ``start`` and then every ``PERIOD_S`` until
    ``stop``.  ``samples`` holds the probe times; ``start_s`` is the wall time
    of the probe ``start`` ran and ``probe_s`` the wall time the probes took
    after it returned, which the caller subtracts from what it timed."""

    def __init__(self):
        self.samples: list[float] = []
        self.start_s = 0.0
        self.probe_s = 0.0
        self._previous = None

    def start(self) -> None:
        t0 = time.perf_counter()
        self.samples = [probe()]
        self.start_s = time.perf_counter() - t0
        self.probe_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.probe_s += time.perf_counter() - t0

    @property
    def factor(self) -> float:
        """Scale from this host, as probed, to the reference host."""
        return host_factor(self.samples, REFERENCE_S)
