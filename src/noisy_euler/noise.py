"""Amplitude/phase damping noise model for the two-pulse native gate.

Decoherence is modeled as amplitude damping (probability lambda_a) composed
with phase damping (probability lambda_p), attached once after each of the two
physical R_x(+-pi/2) pulses; virtual R_z rotations are noiseless.  For a gate
of duration t_star on a qubit with relaxation times T1, T2,

    lambda_a = 1 - exp(-t_star / T1)
    lambda_p = 1 - exp(-t_star / T2).

Amplitude damping Kraus operators:

    A0 = [[1, 0], [0, sqrt(1 - lambda_a)]],  A1 = [[0, sqrt(lambda_a)], [0, 0]]

phase damping Kraus operators:

    P0 = [[1, 0], [0, sqrt(1 - lambda_p)]],  P1 = [[0, 0], [0, sqrt(lambda_p)]]

The composite channel has the closed form (for trace-1 input)

    N(rho) = [[rho00 (1-la) + la,            rho01 sqrt(1-la) sqrt(1-lp)],
              [rho10 sqrt(1-la) sqrt(1-lp),  rho11 (1-la)]].

On the Bloch vector n (rho = (I + n.sigma)/2) the channel is affine,
n -> diag(e, e, 1-la) n + (0, 0, la) with e = sqrt(1-la) sqrt(1-lp), and the
virtual R_z are rotations, so the whole noisy native gate is one affine map
n -> A n + t = Rz(beta) (K Rz(delta) n + t0), K and t0 from the damping set
that ``_damping`` builds once per RB circuit, sweep cell or ``optimize_gate``
call.  ``_apply_all`` evaluates the map in plain floats for several damping
sets and Bloch vectors (or one of each) under one angle frame, and
``_apply_chain`` carries one vector through a sequence of gates.  They
are the only form the RB simulator, the sweeps' scoring and the
objectives' set-up use; under the noiseless set ``_NOISELESS`` the map is
the gate's rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


# Damping probabilities are clamped to [0, 1 - 1e-15] so sqrt(1 - lambda)
# never vanishes exactly and extreme drift factors stay finite.
LAMBDA_MAX = 1.0 - 1e-15


def _clamp(lam: float) -> float:
    return min(max(lam, 0.0), LAMBDA_MAX)


def damping_probabilities(t1: float, t2: float, t_star: float) -> tuple[float, float]:
    """(lambda_a, lambda_p) = (1 - e^{-t*/T1}, 1 - e^{-t*/T2}).

    Times must share a unit; T1, T2 > 0 and t_star >= 0.
    """
    for name, val in (("t1", t1), ("t2", t2), ("t_star", t_star)):
        if not math.isfinite(val):
            raise ValueError(f"{name} must be finite")
    if t1 <= 0 or t2 <= 0:
        raise ValueError("T1 and T2 must be positive")
    if t_star < 0:
        raise ValueError("t_star must be non-negative")
    return _clamp(-math.expm1(-t_star / t1)), _clamp(-math.expm1(-t_star / t2))


@dataclass(frozen=True)
class NoiseParams:
    """Per-pulse damping probabilities, optionally carrying the times that
    produced them.  Construct as ``NoiseParams(lambda_a, lambda_p)`` or via
    ``from_times``."""

    lambda_a: float
    lambda_p: float
    t1: float | None = None
    t2: float | None = None
    t_star: float | None = None

    def __post_init__(self) -> None:
        for name in ("lambda_a", "lambda_p"):
            lam = getattr(self, name)
            if not math.isfinite(lam) or lam < 0.0 or lam > 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
            object.__setattr__(self, name, _clamp(lam))
        # A decoded manifest reaches this constructor directly: times, if
        # given, must be all three and must produce the probabilities, each
        # within 1e-9 of its value from the times, relative to that value.
        times = (self.t1, self.t2, self.t_star)
        if times != (None, None, None) and (None in times or any(
            abs(lam - want) > 1e-9 * abs(want)
            for lam, want in zip((self.lambda_a, self.lambda_p), damping_probabilities(*times))
        )):
            raise ValueError("t1, t2 and t_star must be all given, and yield lambda_a and "
                             "lambda_p, or all null")

    @classmethod
    def from_times(cls, t1: float, t2: float, t_star: float) -> "NoiseParams":
        la, lp = damping_probabilities(t1, t2, t_star)
        return cls(la, lp, t1=t1, t2=t2, t_star=t_star)

    @classmethod
    def from_lambda(cls, lam: float) -> "NoiseParams":
        """Equal amplitude and phase damping probability."""
        return cls(lam, lam)

    def assuming_drift(self, k: float) -> "NoiseParams":
        """Noise parameters a calibration-time optimizer assumes when the
        system's true coherence times are k times the assumed ones.

        Assumed T = system T / k, equivalently assumed lambda =
        1 - (1 - lambda_sys)^k; k = 1 returns an identical model.
        """
        if not math.isfinite(k) or k <= 0:
            raise ValueError("drift factor k must be positive and finite")
        if self.t1 is not None and self.t2 is not None and self.t_star is not None:
            return NoiseParams.from_times(self.t1 / k, self.t2 / k, self.t_star)
        la = -math.expm1(k * math.log1p(-self.lambda_a))
        lp = -math.expm1(k * math.log1p(-self.lambda_p))
        return NoiseParams(la, lp)


def _damping(la: float, lp: float):
    """The constants of the noisy part of the native gate, between its outer
    frame changes R_z(beta) and R_z(delta), that do not depend on gamma:
    the damping set (e^2, e (1-la), e la, la) with e = sqrt(1-la) sqrt(1-lp).
    A caller (an RB circuit, a sweep cell, ``optimize_gate``) builds it once
    and passes it to every map and every optimizer call.

    On the Bloch vector each pulse R_x(+-pi/2) is a rotation followed by the
    damping D = diag(e, e, 1-la) and the offset (0, 0, la).  The pulse pair
    therefore acts as n -> K n + t0 with K = D Rx(-pi/2) Rz(gamma) D Rx(pi/2):

        K = [[ e^2 cos(gamma),         0,         e^2 sin(gamma)       ],
             [ 0,                      e (1-la),  0                    ],
             [-e (1-la) sin(gamma),    0,         e (1-la) cos(gamma)  ]]

    and t0 = (0, e la, la); R_z(gamma) fixes the first pulse's offset, so t0
    does not depend on gamma.
    """
    e = math.sqrt(1.0 - la) * math.sqrt(1.0 - lp)
    return e * e, e * (1.0 - la), e * la, la


# The damping set of the noiseless gate, under which the map is the gate's
# rotation R.
_NOISELESS = _damping(0.0, 0.0)


def _apply_all(beta: float, gamma: float, delta: float, dampings, rs, cos=math.cos, sin=math.sin):
    """The images A r + t = Rz(beta) (K Rz(delta) r + t0) under the noisy
    native gate of every Bloch vector r in rs, for every damping set of
    ``_damping`` in dampings, as a list of float 3-tuples, damping-major:
    the images of rs under dampings[0], then under dampings[1], and so on.
    The angle frame is built once, and K once per damping set.  Exact for
    pure and mixed inputs.  Given numpy's ``cos`` and ``sin``, the angles
    and each r's entries may be equally long arrays, mapped elementwise in
    the same floats (numpy's cos, sin, +, - and * round as libm and Python
    do): the batch of ``optimize._optimize_rows`` and a knowledge row's
    scoring do so."""
    cg, sg = cos(gamma), sin(gamma)
    cd, sd = cos(delta), sin(delta)
    cb, sb = cos(beta), sin(beta)
    images = []
    for ee, k11, t0y, t0z in dampings:  # e^2, e (1 - la), e la, la
        k00, k02, k20, k22 = ee * cg, ee * sg, -k11 * sg, k11 * cg
        for x, y, z in rs:
            x, y = cd * x - sd * y, sd * x + cd * y
            x, y, z = k00 * x + k02 * z, k11 * y + t0y, k20 * x + k22 * z + t0z
            images.append((cb * x - sb * y, sb * x + cb * y, z))
    return images


def _apply_chain(cg, sg, cd, sd, cb, sb, damping, r):
    """The states of the Bloch vector r carried through a sequence of noisy
    native gates under one damping set: [r, A_0 r + t_0, A_1 (A_0 r + t_0)
    + t_1, ...] as float 3-tuples, one more than there are gates.  The
    gates come as the float lists of their cos and sin of gamma, delta and
    beta, computed once for the whole sequence; each step is
    ``_apply_all``'s floats in its order."""
    ee, k11, t0y, t0z = damping  # e^2, e (1 - la), e la, la
    x, y, z = r
    states = [r]
    for cg, sg, cd, sd, cb, sb in zip(cg, sg, cd, sd, cb, sb):
        k00, k02, k20, k22 = ee * cg, ee * sg, -k11 * sg, k11 * cg
        x, y = cd * x - sd * y, sd * x + cd * y
        x, y, z = k00 * x + k02 * z, k11 * y + t0y, k20 * x + k22 * z + t0z
        x, y = cb * x - sb * y, sb * x + cb * y
        states.append((x, y, z))
    return states
