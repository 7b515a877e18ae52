"""Machine pace: a fixed reference kernel timed beside the program.

The benchmark runs on shared machines whose speed drifts by tens of per
cent from one minute to the next, for example when the host hands the
virtual CPUs to other work or a busy neighbour shares the core.  Two
measures take most of that drift out of the timings:

- Timed regions use the process's CPU time, not wall time.  CPU time
  leaves out the slices the scheduler gives to other processes and,
  with paravirtual steal-time accounting, the time the host takes the
  virtual CPU away.  With one BLAS thread and nothing else running, it
  equals wall time.
- CPU time still stretches when the core itself runs slower.  So the
  benchmark times :func:`kernel`, a fixed piece of work of the same kind
  as the program's, between every two frames, and scales each timing by
  ``NOMINAL_S`` over the kernel's time around it.  A timing then reads as
  CPU time on a machine on which the kernel takes ``NOMINAL_S``.

The kernel has two parts.  About 60% of its time is a Python loop of
tiny numpy calls and dictionary lookups.  The rest is Gauss-Newton steps
of a camera pose against 200 projected points: a Jacobian built column
by column, its normal equations and their solution, as in the program's
solvers.  In replays of one fixed frame, the first part alone slowed
more than the program when the machine slowed, and the Gauss-Newton
loop alone less; a mix of about 60:40 came closest (see README.md).

The kernel uses numpy and Python only, never ``semtrack``: a change to
the program cannot change the yardstick.
"""

from __future__ import annotations

import time

import numpy as np

# CPU seconds of one kernel call, about its time on the machine of the
# reference figures in README.md when nothing slowed it; the scale of
# every normalised timing
NOMINAL_S = 4.5e-3
# kernel calls per pace sample; the sample is their minimum, which leaves
# out a call that an interrupt or a cache refill stretched
REPEATS = 3
# pace samples on each side of a frame that its scale is the median of.
# The machine's pace changes within seconds: over four minutes of one
# fixed frame of dense_traffic, the spread of its CPU time over the pace
# was least with the samples right before and after it (see README.md)
HALF_WINDOW = 1

_rng = np.random.default_rng(20180706)
_A = _rng.normal(size=(6, 6)) + 6.0 * np.eye(6)
_B = _rng.normal(size=(6, 6))
_C = _rng.normal(size=(40, 9))
_V = _rng.normal(size=6)
_P = _rng.normal(size=(400, 3))
_D = {i: (i, float(i)) for i in range(18000)}
_X = _rng.normal(size=(200, 3))
_UV = _rng.normal(scale=0.1, size=(200, 2))
GN_STEPS = 24


def _gauss_newton():
    """Small-angle pose steps of 200 points against fixed image points."""
    pose = np.zeros(6)
    for _ in range(GN_STEPS):
        w, t = pose[:3], pose[3:] + np.array([0.0, 0.0, 6.0])
        p = _X + np.cross(w, _X) + t
        inv_z = 1.0 / p[:, 2]
        res = (p[:, :2] * inv_z[:, None] - _UV).ravel()
        jac = np.zeros((2 * len(p), 6))
        jac[0::2, 3] = inv_z
        jac[1::2, 4] = inv_z
        jac[0::2, 5] = -p[:, 0] * inv_z ** 2
        jac[1::2, 5] = -p[:, 1] * inv_z ** 2
        jac[:, :3] = np.repeat(_X, 2, axis=0) * 0.01
        h = jac.T @ jac + 1e-3 * np.eye(6)
        pose = pose - 0.5 * np.linalg.solve(h, jac.T @ res)
    return float(pose @ pose)


def kernel():
    """The fixed reference work; returns a number so it is not skipped."""
    acc = _gauss_newton()
    for k in range(30):
        m = _A @ _B + _A
        x = np.linalg.solve(m, _V)
        s = np.linalg.svd(_C, compute_uv=False)
        r = _P @ m[:3, :3]
        acc += float(s[0]) + float(x.sum())
        acc += float(np.hypot(r[:, 0], r[:, 1]).mean())
        for j in range(k * 600, k * 600 + 600):
            acc += _D[j][1]
    return acc


def sample(repeats=REPEATS):
    """CPU seconds of one kernel call: the least of ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.process_time()
        kernel()
        best = min(best, time.process_time() - t0)
    return best


def local_pace(samples, half=HALF_WINDOW):
    """Pace of each interval between two samples: the median of the
    samples within ``half`` places of it.  ``samples`` has one more entry
    than there are intervals."""
    samples = np.asarray(samples, dtype=float)
    n = len(samples) - 1
    return np.array([np.median(samples[max(0, i - half + 1):i + half + 1])
                     for i in range(n)])


def normalise(cpu_s, pace_s):
    """CPU seconds scaled to a machine whose kernel takes ``NOMINAL_S``."""
    return np.asarray(cpu_s, dtype=float) * (NOMINAL_S
                                             / np.asarray(pace_s, float))
