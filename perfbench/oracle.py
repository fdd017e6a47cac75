"""Plain numpy RK4 models: an AD-free oracle and the step-rate floor.

The rigid body (body angular velocity w, inertia I) follows the Euler
equations I w' = (I w) x w, and in momentum form nu' = nu x (nu / I).  The
central-potential particle follows q'' = -k q.  Both use the same fixed-step
RK4 update as lpmech, so on the same grid the final states agree to rounding.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

RIGID_BODY_INERTIA = np.array([1.0, 2.0, 3.0])
CENTRAL_STIFFNESS = 0.8


def rk4(f, y0, h, steps):
    y = np.array(y0, dtype=float)
    for _ in range(steps):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def _euler_rhs(inertia):
    return lambda w: np.cross(inertia * w, w) / inertia


def _momentum_rhs(inertia):
    return lambda nu: np.cross(nu, nu / inertia)


def _central_rhs(k):
    return lambda y: np.concatenate([y[2:], -k * y[:2]])


def rigid_body(v0, h, steps, inertia=RIGID_BODY_INERTIA):
    """Final body angular velocity."""
    return rk4(_euler_rhs(inertia), v0, h, steps)


def rigid_body_momentum(nu0, h, steps, inertia=RIGID_BODY_INERTIA):
    """Final body momentum."""
    return rk4(_momentum_rhs(inertia), nu0, h, steps)


def central_potential(q0, qdot0, h, steps, k=CENTRAL_STIFFNESS):
    """Final (q, qdot) stacked."""
    return rk4(_central_rhs(k), np.concatenate([q0, qdot0]), h, steps)


def step_rate(steps=400, h=1e-3, repeats=5):
    """Median RK4 steps per second of the two plain models on one grid."""
    rates = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        rigid_body([0.4, 0.7, -0.3], h, steps)
        central_potential([1.2, 0.0], [0.0, 0.9], h, steps)
        rates.append(2 * steps / (time.perf_counter() - t0))
    return statistics.median(rates)
