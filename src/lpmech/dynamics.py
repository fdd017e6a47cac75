"""Dynamics on a bundle chart: equations of motion, integration, currents.

The state is a base point q, base velocity qdot, and fiber vector v.  A
Lagrangian is a scalar map of the packed vector (q, qdot, v); all partial
derivatives are taken with the dual-number machinery, so a plain Python
body is enough.

Conventions (fixed across the package):

    horizontal_i = dL/dq_i - mu.(Gamma_i v) - d/dt(dL/dqd_i)
                   + mu_a omega^a_{ij} qd_j
    vertical_a   = c^g_{ba} v_b mu_g - (Dmu/dt)_a
    (Dmu/dt)_a   = d/dt(mu_a) - mu_b Gamma^b_{ia} qd_i

with mu = dL/dv.  These are the stationarity conditions of the action under
variations whose fiber part is the covariant expression
Dw/dt + [v, w] + omega(dq, qd), rewritten in chart coordinates.  lp_operator
is their residual f - M (qddot, vdot), M the (qdot, v) block Hessian of L,
and accelerations solves that residual for zero.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import _dual
from ._textfile import csv_text, write_text
from .errors import DimensionMismatch, NonFiniteState, NumericalFailure, SingularHessian
from .lpbundle import LPBundleChart, transport
from .smoothmap import SmoothMap, as_map, eval_map, jacobian

HESSIAN_COND_LIMIT = 1e12


@dataclass(frozen=True)
class LPLagrangian:
    """A Lagrangian over a bundle chart.

    ``L`` maps the packed vector (q, qdot, v) of length 2n + m to a scalar.
    """

    bundle: LPBundleChart
    L: SmoothMap
    name: str = ""

    def __post_init__(self):
        n, m = self.bundle.n, self.bundle.m
        if self.L.in_dim != 2 * n + m or self.L.out_dim != 1:
            raise DimensionMismatch(
                f"Lagrangian must map R^{2 * n + m} to a scalar, got "
                f"R^{self.L.in_dim} -> R^{self.L.out_dim}"
            )

    @property
    def n(self):
        return self.bundle.n

    @property
    def m(self):
        return self.bundle.m

    @staticmethod
    def from_callable(bundle, f, name=""):
        """Wrap a plain function f(q, qdot, v) -> scalar."""
        return LPLagrangian(bundle, _split_map(bundle.n, bundle.m, f, name), name)

    def value(self, q, qdot, v):
        parts = [np.asarray(q), np.asarray(qdot), np.asarray(v)]
        if any(p.dtype == object for p in parts):
            x = np.concatenate([p.astype(object) for p in parts])
        else:
            x = np.concatenate([p.astype(float) for p in parts])
        return eval_map(self.L, x).reshape(-1)[0]


def _split_map(n, m, f, name=""):
    """Scalar map of the packed vector of length 2n + m, calling f on its
    three slots: (q, qdot, v) on the velocity side, (q, p, nu) on the dual."""

    def body(x):
        return f(x[:n], x[n : 2 * n], x[2 * n :])

    return SmoothMap(2 * n + m, 1, body, name=name)


def pullback(sys: LPLagrangian, T, Tinv) -> LPLagrangian:
    """L'(q, qdot, v') = L(q, qdot, T(q) v') on transport(sys.bundle, T, Tinv)."""
    bundle = transport(sys.bundle, T, Tinv)
    T = as_map(T, sys.n, (sys.m, sys.m), "T")

    def f(q, qdot, v):
        return sys.value(q, qdot, eval_map(T, q) @ v)

    return LPLagrangian.from_callable(bundle, f, sys.name)


@dataclass(frozen=True)
class LPState:
    q: np.ndarray
    qdot: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        for name in ("q", "qdot", "v"):
            object.__setattr__(
                self, name, np.array(getattr(self, name), dtype=float).reshape(-1)
            )
        if self.q.shape != self.qdot.shape:
            raise DimensionMismatch("q and qdot must have the same length")


class _Slots(NamedTuple):
    """The slots of a packed state as views, without LPState's copies."""

    q: np.ndarray
    qdot: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    """Sampled states on a time grid; the states are LPState or HPState.

    ``jets`` is empty, or holds one jet (value, gradient, Hessian) of the
    Lagrangian per state, in the packed (q, qdot, v) order: integrate_lp
    keeps the jet its first RK4 (or Euler) stage takes at each accepted
    state, and one more at the final state.  The diagnostics take those
    jets only when passed explicitly, for the Lagrangian that was
    integrated.  Memory grows linearly with the step count, a state plus
    its jet per row.  HP, projected and hand-built trajectories carry none.
    """

    times: np.ndarray
    states: tuple
    jets: tuple = ()

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "jets", tuple(self.jets))
        if len(t) != len(self.states) or len(t) < 2:
            raise ValueError("need matching times/states with at least two samples")
        if self.jets and len(self.jets) != len(t):
            raise ValueError("need one jet per state, or none")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")

    def __len__(self):
        return len(self.states)

    def q_array(self):
        return np.array([s.q for s in self.states])

    def qdot_array(self):
        return np.array([s.qdot for s in self.states])

    def v_array(self):
        return np.array([s.v for s in self.states])


def _check_slots(b: LPBundleChart, slots):
    """DimensionMismatch unless the three slots of a state have lengths
    (n, n, m) on the bundle b."""
    got = tuple(len(a) for a in slots)
    if got != (b.n, b.n, b.m):
        raise DimensionMismatch(
            f"state slots must have lengths ({b.n}, {b.n}, {b.m}), got {got}"
        )


def _pack(s: LPState):
    return np.concatenate([s.q, s.qdot, s.v])


def _scalar_body(fm: SmoothMap):
    """The scalar map fm as a plain function of its packed input."""

    def f(x):
        return eval_map(fm, x).reshape(-1)[0]

    return f


def _jet(sys: LPLagrangian, s, jet=None):
    """(value, gradient, Hessian) of L at s in the packed (q, qdot, v) order:
    ``jet`` when given, as in Trajectory.jets, else one grad_hess pass.
    Every derivative of L at a state reads it, but integrate_lp's stages,
    which take the jets on the packed vector."""
    return _dual.grad_hess(_scalar_body(sys.L), _pack(s)) if jet is None else jet


def _force_terms(sys: LPLagrangian, s, jet):
    """(f, M) at s: the packed (base, fiber) equation residual at zero
    second-order data, and the (qdot, v) block Hessian of L.  The residual
    at z = (qddot, vdot) is f - M z.  An empty fiber reads no tables and runs
    no einsum: each einsum would add or subtract a +0.0 vector, which keeps
    every bit but the sign of a -0.0 entry, and the final ``+ 0.0`` does.
    A point base (n = 0) runs only the bracket einsum of the fiber part:
    the Gamma einsum and the ``H @ qdot`` product run over an empty base
    axis and are +0.0 vectors, so the fiber part is that einsum ``+ 0.0``
    bit for bit, and the base part is empty."""
    n, m = sys.n, sys.m
    _, grad, H = _jet(sys, s, jet)
    if not m:
        return (grad[:n] - H[n : 2 * n, :n] @ s.qdot) + 0.0, H[n:, n:]
    if not n:
        C = sys.bundle.tables(s.q)[1]
        return np.einsum("gba,b,g->a", C, s.v, grad) + 0.0, H
    sq, sqd, sv = slice(0, n), slice(n, 2 * n), slice(2 * n, 2 * n + m)
    G, C, Om = sys.bundle.tables(s.q)
    mu = grad[sv]

    f_q = (
        grad[sq]
        - H[sqd, sq] @ s.qdot
        - np.einsum("a,iab,b->i", mu, G, s.v)
        + np.einsum("a,aij,j->i", mu, Om, s.qdot)
    )
    f_v = (
        np.einsum("gba,b,g->a", C, s.v, mu)
        + np.einsum("b,iba,i->a", mu, G, s.qdot)
        - H[sv, sq] @ s.qdot
    )
    return np.concatenate([f_q, f_v]), H[n:, n:]


def lp_operator(sys: LPLagrangian, s: LPState, qddot, vdot, jet=None):
    """Equation-of-motion residual at second-order data (qddot, vdot) of
    lengths n and m (else DimensionMismatch); s and ``jet`` as in
    accelerations.  Returns (base covector, fiber covector); both vanish
    exactly on solutions.
    """
    z = [np.array(a, dtype=float).reshape(-1) for a in (qddot, vdot)]
    if [len(a) for a in z] != [sys.n, sys.m]:
        raise DimensionMismatch(
            f"second-order data must have lengths ({sys.n}, {sys.m}), "
            f"got ({len(z[0])}, {len(z[1])})"
        )
    f, M = _force_terms(sys, s, jet)
    r = f - M @ np.concatenate(z)
    return r[: sys.n], r[sys.n :]


@functools.lru_cache(maxsize=1)
def _block_condition(shape, data):
    """2-norm condition of the float block with these C-order bytes, as
    np.linalg.cond gives it.  One block is kept: a run meets the same block
    at every stage whenever L is quadratic in the velocities."""
    try:
        s = np.linalg.svd(np.frombuffer(data).reshape(shape), compute_uv=False)
    except np.linalg.LinAlgError:  # the SVD does not converge on a NaN entry
        raise SingularHessian("velocity-block Hessian has a non-finite entry") from None
    # inf where s[0] / s[-1] is 0/0 or inf/inf (a zero block, or an infinite entry)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cond = s[0] / s[-1]
    return np.inf if np.isnan(cond) else cond


def _solve_velocity_block(M, rhs):
    """Solve M z = rhs in the (qdot, v) block Hessian M of a Lagrangian;
    raises SingularHessian when M has a non-finite entry or is ill
    conditioned (threshold 1e12)."""
    if not M.size:
        return np.zeros(0)
    cond = _block_condition(M.shape, np.asarray(M, dtype=float).tobytes())
    if not cond <= HESSIAN_COND_LIMIT:
        raise SingularHessian(
            f"velocity-block Hessian condition {cond:.3e} exceeds "
            f"{HESSIAN_COND_LIMIT:.0e}"
        )
    return np.linalg.solve(M, rhs)


def accelerations(sys: LPLagrangian, s: LPState, jet=None):
    """The unique (qddot, vdot) zeroing lp_operator's residual at s.

    Solves M z = f in the (qdot, v) block Hessian M of L; raises
    SingularHessian when that block is non-finite or ill conditioned
    (threshold 1e12).  ``jet`` is (value, gradient, Hessian) of L at s, as
    in Trajectory.jets; when None, it is one grad_hess pass.  Only s.q,
    s.qdot and s.v are read, so integrate_lp passes its stage points as
    _Slots.
    """
    f, M = _force_terms(sys, s, jet)
    z = _solve_velocity_block(M, f)
    return z[: sys.n], z[sys.n :]


def energy(sys: LPLagrangian, s: LPState, jet=None):
    """E = <dL/dqdot, qdot> + <dL/dv, v> - L.

    ``jet`` is (value, gradient, Hessian) of L at s, as in Trajectory.jets,
    and gives L and dL; when None, it is one grad_hess pass.
    """
    n = sys.n
    val, grad, _ = _jet(sys, s, jet)
    return float(grad[n : 2 * n] @ s.qdot + grad[2 * n :] @ s.v - float(val))


def _step(stage, y, t, h, method, k1):
    """One step from y at time t, whose first stage is k1; ``stage(x, s)``
    is the time derivative at the stage point x of time s."""
    if method == "rk4":
        k2 = stage(y + 0.5 * h * k1, t + 0.5 * h)
        k3 = stage(y + 0.5 * h * k2, t + 0.5 * h)
        k4 = stage(y + h * k3, t + h)
        return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y + h * k1


def _step_count(span, h):
    """The number of steps of size h in span; a ValueError unless it is a
    whole number of at least one whose time grid numpy can allocate."""
    ratio = float(span) / float(h)
    if not ratio < np.iinfo(np.intp).max // np.dtype(float).itemsize:
        raise ValueError(f"{ratio:.3g} steps exceed the largest numpy array")
    steps = int(round(ratio))
    if steps < 1 or abs(steps * h - span) > 1e-9 * max(1.0, abs(span)):
        raise ValueError("time span must be a whole number of steps")
    return steps


def _integrate_fixed(ydot, state_type, b, s0, t0, t1, h, method, jet=None):
    """Fixed-step RK4 or Euler on the packed vector of s0's three slots,
    which must have lengths (n, n, m) on the bundle b (else
    DimensionMismatch).

    ``ydot`` maps the packed vector to its time derivative, and
    ``state_type`` builds a state from the three slots, q first.  With
    ``jet`` (a map of the packed vector), ``ydot`` also takes jet(y) as a
    second argument: the first stage of each step is given the jet of the
    accepted state, and the trajectory keeps those jets, plus jet(y) at the
    final state, in Trajectory.jets.

    After each step the periodic coordinates of q are wrapped and the state
    is checked: a non-finite entry raises NonFiniteState and a non-periodic
    coordinate outside the chart raises ChartExit.  So does an RK4 stage
    point outside the chart, before ydot reads it.  A NumericalFailure
    raised by ydot that carries no time or q gets those of the last
    accepted step.
    """
    if method not in ("rk4", "euler"):
        raise ValueError(f"unknown method {method!r}")
    if h <= 0:
        raise ValueError("step size must be positive")
    steps = _step_count(float(t1) - float(t0), h)
    _check_slots(b, s0)

    dom, n = b.base, b.n
    y = np.concatenate([np.asarray(part, dtype=float) for part in s0])
    times = float(t0) + h * np.arange(steps + 1)
    states, jets = [], []

    def first_stage(x):
        if jet is None:
            return ydot(x)
        jets.append(jet(x))
        return ydot(x, jets[-1])

    def stage(x, s):
        dom.require_inside(x[:n], t=s)
        return ydot(x)

    # overflow and NaN are reported once, as NonFiniteState, not as warnings
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for k in range(steps + 1):
            t = float(times[k])
            if k:
                try:
                    y = _step(stage, y, float(times[k - 1]), h, method, first_stage(y))
                except NumericalFailure as exc:
                    if exc.t is None:
                        exc.t = float(times[k - 1])
                    if exc.q is None:
                        exc.q = states[-1].q
                    raise
            if not np.all(np.isfinite(y)):
                raise NonFiniteState(
                    "step produced a non-finite state", q=y[:n].copy(), t=t
                )
            y[:n] = dom.wrap(y[:n])
            dom.require_inside(y[:n], t=t)
            states.append(state_type(y[:n], y[n : 2 * n], y[2 * n :]))
        if jet is not None:
            jets.append(jet(y))

    return Trajectory(times, states, jets)


def integrate_lp(sys: LPLagrangian, s0: LPState, t0, t1, h, method="rk4"):
    """Fixed-step integration of (q, qdot, v); wraps periodic coordinates.

    Raises DimensionMismatch unless s0 has slot lengths (n, n, m),
    ChartExit if a non-periodic coordinate leaves the chart,
    NonFiniteState if a step produces a non-finite state, and propagates
    SingularHessian from the acceleration solve.  Each stage takes one jet
    (value, gradient, Hessian) of L; the trajectory keeps the jet of every
    state (see Trajectory), the final one taken without a solve.
    """
    n = sys.n
    f = _scalar_body(sys.L)

    def jet(y):
        return _dual.grad_hess(f, y)

    def ydot(y, j=None):
        s = _Slots(y[:n], y[n : 2 * n], y[2 * n :])
        qdd, vd = accelerations(sys, s, jet=jet(y) if j is None else j)
        return np.concatenate([s.qdot, qdd, vd])

    return _integrate_fixed(
        ydot, LPState, sys.bundle, (s0.q, s0.qdot, s0.v), t0, t1, h, method, jet
    )


# ---------------------------------------------------------------------------
# symmetry machinery


@dataclass(frozen=True)
class GroupAction:
    """Infinitesimal symmetry data.

    ``genQ(eta, q)`` is the base generator (length n, dual-safe in q);
    ``genV(eta, q, v)`` is the fiber-linear generator part rho'(eta)v.
    """

    dim_g: int
    genQ: callable
    genV: callable

    def __post_init__(self):
        if self.dim_g < 1:
            raise ValueError("need at least a one-parameter symmetry")


def _current(n, grad, etaQ):
    """J = <dL/dqdot, genQ> from the packed gradient and the base generator."""
    return float(grad[n : 2 * n] @ etaQ)


def noether_current(
    sys: LPLagrangian, act: GroupAction, s: LPState, eta, jet=None
):
    """J = <dL/dqdot, genQ(eta, q)>; linear in eta.  ``jet`` is (value,
    gradient, Hessian) of L at s, as for energy, and gives dL; when None,
    it is one grad_hess pass."""
    grad = _jet(sys, s, jet)[1]
    etaQ = np.asarray(act.genQ(np.asarray(eta, dtype=float), s.q), dtype=float)
    return _current(sys.n, grad, etaQ)


def noether_drift_residual(
    sys: LPLagrangian, act: GroupAction, traj: Trajectory, eta, jets=None
):
    """The current series and the residual of its drift identity.

    Returns (J, residual): J = noether_current at every state of ``traj``,
    and at the interior grid points

    residual = dJ/dt  +  <mu, omega(qdot, genQ) + rho'(eta)v + Gamma(genQ)v>

    dJ/dt uses the centered 5-point stencil, so the residual has
    len(traj) - 4 entries.  Vanishes (to integrator accuracy) along
    solutions of an invariant Lagrangian.  One gradient per state serves
    J and mu: the gradient of ``jets`` (one jet of L per state, such as
    traj.jets for the Lagrangian that was integrated), or of one grad_hess
    pass per state when None or empty.
    """
    N = len(traj)
    if N < 5:
        raise ValueError("trajectory too short for the 5-point stencil")
    t = traj.times
    hs = np.diff(t)
    h = hs[0]
    if np.max(np.abs(hs - h)) > 1e-9 * max(1.0, abs(h)):
        raise ValueError("drift residual needs a uniform time grid")

    eta = np.asarray(eta, dtype=float)
    n = sys.n
    grads = [_jet(sys, s, jet)[1] for s, jet in zip(traj.states, jets or [None] * N)]
    etaQs = [np.asarray(act.genQ(eta, s.q), dtype=float) for s in traj.states]
    J = np.array([_current(n, grad, etaQ) for grad, etaQ in zip(grads, etaQs)])
    dJdt = (-J[4:] + 8 * J[3:-1] - 8 * J[1:-3] + J[:-4]) / (12 * h)
    out = np.empty(N - 4)
    for i in range(2, N - 2):
        s, etaQ, mu = traj.states[i], etaQs[i], grads[i][2 * n :]
        G, _, Om = sys.bundle.tables(s.q)
        # rho'(eta)v plus the connection part Gamma(genQ)v
        gen = np.asarray(act.genV(eta, s.q, s.v), dtype=float)
        ver2 = gen + np.einsum("iab,i,b->a", G, etaQ, s.v)
        om_term = np.einsum("aij,i,j->a", Om, s.qdot, etaQ)
        out[i - 2] = dJdt[i - 2] + float(mu @ (om_term + ver2))
    return J, out


def invariance_residual(sys: LPLagrangian, act: GroupAction, s: LPState, eta):
    """Derivative of L along the lifted symmetry generator; zero iff invariant.

    The generator moves q by genQ, qdot by the linearized flow of genQ, and
    the fiber coordinates by rho'(eta)v.  (In the covariant split the fiber
    motion reads rho'(eta)v + Gamma(genQ)v, but the horizontal transport
    contributes the compensating -Gamma(genQ)v, so chart coordinates see
    the plain rho' term; the drift identity holds exactly in this pairing.)
    """
    n = sys.n
    eta = np.asarray(eta, dtype=float)
    grad = _jet(sys, s)[1]
    gen_map = SmoothMap(n, n, lambda qq: act.genQ(eta, qq), out_shape=(n,))
    JQ = np.asarray(jacobian(gen_map, s.q), dtype=float)
    etaQ = np.asarray(act.genQ(eta, s.q), dtype=float)
    genv = np.asarray(act.genV(eta, s.q, s.v), dtype=float)
    return float(
        grad[:n] @ etaQ + grad[n : 2 * n] @ (JQ @ s.qdot) + grad[2 * n :] @ genv
    )


# ---------------------------------------------------------------------------
# serialization


def _trajectory_table(traj: Trajectory, labels=("q", "qd", "v")):
    """CSV (header, rows) of a trajectory, rows an iterator: one column per
    time and per state entry, slot i headed labels[i]."""
    s0 = traj.states[0]
    slots = [f.name for f in fields(s0)]
    header = ["t"] + [
        f"{label}{i + 1}"
        for label, slot in zip(labels, slots)
        for i in range(len(getattr(s0, slot)))
    ]
    rows = (
        np.concatenate([[t]] + [getattr(s, slot) for slot in slots])
        for t, s in zip(traj.times, traj.states)
    )
    return header, rows


def write_trajectory_csv(path, traj: Trajectory):
    """Write `t,q1..qn,qd1..qdn,v1..vm` rows at full double precision.

    The write is atomic: a temp file in the target directory is renamed
    over the destination.  Output uses LF newlines regardless of platform.
    """
    write_text(path, csv_text(*_trajectory_table(traj)))
