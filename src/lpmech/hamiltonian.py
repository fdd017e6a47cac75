"""Dual-side mechanics: Poisson bracket, Hamiltonian flow, Legendre maps.

States live in dual coordinates (q, p, nu) with p the base covector and nu
the fiber covector.  The bracket uses a connection-corrected base
derivative; its conventions are pinned by the affine-function check against
the section bracket, not chosen freely.

The bracket and the vector field keep their scalar loops on purpose, not
for want of an array form (``@`` and object-dtype einsum carry dual numbers
too): the bracket pairs its skew terms so that {f, f} cancels term by term,
and the fixed term order keeps HP trajectories bit-for-bit the same.  The
loops run on Python lists (``tolist()`` of the tables, nu and the gradient),
whose float ``+`` and ``*`` are the IEEE operations of numpy's float64
scalars, so the term order still fixes the bits; on object input the lists
hold the same duals.  Both take the connection-corrected base derivative
from one loop, _cov_q.
Jacobi-identity tests push dual numbers through nested bracket evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _dual
from ._textfile import csv_text, write_text
from .errors import DimensionMismatch, NoConvergence
from .lpbundle import LPBundleChart, Section, section_bracket
from .smoothmap import SmoothMap, eval_map
from .dynamics import (
    LPLagrangian,
    LPState,
    Trajectory,
    _check_slots,
    _integrate_fixed,
    _jet,
    _scalar_body,
    _solve_velocity_block,
    _split_map,
    _trajectory_table,
)


@dataclass(frozen=True)
class HPState:
    q: np.ndarray
    p: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        for name in ("q", "p", "nu"):
            object.__setattr__(
                self, name, np.array(getattr(self, name), dtype=float).reshape(-1)
            )
        if self.q.shape != self.p.shape:
            raise DimensionMismatch("q and p must have the same length")


@dataclass(frozen=True)
class DualObservable:
    """A scalar function of (q, p, nu), packed as one vector of length 2n+m."""

    f: SmoothMap

    def __post_init__(self):
        if self.f.out_dim != 1:
            raise DimensionMismatch("observables are scalar valued")

    @staticmethod
    def from_callable(n, m, fn, name=""):
        return DualObservable(_split_map(n, m, fn, name))


@dataclass(frozen=True)
class Hamiltonian:
    bundle: LPBundleChart
    H: SmoothMap
    name: str = ""

    def __post_init__(self):
        n, m = self.bundle.n, self.bundle.m
        if self.H.in_dim != 2 * n + m or self.H.out_dim != 1:
            raise DimensionMismatch(
                f"Hamiltonian must map R^{2 * n + m} to a scalar"
            )

    @staticmethod
    def from_callable(bundle, fn, name=""):
        return Hamiltonian(bundle, _split_map(bundle.n, bundle.m, fn, name), name)


def _obs_map(obj):
    if isinstance(obj, DualObservable):
        return obj.f
    if isinstance(obj, Hamiltonian):
        return obj.H
    if isinstance(obj, SmoothMap):
        return obj
    raise TypeError(f"not an observable: {obj!r}")


def _packed(b: LPBundleChart, s):
    """s as one (q, p, nu) vector; an HPState must have slot lengths
    (n, n, m) on b, a packed vector is passed through."""
    if isinstance(s, HPState):
        _check_slots(b, (s.q, s.p, s.nu))
        return np.concatenate([s.q, s.p, s.nu])
    return np.asarray(s).reshape(-1)


def _grad(fm: SmoothMap, x):
    return _dual.gradient(_scalar_body(fm), x)


def _real_vec(x):
    x = np.asarray(x).reshape(-1)
    return x if x.dtype != object else np.array([_dual.real_part(e) for e in x])


def _check_obs_dims(b, *obs):
    d = 2 * b.n + b.m
    for fm in obs:
        if fm.in_dim != d:
            raise DimensionMismatch(
                f"observable takes R^{fm.in_dim}, chart needs R^{d}"
            )


def _cov_q(G, nu, grad):
    """The connection-corrected base derivative of an observable from its
    packed gradient: d_q_i f + Gamma^b_{ia} nu_b d_nu_a f, one per base
    direction i.  G, nu and grad are (nested) lists."""
    n, m = len(G), len(nu)
    out = []
    for i in range(n):
        val = grad[i]
        for bb in range(m):
            row = G[i][bb]
            for a in range(m):
                val = val + row[a] * nu[bb] * grad[2 * n + a]
        out.append(val)
    return out


def poisson_bracket(b: LPBundleChart, f, g, s) -> float:
    """{f, g} at the dual point s; antisymmetric, connection-corrected.

    Accepts HPState, with slot lengths (n, n, m) (else DimensionMismatch),
    or a packed (q, p, nu) vector, which may carry duals; the result is then
    a dual, enabling nested brackets.
    """
    fm, gm = _obs_map(f), _obs_map(g)
    _check_obs_dims(b, fm, gm)
    n, m = b.n, b.m
    x = _packed(b, s)
    q, nu = x[:n], x[2 * n :].tolist()
    b.base.require_inside(_real_vec(q))

    gf = _grad(fm, x).tolist()
    gg = _grad(gm, x).tolist()
    G, C, Om = (t.tolist() for t in b.tables(q))

    fq, gq = _cov_q(G, nu, gf), _cov_q(G, nu, gg)
    fp, gp = gf[n : 2 * n], gg[n : 2 * n]
    fnu, gnu = gf[2 * n :], gg[2 * n :]

    # pair the skew-tensor contractions so {f, f} cancels term by term
    total = 0.0
    for i in range(n):
        total = total + (fq[i] * gp[i] - gq[i] * fp[i])
    for a in range(m):
        for i in range(n):
            for j in range(i + 1, n):
                total = total + nu[a] * Om[a][i][j] * (
                    fp[i] * gp[j] - fp[j] * gp[i]
                )
    for g_ in range(m):
        for a in range(m):
            for bb in range(a + 1, m):
                total = total + nu[g_] * C[g_][a][bb] * (
                    gnu[a] * fnu[bb] - gnu[bb] * fnu[a]
                )
    return total if isinstance(total, (_dual.Dual, _dual._Jet)) else float(total)


def _affine_observable(b, Z: Section):
    def body(q, p, nu):
        Xq = eval_map(Z.X, q).reshape(-1)
        wq = eval_map(Z.w, q).reshape(-1)
        return p @ Xq + nu @ wq

    return DualObservable(_split_map(b.n, b.m, body))


def affine_bracket_check(b: LPBundleChart, Z1: Section, Z2: Section, s: HPState):
    """|{P(Z1), P(Z2)} + P([Z1, Z2])| at s, with P(X+w) = <p, X> + <nu, w>.

    Zero for the implemented conventions; any sign flip in the bracket or
    the section bracket shows up here as an O(1) residual.
    """
    lhs = poisson_bracket(b, _affine_observable(b, Z1), _affine_observable(b, Z2), s)
    base, fiber = section_bracket(b, Z1, Z2, s.q)
    rhs = float(s.p @ np.asarray(base, dtype=float)) + float(
        s.nu @ np.asarray(fiber, dtype=float)
    )
    return abs(lhs + rhs)


def hamiltonian_vector_field(b: LPBundleChart, H, s):
    """(qdot, pdot, nudot) of the bracket flow of H at s.

    Satisfies df/dt = {f, H} for every observable f; that identity is the
    convention test.  Accepts packed dual input like poisson_bracket.
    """
    fm = _obs_map(H)
    _check_obs_dims(b, fm)
    x = _packed(b, s)
    b.base.require_inside(_real_vec(x[: b.n]))
    return _vector_field(b, fm, x)


def _vector_field(b: LPBundleChart, fm: SmoothMap, x):
    """hamiltonian_vector_field of fm at a packed x whose q is inside the chart."""
    n, m = b.n, b.m
    q, nu = x[:n], x[2 * n :].tolist()
    grad = _grad(fm, x).tolist()
    G, C, Om = (t.tolist() for t in b.tables(q))
    qdot, hnu = grad[n : 2 * n], grad[2 * n :]

    pdot = []
    for i, cq in enumerate(_cov_q(G, nu, grad)):
        val = -cq
        for a in range(m):
            row = Om[a][i]
            for j in range(n):
                val = val + nu[a] * row[j] * qdot[j]
        pdot.append(val)
    nudot = []
    for a in range(m):
        val = 0.0
        for g_ in range(m):
            for bb in range(m):
                val = val + C[g_][bb][a] * hnu[bb] * nu[g_]
        for i in range(n):
            for bb in range(m):
                val = val + G[i][bb][a] * qdot[i] * nu[bb]
        nudot.append(val)

    return np.array(qdot), np.array(pdot), np.array(nudot)


def integrate_hp(b: LPBundleChart, H, s0: HPState, t0, t1, h, method="rk4"):
    """Fixed-step integration of the dual-side equations on (q, p, nu);
    s0 must have slot lengths (n, n, m), else DimensionMismatch.  Only the
    integrator checks the stage points against the chart."""
    fm = _obs_map(H)
    _check_obs_dims(b, fm)

    def ydot(y):
        return np.concatenate(_vector_field(b, fm, y)).astype(float)

    return _integrate_fixed(
        ydot, HPState, b, (s0.q, s0.p, s0.nu), t0, t1, h, method
    )


# ---------------------------------------------------------------------------
# Legendre correspondence


def legendre(sys: LPLagrangian, s: LPState) -> HPState:
    """Velocity state to dual state: p = dL/dqdot, nu = dL/dv."""
    n = sys.n
    grad = _jet(sys, s)[1]
    return HPState(s.q, grad[n : 2 * n], grad[2 * n :])


def inverse_legendre(sys: LPLagrangian, hs: HPState, guess: LPState):
    """Newton-solve the velocity state mapping to hs under legendre.

    The iteration runs on (qdot, v) at fixed q = hs.q, using the AD Hessian
    of L as the Jacobian, until the residual norm is at most 1e-12.  Raises
    NoConvergence after 50 steps and SingularHessian if the Jacobian
    degenerates along the way.
    """
    n = sys.n
    target = np.concatenate([hs.p, hs.nu])
    y = np.concatenate([guess.qdot, guess.v])
    for _ in range(50):
        s = LPState(hs.q, y[:n], y[n:])
        _, grad, H = _jet(sys, s)
        resid = grad[n:] - target
        if np.linalg.norm(resid) <= 1e-12:
            return s
        y = y - _solve_velocity_block(H[n:, n:], resid)
    raise NoConvergence("Newton iteration did not reach tolerance in 50 steps")


def hamiltonian_from_lagrangian(sys: LPLagrangian, hs: HPState, guess: LPState):
    """H(q, p, nu) = <p, qdot> + <nu, v> - L at the inverse-Legendre point."""
    s = inverse_legendre(sys, hs, guess)
    lval = float(sys.value(s.q, s.qdot, s.v))
    return float(hs.p @ s.qdot + hs.nu @ s.v - lval)


def write_hp_trajectory_csv(path, traj: Trajectory):
    """Write `t,q1..qn,p1..pn,nu1..num` rows at full double precision.

    The write is atomic, as for write_trajectory_csv.
    """
    write_text(path, csv_text(*_trajectory_table(traj, ("q", "p", "nu"))))
