"""Catalog of ready-made systems with documented expected behavior.

Each constructor returns an immutable SystemRecord wiring together a bundle
chart (or a reduction scenario's reduced chart), a Lagrangian, an optional
symmetry action and a suggested initial state; its docstring states the
properties the system is known to satisfy.  The records are what the
command line runs and what the acceptance tests exercise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import GroupAction, LPLagrangian, LPState
from .lpbundle import ChartDomain, LPBundleChart
from .liegroups import heisenberg3, so3
from .reduction import (
    PrincipalScenario,
    RepW,
    ReducedBundleHandle,
    build_reduced_bundle,
    reduce_lagrangian,
)


@dataclass(frozen=True)
class SystemRecord:
    """A fully wired example system.

    ``bundle`` always holds the chart the Lagrangian lives on; for reduced
    systems ``handle`` keeps the reduced bundle with its principal-bundle
    scenario and ``unreduced_lagrangian`` the invariant Lagrangian upstairs,
    so tests can run both sides of the reduction.
    """

    name: str
    bundle: LPBundleChart
    lagrangian: LPLagrangian
    action: GroupAction = None
    handle: ReducedBundleHandle = None
    unreduced_lagrangian: callable = None
    initial: LPState = None
    params: dict = field(default_factory=dict)


def _require_spd(M, what):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{what} must be a square matrix")
    if np.max(np.abs(M - M.T)) > 1e-12 or np.min(np.linalg.eigvalsh(M)) <= 0:
        raise ValueError(f"{what} must be symmetric positive definite")
    return M


def _positive3(w, what):
    w = np.asarray(w, dtype=float).reshape(3)
    if np.any(w <= 0):
        raise ValueError(f"{what} must be positive")
    return w


def _quadratic(w, xi):
    """0.5 sum_k w[k] xi[k]^2, the kinetic term of the three group systems."""
    return 0.5 * sum(w[k] * xi[k] * xi[k] for k in range(3))


def _reduced_record(name, sc, L_inv, v0, params):
    """The record of an invariant Lagrangian reduced over a point base."""
    handle = build_reduced_bundle(sc)
    return SystemRecord(
        name=name,
        bundle=handle.bundle,
        lagrangian=reduce_lagrangian(handle, L_inv),
        handle=handle,
        unreduced_lagrangian=L_inv,
        initial=LPState(np.zeros(0), np.zeros(0), v0),
        params=params,
    )


# ---------------------------------------------------------------------------
# flat bundle with monodromy


def flat_bundle_particle(
    metric=None, fiber_metric=None, holonomy_angle=np.pi / 2, omega_mode="zero"
):
    """Particle on a periodic strip carrying a 2-vector fiber.

    The connection is constant and skew, so parallel transport around the
    periodic direction rotates the fiber by ``holonomy_angle`` per period
    while the curvature stays zero.  With ``omega_mode="closed"`` a constant
    fiber-valued two-form couples base and fiber momenta, so the currents of
    the base translations drift, at the rate the Noether drift identity
    gives; with "zero" the base motion is a straight geodesic of the
    (constant) metric and the fiber norm is preserved by the transport.
    """
    g = _require_spd(
        np.array([[1.0, 0.2], [0.2, 1.5]]) if metric is None else metric, "metric"
    )
    h = _require_spd(
        0.7 * np.eye(2) if fiber_metric is None else fiber_metric, "fiber metric"
    )
    if omega_mode not in ("zero", "closed"):
        raise ValueError("omega_mode must be 'zero' or 'closed'")
    theta = float(holonomy_angle)
    period = 1.0

    base = ChartDomain(2, [[0.0, period], [-2.0, 2.0]], periodic=[True, False])
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    Gamma = np.zeros((2, 2, 2))
    Gamma[0] = -(theta / period) * J

    omega = None
    c0 = np.array([0.3, -0.2])
    if omega_mode == "closed":
        omega = np.zeros((2, 2, 2))
        omega[:, 0, 1] = c0
        omega[:, 1, 0] = -c0

    bundle = LPBundleChart(base, 2, Gamma=Gamma, omega=omega)

    def f(q, qd, v):
        val = 0.0
        for i in range(2):
            for j in range(2):
                val = val + g[i, j] * qd[i] * qd[j] + h[i, j] * v[i] * v[j]
        return val

    lagr = LPLagrangian.from_callable(bundle, f, name="flat-bundle particle")

    def genQ(eta, q):
        return np.asarray(eta, dtype=float)

    action = GroupAction(2, genQ, lambda eta, q, v: np.zeros(2))

    return SystemRecord(
        name="flat_bundle_particle",
        bundle=bundle,
        lagrangian=lagr,
        action=action,
        initial=LPState([0.1, 0.3], [1.0, 0.2], [1.0, 0.0]),
        params={
            "metric": g,
            "fiber_metric": h,
            "holonomy_angle": theta,
            "omega_mode": omega_mode,
            "period": period,
        },
    )


# ---------------------------------------------------------------------------
# free rigid body


def rigid_body(inertia=(1.0, 2.0, 3.0)):
    """Free rotation of a body with distinct principal moments.

    Reduced to body coordinates the motion follows the classical rotating
    momentum equations; kinetic energy and the squared momentum norm are
    both conserved, and spin about a principal axis is an equilibrium.
    """
    inertia = _positive3(inertia, "principal moments")
    G = so3()

    def L_inv(x, xdot, g, gdot, w):
        return _quadratic(inertia, G.unhat(G.inverse_times(g, gdot)))

    return _reduced_record(
        "rigid_body",
        PrincipalScenario(ChartDomain(0), G),
        L_inv,
        [0.4, 0.7, -0.3],
        {"inertia": inertia},
    )


# ---------------------------------------------------------------------------
# heavy top: parameter-dependent invariant Lagrangian


def parameter_lagrangian(
    inertia=(1.2, 1.2, 2.0),
    mgl=2.0,
    chi=(0.0, 0.0, 1.0),
    a0=(0.0, 0.0, 1.0),
    b0=(0.0, 0.0, 0.0),
    xi0=(0.4, 0.7, -0.3),
):
    """Heavy top written with an advected parameter pair in the fiber.

    The fiber is (body angular velocity, advected direction a, conjugate
    slot b); the fiber equations make a follow the body frame, drive b by
    the torque imbalance, and add the gravitational torque a x chi to the
    momentum equation.  The pairing <a, b> closes the energy bookkeeping:
    0.5<I xi, xi> + <a, b> is the conserved energy of the chart dynamics.
    Unforced (``mgl = 0``), the body velocity follows Euler's equations of
    the free rigid body.
    """
    inertia = _positive3(inertia, "principal moments")
    chi = np.asarray(chi, dtype=float).reshape(3)
    mgl = float(mgl)
    G = so3()

    gen = np.zeros((3, 6, 6))
    basis = np.asarray(G.basis, dtype=float)
    for a in range(3):
        gen[a, :3, :3] = basis[a]
        gen[a, 3:, 3:] = basis[a]

    def rho(gmat):
        out = np.zeros((6, 6))
        out[:3, :3] = gmat
        out[3:, 3:] = gmat
        return out

    def L_inv(x, xdot, g, gdot, w):
        xi = G.unhat(G.inverse_times(g, gdot))
        # columns: the advected direction a and its conjugate b, both g^-1 w
        avec, bvec = G.inverse_times(g, np.reshape(w, (2, 3)).T).T
        val = _quadratic(inertia, xi)
        val = val - mgl * sum(avec[k] * chi[k] for k in range(3))
        val = val + sum(avec[k] * bvec[k] for k in range(3))
        return val

    v0 = np.concatenate([np.asarray(xi0, float), np.asarray(a0, float), np.asarray(b0, float)])
    return _reduced_record(
        "parameter_lagrangian",
        PrincipalScenario(ChartDomain(0), G, repW=RepW(6, gen, rho)),
        L_inv,
        v0,
        {"inertia": inertia, "mgl": mgl, "chi": chi, "a0": np.asarray(a0, float)},
    )


# ---------------------------------------------------------------------------
# nilpotent group wired for staged reduction


def heisenberg_stages(coupling=1.0, weights=(1.0, 1.3, 1.7)):
    """Left-invariant quadratic dynamics on the nilpotent 3D group.

    The center is a one-parameter normal subgroup, which makes this the
    reference case for two-stage reduction; its momentum component is an
    exact constant of motion, and scaling ``coupling`` to zero turns the
    flow into uncoupled straight lines.
    """
    weights = _positive3(weights, "quadratic form weights")
    G = heisenberg3(coupling)

    def L_inv(x, xdot, g, gdot, w):
        return _quadratic(weights, G.unhat(G.inverse_times(g, gdot)))

    return _reduced_record(
        "heisenberg_stages",
        PrincipalScenario(ChartDomain(0), G),
        L_inv,
        [0.7, -0.4, 0.9],
        {"coupling": float(coupling), "weights": weights, "nidx": (2,)},
    )


# ---------------------------------------------------------------------------
# plain particles with point symmetries


def free_particle_planar():
    """Free particle in the plane with the full rigid-motion symmetry.

    It moves on straight lines at constant speed; the energy and the three
    currents (the two linear momenta and the angular momentum) are conserved.
    """
    base = ChartDomain(2, [[-6.0, 6.0], [-6.0, 6.0]])
    bundle = LPBundleChart(base, 0)

    def f(q, qd, v):
        return 0.5 * (qd[0] * qd[0] + qd[1] * qd[1])

    lagr = LPLagrangian.from_callable(bundle, f, name="free planar particle")

    def genQ(eta, q):
        e = np.asarray(eta, dtype=float)
        return np.array([e[0] - e[2] * q[1], e[1] + e[2] * q[0]])

    action = GroupAction(3, genQ, lambda eta, q, v: np.zeros(0))

    return SystemRecord(
        name="free_particle_planar",
        bundle=bundle,
        lagrangian=lagr,
        action=action,
        initial=LPState([1.0, 0.5], [0.3, -0.2], np.zeros(0)),
        params={},
    )


def central_potential_particle(stiffness=0.8):
    """Planar particle in a rotation-symmetric quadratic well.

    The energy and the angular momentum, the current of the rotations, are
    conserved.
    """
    k = float(stiffness)
    if k <= 0:
        raise ValueError("stiffness must be positive")
    base = ChartDomain(2, [[-3.0, 3.0], [-3.0, 3.0]])
    bundle = LPBundleChart(base, 0)

    def f(q, qd, v):
        return 0.5 * (qd[0] * qd[0] + qd[1] * qd[1]) - 0.5 * k * (
            q[0] * q[0] + q[1] * q[1]
        )

    lagr = LPLagrangian.from_callable(bundle, f, name="central potential")

    def genQ(eta, q):
        e = np.asarray(eta, dtype=float)
        return np.array([-e[0] * q[1], e[0] * q[0]])

    action = GroupAction(1, genQ, lambda eta, q, v: np.zeros(0))

    return SystemRecord(
        name="central_potential_particle",
        bundle=bundle,
        lagrangian=lagr,
        action=action,
        initial=LPState([1.2, 0.0], [0.0, 0.9], np.zeros(0)),
        params={"stiffness": k},
    )


CATALOG = {
    "flat_bundle_particle": flat_bundle_particle,
    "rigid_body": rigid_body,
    "parameter_lagrangian": parameter_lagrangian,
    "heisenberg_stages": heisenberg_stages,
    "free_particle_planar": free_particle_planar,
    "central_potential_particle": central_potential_particle,
}


def build_system(name, **params) -> SystemRecord:
    """Look up a catalog system by name and construct it."""
    if name not in CATALOG:
        known = ", ".join(sorted(CATALOG))
        raise KeyError(f"unknown system '{name}' (catalog: {known})")
    return CATALOG[name](**params)
