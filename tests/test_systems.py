"""Catalog systems: wiring, conservation behavior, documented expectations."""

import functools

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from lpmech import _dual, dynamics, lpbundle
from lpmech.cli import _lp_residual_max, bundle_from_config, polynomial_map
from lpmech.dynamics import (
    GroupAction,
    LPLagrangian,
    LPState,
    accelerations,
    energy,
    integrate_lp,
    invariance_residual,
    noether_current,
    noether_drift_residual,
)
from lpmech.liegroups import _unitriangular_inverse
from lpmech.lpbundle import check_axioms
from lpmech.smoothmap import eval_map
from lpmech.systems import (
    CATALOG,
    SystemRecord,
    build_system,
    central_potential_particle,
    flat_bundle_particle,
    free_particle_planar,
    heisenberg_stages,
    parameter_lagrangian,
    rigid_body,
)


def test_every_record_passes_the_structure_axioms():
    for name, ctor in CATALOG.items():
        rec = ctor()
        report = check_axioms(rec.bundle, n_samples=40, seed=1)
        assert report.passed, f"{name}:\n{report.as_text()}"


def test_declared_actions_leave_the_lagrangian_invariant():
    rng = np.random.default_rng(8)
    for name, ctor in CATALOG.items():
        rec = ctor()
        if rec.action is None:
            continue
        for _ in range(50):
            q = rec.bundle.base.sample(rng)
            s = LPState(q, rng.normal(size=rec.bundle.n), rng.normal(size=rec.bundle.m))
            eta = rng.normal(size=rec.action.dim_g)
            assert abs(invariance_residual(rec.lagrangian, rec.action, s, eta)) < 1e-10


def test_build_system_lookup():
    rec = build_system("rigid_body", inertia=(2.0, 2.0, 4.0))
    assert np.allclose(rec.params["inertia"], [2.0, 2.0, 4.0])
    with pytest.raises(KeyError, match="unknown system"):
        build_system("pendulum")


# ---------------------------------------------------------------------------
# flat bundle


def test_flat_bundle_rejects_bad_metrics():
    with pytest.raises(ValueError, match="positive definite"):
        flat_bundle_particle(metric=[[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError, match="positive definite"):
        flat_bundle_particle(fiber_metric=[[-1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="omega_mode"):
        flat_bundle_particle(omega_mode="fancy")


def test_flat_bundle_zero_angle_keeps_fiber_constant():
    rec = flat_bundle_particle(holonomy_angle=0.0)
    traj = integrate_lp(rec.lagrangian, rec.initial, 0.0, 0.4, 2e-3)
    assert np.max(np.abs(traj.v_array() - rec.initial.v)) < 1e-12


def test_flat_bundle_straight_base_and_preserved_norm():
    rec = flat_bundle_particle()
    h = rec.params["fiber_metric"]
    traj = integrate_lp(rec.lagrangian, rec.initial, 0.0, 0.4, 2e-3)
    qd = traj.qdot_array()
    assert np.max(np.abs(qd - rec.initial.qdot)) < 1e-9
    norms = np.einsum("ka,ab,kb->k", traj.v_array(), h, traj.v_array())
    assert np.max(np.abs(norms - norms[0])) < 1e-10


def test_flat_bundle_holonomy_rotates_fiber_per_period():
    theta = np.pi / 2
    rec = flat_bundle_particle(holonomy_angle=theta)
    s0 = LPState([0.0, 0.0], [1.0, 0.0], [1.0, 0.0])
    traj = integrate_lp(rec.lagrangian, s0, 0.0, 1.0, 1e-3)
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    assert np.max(np.abs(traj.states[-1].v - R @ s0.v)) < 1e-6


def test_flat_bundle_closed_mode_stores_coupling():
    rec = flat_bundle_particle(omega_mode="closed")
    Om = np.asarray(eval_map(rec.bundle.omega, np.array([0.2, 0.1])), float)
    assert np.allclose(Om[:, 0, 1], [0.3, -0.2])


# ---------------------------------------------------------------------------
# rigid body


def test_rigid_body_principal_axis_is_equilibrium():
    rec = rigid_body()
    s = LPState(np.zeros(0), np.zeros(0), [0.9, 0.0, 0.0])
    _, vdot = accelerations(rec.lagrangian, s)
    assert np.max(np.abs(vdot)) < 1e-12


def test_rigid_body_conserves_energy_and_momentum_norm():
    rec = rigid_body()
    inertia = rec.params["inertia"]
    traj = integrate_lp(rec.lagrangian, rec.initial, 0.0, 0.3, 1e-3)
    e = [energy(rec.lagrangian, s) for s in traj.states]
    assert np.max(np.abs(np.diff(e))) < 1e-12
    mu2 = [np.sum((inertia * s.v) ** 2) for s in traj.states]
    assert np.max(np.abs(mu2 - mu2[0])) < 1e-9


# ---------------------------------------------------------------------------
# heavy top


def test_heavy_top_equations_of_motion():
    rec = parameter_lagrangian()
    inertia, mgl, chi = rec.params["inertia"], rec.params["mgl"], rec.params["chi"]
    rng = np.random.default_rng(5)
    xi = rng.normal(size=3)
    a = rng.normal(size=3)
    b = rng.normal(size=3)
    s = LPState(np.zeros(0), np.zeros(0), np.concatenate([xi, a, b]))
    _, vdot = accelerations(rec.lagrangian, s)
    assert np.max(np.abs(vdot[:3] - (np.cross(inertia * xi, xi) + mgl * np.cross(a, chi)) / inertia)) < 1e-10
    assert np.max(np.abs(vdot[3:6] - np.cross(a, xi))) < 1e-10
    assert np.max(np.abs(vdot[6:] - np.cross(b - mgl * chi, xi))) < 1e-10


def test_heavy_top_upright_spin_is_stationary():
    rec = parameter_lagrangian()
    s = LPState(np.zeros(0), np.zeros(0), [0.0, 0.0, 1.5, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    _, vdot = accelerations(rec.lagrangian, s)
    assert np.max(np.abs(vdot)) < 1e-10


def test_heavy_top_conserves_energy_and_vertical_momentum():
    rec = parameter_lagrangian()
    inertia = rec.params["inertia"]
    traj = integrate_lp(rec.lagrangian, rec.initial, 0.0, 0.3, 1e-3)
    e = [energy(rec.lagrangian, s) for s in traj.states]
    assert np.max(np.abs(np.diff(e))) < 1e-11
    j = [(inertia * s.v[:3]) @ s.v[3:6] for s in traj.states]
    assert np.max(np.abs(j - j[0])) < 1e-9
    norms = [s.v[3:6] @ s.v[3:6] for s in traj.states]
    assert np.max(np.abs(norms - norms[0])) < 1e-9


def test_heavy_top_without_potential_is_euler_flow():
    rec = parameter_lagrangian(mgl=0.0, b0=(0.0, 0.0, 0.0))
    euler = rigid_body(inertia=rec.params["inertia"])
    xi0 = np.array([0.4, 0.7, -0.3])
    s_top = LPState(np.zeros(0), np.zeros(0), np.concatenate([xi0, [0, 0, 1], [0, 0, 0]]))
    s_rb = LPState(np.zeros(0), np.zeros(0), xi0)
    t_top = integrate_lp(rec.lagrangian, s_top, 0.0, 0.5, 1e-3)
    t_rb = integrate_lp(euler.lagrangian, s_rb, 0.0, 0.5, 1e-3)
    assert np.max(np.abs(t_top.v_array()[:, :3] - t_rb.v_array())) < 1e-9


# ---------------------------------------------------------------------------
# nilpotent stages system


def test_heisenberg_momentum_structure():
    rec = heisenberg_stages()
    Q = rec.params["weights"]
    xi = np.array([0.7, -0.4, 0.9])
    s = LPState(np.zeros(0), np.zeros(0), xi)
    _, vdot = accelerations(rec.lagrangian, s)
    mu2 = Q[2] * xi[2]
    assert abs(vdot[0] - (-xi[1] * mu2) / Q[0]) < 1e-12
    assert abs(vdot[1] - (+xi[0] * mu2) / Q[1]) < 1e-12
    assert abs(vdot[2]) < 1e-12

    traj = integrate_lp(rec.lagrangian, rec.initial, 0.0, 0.5, 1e-3)
    center = Q[2] * traj.v_array()[:, 2]
    assert np.max(np.abs(center - center[0])) < 1e-13


def test_heisenberg_zero_coupling_freezes_velocity():
    rec = heisenberg_stages(coupling=0.0)
    s = LPState(np.zeros(0), np.zeros(0), [0.7, -0.4, 0.9])
    _, vdot = accelerations(rec.lagrangian, s)
    assert np.max(np.abs(vdot)) < 1e-14


# ---------------------------------------------------------------------------
# the group Lagrangians at the identity that reduce_lagrangian passes


def _twice_dual(rng, shape, inner, outer):
    """Random entries carrying two nested dual levels, as inside grad_hess."""
    flat = [
        _dual.Dual(_dual.Dual(a, b, inner), _dual.Dual(c, d, inner), outer)
        for a, b, c, d in rng.normal(size=(int(np.prod(shape)), 4))
    ]
    return np.array(flat, dtype=object).reshape(shape)


def _dual_components(y, levels):
    """The coefficients of y on every product of the given levels,
    outermost level first."""
    if not levels:
        return [y]
    lev, rest = levels[0], levels[1:]
    return _dual_components(_dual.primal_part(y, lev), rest) + _dual_components(
        _dual.tangent_part(y, lev), rest
    )


@pytest.mark.parametrize("ctor", [rigid_body, parameter_lagrangian, heisenberg_stages])
def test_group_lagrangian_at_float_identity_equals_dense_product(ctor):
    rec = ctor()
    L, G = rec.unreduced_lagrangian, rec.handle.scenario.G
    n = G.mat_dim
    inner, outer = _dual.fresh_level(), _dual.fresh_level()
    rng = np.random.default_rng(12)
    w = _twice_dual(rng, (rec.handle.scenario.dim_w,), inner, outer)
    empty = np.zeros(0)
    # hat's output with its float zeros, and a dense dual matrix
    xi = _twice_dual(rng, (G.dim,), inner, outer)
    for gdot in (G.hat(xi), _twice_dual(rng, (n, n), inner, outer)):
        fast = L(empty, empty, np.eye(n), gdot, w)
        dense = L(empty, empty, np.eye(n, dtype=object), gdot, w)
        got = _dual_components(fast, [outer, inner])
        want = _dual_components(dense, [outer, inner])
        assert all(isinstance(v, float) for v in got + want)
        assert got == want


@pytest.mark.parametrize(
    "ctor, inverse", [(rigid_body, np.transpose), (heisenberg_stages, _unitriangular_inverse)]
)
def test_inverse_times_off_the_identity_is_the_dense_product(ctor, inverse):
    G = ctor().handle.scenario.G
    rng = np.random.default_rng(13)
    g = np.asarray(G.exp(rng.normal(size=G.dim)), dtype=float)
    M = rng.normal(size=(G.mat_dim, G.mat_dim))
    got = G.inverse_times(g, M)
    assert got.dtype == object
    assert np.array_equal(got, inverse(g) @ M.astype(object))
    assert np.allclose(got.astype(float), np.linalg.solve(g, M), rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# point-symmetry particles


def test_free_particle_moves_on_straight_lines():
    rec = free_particle_planar()
    traj = integrate_lp(rec.lagrangian, rec.initial, 0.0, 1.0, 1e-2)
    expect = rec.initial.q[None, :] + traj.times[:, None] * rec.initial.qdot[None, :]
    assert np.max(np.abs(traj.q_array() - expect)) < 1e-12


def test_free_particle_conserves_all_three_currents():
    rec = free_particle_planar()
    traj = integrate_lp(rec.lagrangian, rec.initial, 0.0, 1.0, 1e-2)
    for k in range(3):
        eta = np.eye(3)[k]
        series = [noether_current(rec.lagrangian, rec.action, s, eta) for s in traj.states]
        assert np.max(np.abs(np.asarray(series) - series[0])) < 1e-12


def test_central_potential_conserves_energy_and_angular_momentum():
    rec = central_potential_particle()
    traj = integrate_lp(rec.lagrangian, rec.initial, 0.0, 1.0, 1e-3)
    e = [energy(rec.lagrangian, s) for s in traj.states]
    assert np.max(np.abs(np.diff(e))) < 1e-10
    series = [
        noether_current(rec.lagrangian, rec.action, s, np.array([1.0]))
        for s in traj.states
    ]
    assert np.max(np.abs(np.asarray(series) - series[0])) < 1e-10
    with pytest.raises(ValueError, match="stiffness"):
        central_potential_particle(stiffness=-1.0)


_POINT_SYSTEMS = {
    "flat_bundle_particle": lambda: flat_bundle_particle(omega_mode="closed"),
    "central_potential_particle": central_potential_particle,
    "free_particle_planar": free_particle_planar,
}


@settings(max_examples=30)
@given(name=st.sampled_from(sorted(_POINT_SYSTEMS)), data=st.data())
def test_drift_residual_returns_the_current_series(name, data):
    """The J that noether_drift_residual returns is noether_current at every
    state of the trajectory, bit for bit."""
    rec = _POINT_SYSTEMS[name]()
    p = rec.action.dim_g
    eta = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=p, max_size=p)))
    kick = np.array(data.draw(st.lists(st.floats(-0.5, 0.5), min_size=2, max_size=2)))
    s0 = rec.initial
    traj = integrate_lp(rec.lagrangian, LPState(s0.q, s0.qdot + kick, s0.v), 0.0, 0.01, 1e-3)
    J, residual = noether_drift_residual(rec.lagrangian, rec.action, traj, eta)
    want = [noether_current(rec.lagrangian, rec.action, s, eta) for s in traj.states]
    assert J.tolist() == want
    assert residual.shape == (len(traj) - 4,)


@pytest.mark.parametrize(
    "name", ["rigid_body", "parameter_lagrangian", "heisenberg_stages"]
)
def test_point_base_axiom_report_is_its_one_sample(name, monkeypatch):
    """On a point base every sample is the one point: the 100-sample report
    equals the one-sample report but for the count, and the point is
    evaluated once (three Jacobians)."""
    bundle = build_system(name).bundle
    assert bundle.n == 0
    calls = []
    jacobian = lpbundle.jacobian
    monkeypatch.setattr(
        lpbundle, "jacobian", lambda *args: calls.append(args) or jacobian(*args)
    )
    full = check_axioms(bundle, n_samples=100, seed=5)
    assert len(calls) == 3
    one = check_axioms(bundle, n_samples=1, seed=5)
    assert full.n_samples == 100 and one.n_samples == 1
    assert {**full.as_dict(), "n_samples": 1} == one.as_dict()
    assert full.as_text().replace("100 samples", "1 samples") == one.as_text()


def _inline_polynomial():
    """A polynomial Lagrangian on a bundle with constant Gamma and omega,
    read as the CLI reads an inline config, with the translations of q2 as
    a generator (L is not invariant under them; the current still exists)."""
    bundle = bundle_from_config({
        "n": 2,
        "m": 1,
        "gamma": {"constant": [[[0.4]], [[-0.2]]]},
        "omega": {"constant": [[[0.0, 0.3], [-0.3, 0.0]]]},
    })
    terms = [
        {"powers": powers, "coeff": coeff}
        for powers, coeff in (
            ([0, 0, 2, 0, 0], 0.5),
            ([0, 0, 0, 2, 0], 0.7),
            ([0, 0, 0, 0, 2], 0.6),
            ([0, 0, 1, 0, 1], 0.1),
            ([1, 0, 0, 1, 0], 0.2),
            ([2, 0, 0, 0, 0], -0.3),
            ([0, 0, 2, 0, 1], 0.05),
            ([0, 1, 0, 0, 2], 0.1),
        )
    ]
    L = polynomial_map(5, (), terms, "lagrangian")
    action = GroupAction(
        1, lambda eta, q: np.array([0.0, eta[0]]), lambda eta, q, v: 0.0 * v
    )
    initial = LPState([0.1, -0.2], [0.3, 0.2], [0.4])
    return SystemRecord(
        "inline", bundle, LPLagrangian(bundle, L), action=action, initial=initial
    )


_VARIANTS = {
    **{name: functools.partial(build_system, name) for name in CATALOG},
    "flat_bundle_particle-closed": functools.partial(
        build_system, "flat_bundle_particle", omega_mode="closed"
    ),
    "inline": _inline_polynomial,
}


@functools.cache
def _variant(name):
    return _VARIANTS[name]()


# no shrink phase: each example integrates, and a failure is plain as drawn
@pytest.mark.parametrize("name", sorted(_VARIANTS))
@settings(max_examples=15, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    steps=st.integers(5, 8),
    method=st.sampled_from(["rk4", "euler"]),
    data=st.data(),
)
def test_diagnostics_from_the_jets_equal_fresh_passes(name, steps, method, data):
    """Energy, every current, the drift residuals and the equation residual
    read off the integrator's jets equal fresh AD passes at the same states,
    bit for bit."""
    rec = _variant(name)
    sys, s0 = rec.lagrangian, rec.initial

    def kick(size, width):
        return np.array(
            data.draw(st.lists(st.floats(-width, width), min_size=size, max_size=size))
        )

    s0 = LPState(
        s0.q + kick(sys.n, 0.05), s0.qdot + kick(sys.n, 0.2), s0.v + kick(sys.m, 0.2)
    )
    traj = integrate_lp(sys, s0, 0.0, steps * 0.01, 0.01, method)
    for s, jet in zip(traj.states, traj.jets):
        val, grad, _ = jet
        want = _dual.gradient(dynamics._scalar_body(sys.L), dynamics._pack(s))
        assert grad.tolist() == want.tolist()
        assert val == float(eval_map(sys.L, dynamics._pack(s)).reshape(-1)[0])
        assert energy(sys, s, jet=jet) == energy(sys, s)
    fresh = [None] * len(traj)  # accelerations and lp_operator take their own pass
    assert _lp_residual_max(sys, traj, traj.jets) == _lp_residual_max(sys, traj, fresh)
    if rec.action is None:
        return
    for eta in np.eye(rec.action.dim_g):
        for s, jet in zip(traj.states, traj.jets):
            want = noether_current(sys, rec.action, s, eta)
            assert noether_current(sys, rec.action, s, eta, jet=jet) == want
        J, residual = noether_drift_residual(sys, rec.action, traj, eta, jets=traj.jets)
        J0, residual0 = noether_drift_residual(sys, rec.action, traj, eta)
        assert J.tolist() == J0.tolist() and residual.tolist() == residual0.tolist()
