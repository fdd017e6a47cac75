"""Tests for the equations of motion, integrators, and symmetry currents.

The equation residual is validated against hand-computed covectors and
against a brute-force discrete variational oracle: the AD derivative of a
discretized action under constrained fiber variations must match the
integrated residual pairing to second order in the grid spacing.
"""

import warnings

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from lpmech import _dual, dynamics
from lpmech.dynamics import (
    GroupAction,
    LPLagrangian,
    LPState,
    Trajectory,
    accelerations,
    energy,
    integrate_lp,
    invariance_residual,
    lp_operator,
    noether_current,
    noether_drift_residual,
    write_trajectory_csv,
)
from lpmech.errors import ChartExit, DimensionMismatch, SingularHessian
from lpmech.hamiltonian import Hamiltonian, HPState, integrate_hp
from lpmech.lpbundle import ChartDomain, LPBundleChart
from lpmech.systems import build_system, flat_bundle_particle


def box(n, lo=-4.0, hi=4.0, periodic=None):
    bounds = np.tile([lo, hi], (n, 1))
    return ChartDomain(n, bounds, periodic)


def quad_lagrangian(chart, A, b):
    """L(x) = 0.5 x.A x + b.x written with dual-safe scalar arithmetic."""
    d = 2 * chart.n + chart.m

    def f(q, qd, v):
        x = list(q) + list(qd) + list(v)
        s = 0.0
        for i in range(d):
            s = s + b[i] * x[i]
            for j in range(d):
                s = s + 0.5 * A[i, j] * x[i] * x[j]
        return s

    return LPLagrangian.from_callable(chart, f)


def free_particle(n):
    chart = LPBundleChart(box(n), 0)
    return LPLagrangian.from_callable(
        chart, lambda q, qd, v: 0.5 * sum(u * u for u in qd)
    )


def twisted_system(kappa=0.9, om0=0.3, om1=-0.2, s=0.7):
    """Two periodic-free base coordinates, a two-dimensional fiber, constant
    skew connection on the first coordinate, and a constant curvature form."""
    dom = ChartDomain(2, [[0.0, 1.0], [-2.0, 2.0]], [True, False])
    G = np.zeros((2, 2, 2))
    G[0] = [[0.0, kappa], [-kappa, 0.0]]
    Om = np.zeros((2, 2, 2))
    Om[0] = [[0.0, om0], [-om0, 0.0]]
    Om[1] = [[0.0, om1], [-om1, 0.0]]
    chart = LPBundleChart(dom, 2, Gamma=G, omega=Om)
    gm = np.array([[1.0, 0.2], [0.2, 1.5]])

    def f(q, qd, v):
        val = 0.0
        for i in range(2):
            for j in range(2):
                val = val + qd[i] * gm[i, j] * qd[j]
        return val + s * (v[0] * v[0] + v[1] * v[1])

    return LPLagrangian.from_callable(chart, f), G, Om


# ---------------------------------------------------------------------------
# containers


def test_lagrangian_dimension_check():
    chart = LPBundleChart(box(2), 1)
    from lpmech.smoothmap import SmoothMap

    with pytest.raises(DimensionMismatch):
        LPLagrangian(chart, SmoothMap(3, 1, lambda x: x[:1]))
    with pytest.raises(DimensionMismatch):
        LPLagrangian(chart, SmoothMap(5, 2, lambda x: x[:2]))


def test_lagrangian_value():
    sys, _, _ = twisted_system()
    q = np.array([0.1, 0.3])
    qd = np.array([0.5, -0.2])
    v = np.array([0.4, 0.1])
    expect = qd @ np.array([[1.0, 0.2], [0.2, 1.5]]) @ qd + 0.7 * (v @ v)
    assert np.isclose(sys.value(q, qd, v), expect)


def test_state_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        LPState([0.0, 1.0], [0.0], [])
    sys = hand_value_system()
    s = LPState([0.3, -0.2], [0.7, 0.4], [0.5])
    with pytest.raises(DimensionMismatch, match="second-order data"):
        lp_operator(sys, s, [0.2], [0.3])


def test_integrate_lp_rejects_a_state_of_the_wrong_length():
    """A closed flat particle has n = m = 2; an initial state with slot
    lengths (3, 3, 0) must not be read as q = [.1, .2], qdot = [.3, .1]."""
    flat = flat_bundle_particle(omega_mode="closed")
    s0 = LPState([0.1, 0.2, 0.3], [0.1, 0.2, 0.3], [])
    with pytest.raises(DimensionMismatch, match=r"\(2, 2, 2\), got \(3, 3, 0\)"):
        integrate_lp(flat.lagrangian, s0, 0.0, 0.01, 0.001)


def test_trajectory_validation():
    s = LPState([0.0], [1.0], [])
    with pytest.raises(ValueError):
        Trajectory([0.0], [s])
    with pytest.raises(ValueError):
        Trajectory([0.0, 0.0], [s, s])
    with pytest.raises(ValueError):
        Trajectory([0.0, 0.1, 0.2], [s, s])
    tr = Trajectory([0.0, 0.1], [s, s])
    assert len(tr) == 2
    assert tr.q_array().shape == (2, 1)
    assert tr.jets == ()
    with pytest.raises(ValueError, match="one jet per state"):
        Trajectory([0.0, 0.1], [s, s], jets=[(0.5, np.zeros(2), np.zeros((2, 2)))])


@pytest.mark.parametrize("method", ["rk4", "euler"])
def test_integration_keeps_the_jet_of_every_state(method):
    """One jet per state, equal bit for bit to a fresh grad_hess there: the
    first stage of each step and one more at the final state."""
    sys, _, _ = twisted_system()
    s0 = LPState([0.2, 0.1], [0.5, -0.2], [0.3, -0.1])
    traj = integrate_lp(sys, s0, 0.0, 0.05, 0.01, method)
    assert len(traj.jets) == len(traj) == 6
    for s, (val, grad, H) in zip(traj.states, traj.jets):
        want = dynamics._jet(sys, s)
        assert val == want[0]
        assert np.array_equal(grad, want[1]) and np.array_equal(H, want[2])


# ---------------------------------------------------------------------------
# the equation residual


def test_free_particle_is_critical():
    sys = free_particle(1)
    s = LPState([0.2], [0.7], [])
    hor, ver = lp_operator(sys, s, [0.0], [])
    assert np.allclose(hor, 0.0, atol=1e-14)
    assert ver.size == 0
    hor2, _ = lp_operator(sys, s, [0.3], [])
    assert np.isclose(hor2[0], -0.3)


def test_flat_fiber_constant_v_is_critical():
    chart = LPBundleChart(box(1), 2)
    sys = LPLagrangian.from_callable(
        chart, lambda q, qd, v: 0.5 * (v[0] * v[0] + v[1] * v[1])
    )
    s = LPState([0.1], [0.4], [0.3, -0.8])
    _, ver = lp_operator(sys, s, [0.9], [0.0, 0.0])
    assert np.allclose(ver, 0.0, atol=1e-14)


def hand_value_system():
    # n=2, m=1, constant connection (0.4, -0.6), curvature weight 0.8,
    # L = 0.5|qd|^2 + 0.5 v^2 + q1 v.  Worked out with pen and paper.
    G = np.zeros((2, 1, 1))
    G[0, 0, 0], G[1, 0, 0] = 0.4, -0.6
    Om = np.zeros((1, 2, 2))
    Om[0] = [[0.0, 0.8], [-0.8, 0.0]]
    chart = LPBundleChart(box(2), 1, Gamma=G, omega=Om)
    return LPLagrangian.from_callable(
        chart,
        lambda q, qd, v: 0.5 * (qd[0] * qd[0] + qd[1] * qd[1])
        + 0.5 * v[0] * v[0]
        + q[0] * v[0],
    )


def test_residual_hand_value():
    s = LPState([0.3, -0.2], [0.7, 0.4], [0.5])
    hor, ver = lp_operator(hand_value_system(), s, [0.2, -0.1], [0.3])
    assert np.allclose(hor, [0.396, -0.108], rtol=0, atol=1e-13)
    assert np.allclose(ver, [-0.968], rtol=0, atol=1e-13)


def test_accelerations_hand_value():
    # the velocity block Hessian is the identity, so the accelerations are
    # the residual of test_residual_hand_value at zero second-order data
    qdd, vd = accelerations(hand_value_system(), LPState([0.3, -0.2], [0.7, 0.4], [0.5]))
    assert np.allclose(qdd, [0.596, -0.208], rtol=0, atol=1e-13)
    assert np.allclose(vd, [-0.668], rtol=0, atol=1e-13)


def _einsum_force_terms(sys, s, jet):
    """The force terms as written for every base and fiber dimension, the
    reference for the empty-fiber and point-base branches of
    dynamics._force_terms."""
    n, m = sys.n, sys.m
    _, grad, H = jet
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


@st.composite
def empty_fiber_inputs(draw):
    n = draw(st.integers(0, 3))
    entry = st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(-3.0, 3.0)
    vec = lambda k: np.array(draw(st.lists(entry, min_size=k, max_size=k)), dtype=float)
    return n, vec(2 * n), vec(4 * n * n).reshape(2 * n, 2 * n), vec(n), vec(n)


# no shrink phase: a failing input is reported as drawn
@settings(max_examples=200, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(empty_fiber_inputs())
def test_empty_fiber_force_terms_match_the_einsum_form_bit_for_bit(case):
    """m = 0 skips the tables and the einsums; f, M and the lp_operator
    residual keep every bit, signed zeros included."""
    n, grad, H, qdot, qddot = case
    sys = LPLagrangian.from_callable(LPBundleChart(box(n), 0), lambda q, qd, v: 0.0)
    s = LPState(np.zeros(n), qdot, [])
    jet = (0.0, grad, H)
    f, M = dynamics._force_terms(sys, s, jet)
    f_ref, M_ref = _einsum_force_terms(sys, s, jet)
    assert f.tobytes() == f_ref.tobytes() and M.tobytes() == M_ref.tobytes()
    hor, ver = lp_operator(sys, s, qddot, [], jet=jet)
    assert hor.tobytes() == (f_ref - M_ref @ qddot).tobytes() and ver.size == 0


def _bits(a):
    """The uint64 view of a float array, zero signs included."""
    a = np.asarray(a)
    assert a.dtype == np.float64
    return a.shape, a.view(np.uint64).tolist()


@pytest.mark.parametrize("name", ["rigid_body", "parameter_lagrangian", "heisenberg_stages"])
def test_point_base_force_terms_of_the_group_systems_keep_every_bit(name):
    """n = 0 runs only the bracket einsum of the fiber part; on the three
    group systems, at seeded states, f and M are those of the full body."""
    sys = build_system(name).lagrangian
    assert sys.n == 0 and sys.m > 0
    rng = np.random.default_rng(29)
    for _ in range(4):
        s = LPState(np.zeros(0), np.zeros(0), rng.standard_normal(sys.m))
        jet = dynamics._jet(sys, s)
        f, M = dynamics._force_terms(sys, s, jet)
        f_ref, M_ref = _einsum_force_terms(sys, s, jet)
        assert _bits(f) == _bits(f_ref) and _bits(M) == _bits(M_ref)


@st.composite
def point_base_inputs(draw):
    m = draw(st.integers(1, 3))
    entry = st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(-3.0, 3.0)
    vec = lambda k: np.array(draw(st.lists(entry, min_size=k, max_size=k)), dtype=float)
    c = vec(m**3)
    assume(np.any(c != 0))
    return m, c.reshape(m, m, m), vec(m), vec(m * m).reshape(m, m), vec(m), vec(m)


# no shrink phase: a failing input is reported as drawn
@settings(max_examples=200, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(point_base_inputs())
def test_point_base_force_terms_match_the_einsum_form_bit_for_bit(case):
    """A point base with a nonzero bracket, and v and mu that may hold -0.0:
    f, M and the lp_operator residual keep every bit of the full body."""
    m, c, mu, H, v, vdot = case
    sys = LPLagrangian.from_callable(LPBundleChart(box(0), m, c=c), lambda q, qd, v: 0.0)
    s = LPState([], [], v)
    jet = (0.0, mu, H)
    f, M = dynamics._force_terms(sys, s, jet)
    f_ref, M_ref = _einsum_force_terms(sys, s, jet)
    assert _bits(f) == _bits(f_ref) and _bits(M) == _bits(M_ref)
    hor, ver = lp_operator(sys, s, [], vdot, jet=jet)
    assert hor.size == 0 and _bits(ver) == _bits(f_ref - M_ref @ vdot)


def test_residual_linear_in_momentum():
    # scaling the fiber slot of L scales the fiber covector linearly
    G = np.zeros((1, 2, 2))
    G[0] = [[0.1, -0.3], [0.2, 0.05]]
    chart = LPBundleChart(box(1), 2, Gamma=G)
    s = LPState([0.2], [0.6], [0.3, -0.4])
    z = ([0.1], [0.25, 0.15])

    def make(scale):
        return LPLagrangian.from_callable(
            chart,
            lambda q, qd, v: 0.5 * qd[0] * qd[0]
            + scale * (v[0] * v[0] + 0.5 * v[1] * v[1]),
        )

    _, v1 = lp_operator(make(1.0), s, *z)
    _, v3 = lp_operator(make(3.0), s, *z)
    assert np.allclose(v3, 3.0 * v1, atol=1e-12)


def test_discrete_variational_oracle():
    """AD derivative of the discretized action along a constrained variation
    matches the integrated residual pairing to second order in the step."""
    G = np.zeros((2, 2, 2))
    G[0] = [[0.1, 0.3], [-0.2, 0.05]]
    G[1] = [[0.0, -0.15], [0.25, 0.1]]
    C = np.zeros((2, 2, 2))
    C[0] = [[0.0, 0.4], [-0.4, 0.0]]
    C[1] = [[0.0, -0.25], [0.25, 0.0]]
    Om = np.zeros((2, 2, 2))
    Om[0] = [[0.0, 0.6], [-0.6, 0.0]]
    Om[1] = [[0.0, -0.35], [0.35, 0.0]]
    chart = LPBundleChart(box(2), 2, Gamma=G, c=C, omega=Om)

    def f(q, qd, v):
        return (
            0.7 * qd[0] * qd[0]
            + 0.5 * qd[0] * qd[1]
            + 0.9 * qd[1] * qd[1]
            + 0.8 * v[0] * v[0]
            + 0.3 * v[0] * v[1]
            + 0.6 * v[1] * v[1]
            + 0.2 * q[0] * q[0] * q[1]
            + 0.15 * q[0] * qd[0]
            + 0.1 * q[1] * v[0] * qd[1]
            + 0.25 * v[1] * qd[0]
        )

    sys = LPLagrangian.from_callable(chart, f)

    def curve(t):
        q = np.array([0.3 * np.sin(t) + 0.1, 0.2 * np.cos(t) - 0.05 * t])
        qd = np.array([0.3 * np.cos(t), -0.2 * np.sin(t) - 0.05])
        qdd = np.array([-0.3 * np.sin(t), -0.2 * np.cos(t)])
        v = np.array([0.15 * t * t - 0.1, 0.3 * np.sin(2 * t)])
        vd = np.array([0.3 * t, 0.6 * np.cos(2 * t)])
        return q, qd, qdd, v, vd

    def variation(t):
        s, cpi = np.sin(np.pi * t), np.pi * np.cos(np.pi * t)
        dq = s * np.array([0.25, 0.35])
        dqd = cpi * np.array([0.25, 0.35])
        w = s * np.array([0.4, -0.3])
        wd = cpi * np.array([0.4, -0.3])
        return dq, dqd, w, wd

    def mismatch(N):
        ts = np.linspace(0.0, 1.0, N + 1)
        h = ts[1] - ts[0]
        weights = np.full(N + 1, h)
        weights[0] = weights[-1] = h / 2

        xs, ds, pairing = [], [], 0.0
        for t, wt in zip(ts, weights):
            q, qd, qdd, v, vd = curve(t)
            dq, dqd, w, wd = variation(t)
            dv = (
                wd
                + np.einsum("iab,i,b->a", G, qd, w)
                + np.einsum("gab,a,b->g", C, v, w)
                + np.einsum("aij,i,j->a", Om, dq, qd)
                - np.einsum("iab,i,b->a", G, dq, v)
            )
            xs.append(np.concatenate([q, qd, v]))
            ds.append(np.concatenate([dq, dqd, dv]))
            hor, ver = lp_operator(sys, LPState(q, qd, v), qdd, vd)
            pairing += wt * (hor @ dq + ver @ w)

        def action(lam_vec):
            lam = lam_vec[0]
            total = 0.0
            for x, d, wt in zip(xs, ds, weights):
                xx = np.array(
                    [x[j] + lam * d[j] for j in range(6)], dtype=object
                )
                total = total + wt * sys.L.body(xx)
            return total

        dS = _dual.gradient(action, np.array([0.0]))[0]
        return abs(dS - pairing)

    e200, e400 = mismatch(200), mismatch(400)
    assert e200 > 1e-9
    assert e400 < 1e-4
    assert 2.5 < e200 / e400 < 6.0


# ---------------------------------------------------------------------------
# accelerations


def test_flat_system_rest_dynamics():
    chart = LPBundleChart(box(2), 1)
    sys = LPLagrangian.from_callable(
        chart,
        lambda q, qd, v: 0.5 * (qd[0] * qd[0] + qd[1] * qd[1] + v[0] * v[0]),
    )
    qdd, vd = accelerations(sys, LPState([0.3, -0.1], [0.5, 0.2], [0.7]))
    assert np.allclose(qdd, 0.0, atol=1e-13)
    assert np.allclose(vd, 0.0, atol=1e-13)


def test_twisted_transport_dynamics():
    # with the curvature form off, the base runs straight and the fiber is
    # parallel-transported: vdot = -Gamma(qd)v
    sys, G, _ = twisted_system(om0=0.0, om1=0.0)
    s = LPState([0.2, 0.1], [0.5, -0.3], [0.4, 0.6])
    qdd, vd = accelerations(sys, s)
    expect = -np.einsum("iab,i,b->a", G, s.qdot, s.v)
    assert np.allclose(qdd, 0.0, atol=1e-12)
    assert np.allclose(vd, expect, atol=1e-12)


def test_accelerations_close_the_residual():
    rng = np.random.default_rng(7)
    n, m = 2, 2
    d = 2 * n + m
    A = rng.normal(size=(d, d))
    A = 0.5 * (A + A.T)
    A[n:, n:] += 3.0 * np.eye(n + m)
    b = rng.normal(size=d)
    G = rng.normal(size=(n, m, m))
    C = rng.normal(size=(m, m, m))
    C = 0.5 * (C - np.einsum("gab->gba", C))
    Om = rng.normal(size=(m, n, n))
    Om = 0.5 * (Om - np.einsum("aij->aji", Om))
    chart = LPBundleChart(box(n), m, Gamma=G, c=C, omega=Om)
    sys = quad_lagrangian(chart, A, b)

    s = LPState(rng.normal(size=n), rng.normal(size=n), rng.normal(size=m))
    qdd, vd = accelerations(sys, s)
    hor, ver = lp_operator(sys, s, qdd, vd)
    assert np.linalg.norm(np.concatenate([hor, ver])) <= 1e-10


def test_degenerate_lagrangian_rejected():
    chart = LPBundleChart(box(1), 0)
    sys = LPLagrangian.from_callable(
        chart, lambda q, qd, v: 0.25 * qd[0] ** 4
    )
    with pytest.raises(SingularHessian):
        accelerations(sys, LPState([0.0], [0.0], []))
    qdd, _ = accelerations(sys, LPState([0.0], [1.0], []))
    assert np.allclose(qdd, 0.0, atol=1e-12)


def test_singular_block_reports_an_infinite_condition():
    """A velocity block whose smallest singular value is 0 reports condition
    inf, as np.linalg.cond does, and warns of nothing: the zero block (0/0)
    and diag(1, 0) (1/0)."""
    chart = LPBundleChart(box(1), 1)
    zero = LPLagrangian.from_callable(chart, lambda q, qd, v: 0.25 * qd[0] ** 4)
    rank_one = LPLagrangian.from_callable(chart, lambda q, qd, v: 0.5 * qd[0] ** 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sys in (zero, rank_one):
            with pytest.raises(SingularHessian, match="condition inf exceeds"):
                accelerations(sys, LPState([0.0], [0.0], [0.0]))


def test_a_run_with_one_velocity_block_takes_one_svd(monkeypatch):
    """The velocity block of a Lagrangian quadratic in the velocities is the
    same at every stage, so its condition is computed once per run."""
    svds, solves = [], []
    svd, solve = np.linalg.svd, np.linalg.solve
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(1) or svd(*a, **k))
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(1) or solve(*a))
    dynamics._block_condition.cache_clear()
    integrate_lp(free_particle(2), LPState([0.1, -0.3], [0.4, 0.25], []), 0.0, 1.0, 0.05)
    assert (len(svds), len(solves)) == (1, 4 * 20)


# ---------------------------------------------------------------------------
# integration


def test_free_particle_exact():
    sys = free_particle(2)
    s0 = LPState([0.1, -0.3], [0.4, 0.25], [])
    traj = integrate_lp(sys, s0, 0.0, 1.0, 0.05)
    assert len(traj) == 21
    assert np.allclose(np.diff(traj.times), 0.05, rtol=0.0, atol=1e-15)
    end = traj.states[-1]
    assert np.allclose(end.q, [0.5, -0.05], atol=1e-13)
    assert np.allclose(end.qdot, s0.qdot, atol=1e-14)


def test_rk4_fourth_order_convergence():
    sys, _, _ = twisted_system()
    s0 = LPState([0.1, 0.0], [0.5, 0.2], [0.4, -0.3])

    def endpoint(h):
        tr = integrate_lp(sys, s0, 0.0, 0.5, h)
        e = tr.states[-1]
        return np.concatenate([e.q, e.qdot, e.v])

    y1, y2, y4 = endpoint(0.02), endpoint(0.01), endpoint(0.005)
    err1 = np.linalg.norm(y1 - y2)
    err2 = np.linalg.norm(y2 - y4)
    assert err1 > 0
    assert 11.0 < err1 / err2 < 22.0


def test_euler_first_order_convergence():
    sys, _, _ = twisted_system()
    s0 = LPState([0.1, 0.0], [0.5, 0.2], [0.4, -0.3])
    ref = integrate_lp(sys, s0, 0.0, 0.25, 0.00125).states[-1]
    ref = np.concatenate([ref.q, ref.qdot, ref.v])

    def err(h):
        e = integrate_lp(sys, s0, 0.0, 0.25, h, method="euler").states[-1]
        return np.linalg.norm(np.concatenate([e.q, e.qdot, e.v]) - ref)

    assert 1.7 < err(0.025) / err(0.0125) < 2.4


def test_periodic_wrapping():
    dom = ChartDomain(1, [[0.0, 1.0]], [True])
    chart = LPBundleChart(dom, 0)
    sys = LPLagrangian.from_callable(chart, lambda q, qd, v: 0.5 * qd[0] ** 2)
    traj = integrate_lp(sys, LPState([0.8], [1.0], []), 0.0, 1.0, 0.25)
    for s in traj.states:
        assert 0.0 <= s.q[0] < 1.0
    assert np.isclose(traj.states[-1].q[0], 0.8, atol=1e-12)


def test_chart_exit_raises():
    chart = LPBundleChart(box(1, -1.0, 1.0), 0)
    sys = LPLagrangian.from_callable(chart, lambda q, qd, v: 0.5 * qd[0] ** 2)
    with pytest.raises(ChartExit) as exc:
        integrate_lp(sys, LPState([0.9], [1.0], []), 0.0, 1.0, 0.01)
    assert exc.value.t is not None
    assert exc.value.q[0] > 1.0


def test_rk4_stage_point_outside_the_chart_raises_chart_exit():
    """Both step ends of q'' = -20 from q = 0.9, qdot = 1.5 over one step of
    0.2 lie inside [-1, 1]; the second RK4 stage, at q = 1.05 and t = 0.1,
    does not.  The momentum-side integrator shares the check."""
    chart = LPBundleChart(box(1, -1.0, 1.0), 0)
    sys = LPLagrangian.from_callable(chart, lambda q, qd, v: 0.5 * qd[0] ** 2 - 20.0 * q[0])
    H = Hamiltonian.from_callable(chart, lambda q, p, nu: 0.5 * p[0] ** 2 + 20.0 * q[0])
    runs = (
        lambda: integrate_lp(sys, LPState([0.9], [1.5], []), 0.0, 0.2, 0.2),
        lambda: integrate_hp(chart, H, HPState([0.9], [1.5], []), 0.0, 0.2, 0.2),
    )
    for run in runs:
        with pytest.raises(ChartExit) as exc:
            run()
        assert exc.value.t == 0.1 and exc.value.q.tolist() == [1.05]
    with pytest.raises(ChartExit) as exc:  # Euler takes no stage point
        integrate_lp(sys, LPState([0.9], [1.5], []), 0.0, 0.2, 0.2, method="euler")
    assert exc.value.t == 0.2


def test_integrate_argument_validation():
    sys = free_particle(1)
    s0 = LPState([0.0], [0.1], [])
    with pytest.raises(ValueError):
        integrate_lp(sys, s0, 0.0, 1.0, 0.3)
    with pytest.raises(ValueError):
        integrate_lp(sys, s0, 0.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        integrate_lp(sys, s0, 0.0, 1.0, 0.1, method="verlet")


# ---------------------------------------------------------------------------
# energy


def test_energy_quadratic_and_linear():
    sys = free_particle(2)
    s = LPState([0.3, 0.1], [0.6, -0.8], [])
    assert np.isclose(energy(sys, s), 0.5 * (0.36 + 0.64))

    chart = LPBundleChart(box(1), 1)
    lin = LPLagrangian.from_callable(
        chart, lambda q, qd, v: 0.4 * qd[0] + 0.7 * v[0] - q[0] * q[0] - 0.2
    )
    for qd, v in [(0.0, 0.0), (1.3, -0.6)]:
        s = LPState([0.5], [qd], [v])
        assert np.isclose(energy(lin, s), 0.25 + 0.2, atol=1e-13)


def test_energy_conserved_along_flow():
    sys, _, _ = twisted_system()
    s0 = LPState([0.1, 0.0], [0.5, 0.2], [0.4, -0.3])
    traj = integrate_lp(sys, s0, 0.0, 1.0, 1e-3)
    es = [energy(sys, s) for s in traj.states[:: 100]]
    assert max(abs(e - es[0]) for e in es) <= 1e-8


# ---------------------------------------------------------------------------
# symmetry: currents, drift, invariance


def planar_rotation_action():
    def genQ(eta, q):
        return np.array([-eta[0] * q[1], eta[0] * q[0]], dtype=object)

    return GroupAction(1, genQ, lambda eta, q, v: np.zeros(0))


def test_group_action_validation():
    with pytest.raises(ValueError):
        GroupAction(0, lambda e, q: q, lambda e, q, v: v)


def test_current_classical_values():
    sys = free_particle(2)
    s = LPState([0.3, -0.5], [0.9, 0.4], [])
    shift = GroupAction(
        1,
        lambda eta, q: np.array([eta[0], 0.0 * eta[0]], dtype=object),
        lambda eta, q, v: np.zeros(0),
    )
    assert np.isclose(noether_current(sys, shift, s, [2.0]), 1.8)
    assert noether_current(sys, shift, s, [0.0]) == 0.0

    rot = planar_rotation_action()
    expect = 0.3 * 0.4 - (-0.5) * 0.9
    assert np.isclose(noether_current(sys, rot, s, [1.0]), expect)
    j1 = noether_current(sys, rot, s, [0.7])
    j2 = noether_current(sys, rot, s, [-1.2])
    assert np.isclose(
        noether_current(sys, rot, s, [0.7 - 1.2]), j1 + j2, atol=1e-13
    )


def test_conserved_current_central_potential():
    chart = LPBundleChart(box(2), 0)
    sys = LPLagrangian.from_callable(
        chart,
        lambda q, qd, v: 0.5 * (qd[0] * qd[0] + qd[1] * qd[1])
        - 0.3 * (q[0] * q[0] + q[1] * q[1] - 1.0) ** 2,
    )
    rot = planar_rotation_action()
    assert abs(invariance_residual(sys, rot, LPState([0.4, 0.3], [0.1, -0.6], []), [1.0])) <= 1e-12

    traj = integrate_lp(sys, LPState([0.8, 0.0], [0.1, 0.6], []), 0.0, 0.4, 4e-3)
    js = [noether_current(sys, rot, s, [1.0]) for s in traj.states]
    assert max(abs(j - js[0]) for j in js) <= 1e-8
    _, res = noether_drift_residual(sys, rot, traj, [1.0])
    assert res.shape == (len(traj) - 4,)
    assert np.max(np.abs(res)) <= 1e-6


def test_drift_residual_matches_invariance_defect():
    # an anisotropic free Lagrangian breaks rotation symmetry; along any
    # solution the drift residual must reproduce the symmetry defect of L
    chart = LPBundleChart(box(2), 0)
    sys = LPLagrangian.from_callable(
        chart, lambda q, qd, v: 0.5 * qd[0] * qd[0] + qd[1] * qd[1]
    )
    rot = planar_rotation_action()
    s0 = LPState([0.2, -0.1], [0.7, 0.3], [])
    traj = integrate_lp(sys, s0, 0.0, 0.2, 0.01)
    _, res = noether_drift_residual(sys, rot, traj, [1.0])
    defect = 0.7 * 0.3
    assert np.allclose(res, defect, atol=1e-10)
    for s in traj.states[:: 5]:
        assert np.isclose(
            invariance_residual(sys, rot, s, [1.0]), defect, atol=1e-12
        )


def test_drift_residual_with_fiber_terms():
    # translation along the periodic coordinate: the current is not constant
    # (curvature and connection torque it) but the drift identity holds
    sys, _, _ = twisted_system()
    act = GroupAction(
        1,
        lambda eta, q: np.array([eta[0], 0.0 * eta[0]], dtype=object),
        lambda eta, q, v: np.zeros(2),
    )
    s0 = LPState([0.1, 0.0], [0.5, 0.2], [0.4, -0.3])
    assert abs(invariance_residual(sys, act, s0, [1.0])) <= 1e-12

    traj = integrate_lp(sys, s0, 0.0, 0.5, 5e-3)
    _, res = noether_drift_residual(sys, act, traj, [1.0])
    assert np.max(np.abs(res)) <= 1e-6

    js = np.array([noether_current(sys, act, s, [1.0]) for s in traj.states])
    dj = np.abs(np.diff(js)) / 5e-3
    assert np.max(dj) >= 1e-3


def test_drift_residual_needs_five_points():
    sys = free_particle(1)
    traj = integrate_lp(sys, LPState([0.0], [0.5], []), 0.0, 0.3, 0.1)
    rot = GroupAction(
        1,
        lambda eta, q: np.array([eta[0]], dtype=object),
        lambda eta, q, v: np.zeros(0),
    )
    assert len(traj) == 4
    with pytest.raises(ValueError, match="too short"):
        noether_drift_residual(sys, rot, traj, [1.0])


def test_invariance_residual_anisotropic_hand_value():
    chart = LPBundleChart(box(2), 0)
    sys = LPLagrangian.from_callable(
        chart, lambda q, qd, v: 0.5 * qd[0] * qd[0] + qd[1] * qd[1]
    )
    rot = planar_rotation_action()
    s = LPState([0.0, 0.0], [1.1, -0.4], [])
    assert np.isclose(
        invariance_residual(sys, rot, s, [2.0]), 2.0 * 1.1 * (-0.4), atol=1e-12
    )


# ---------------------------------------------------------------------------
# serialization


def test_trajectory_csv_round_trip(tmp_path):
    G = np.zeros((2, 1, 1))
    G[0, 0, 0] = 0.3
    chart = LPBundleChart(box(2), 1, Gamma=G)
    sys = LPLagrangian.from_callable(
        chart,
        lambda q, qd, v: 0.5 * (qd[0] * qd[0] + qd[1] * qd[1] + v[0] * v[0]),
    )
    s0 = LPState([1.0 / 3.0, -0.2], [0.5, np.pi / 7], [0.123456789012345])
    traj = integrate_lp(sys, s0, 0.0, 0.2, 0.05)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj)

    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().strip().split("\n")
    assert lines[0] == "t,q1,q2,qd1,qd2,v1"
    assert len(lines) == len(traj) + 1
    for line, t, s in zip(lines[1:], traj.times, traj.states):
        vals = [float(tok) for tok in line.split(",")]
        expect = np.concatenate([[t], s.q, s.qdot, s.v])
        assert vals == list(expect)
    assert list(tmp_path.glob("*.tmp")) == []

    write_trajectory_csv(path, traj)
    assert path.read_bytes() == raw
