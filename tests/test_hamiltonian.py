"""Tests for the dual-side bracket, flow, and Legendre correspondence.

Convention-sensitive pieces are pinned two independent ways: the affine
observable check plays the bracket against the section bracket, and the
flow test plays the vector field against the bracket.  The Jacobi identity
is verified with nested dual numbers and re-verified with finite
differences.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from lpmech import _dual
from lpmech.dynamics import LPLagrangian, LPState, _integrate_fixed, energy, integrate_lp
from lpmech.errors import (
    ChartExit,
    DimensionMismatch,
    NoConvergence,
    SingularHessian,
)
from lpmech.hamiltonian import (
    DualObservable,
    Hamiltonian,
    HPState,
    affine_bracket_check,
    hamiltonian_from_lagrangian,
    hamiltonian_vector_field,
    integrate_hp,
    inverse_legendre,
    legendre,
    poisson_bracket,
    write_hp_trajectory_csv,
)
from lpmech.lpbundle import ChartDomain, LPBundleChart, Section
from lpmech.reduction import stages_reduce, two_stage_lagrangian
from lpmech.smoothmap import SmoothMap
from lpmech.systems import build_system, flat_bundle_particle, rigid_body


def box(n, lo=-4.0, hi=4.0, periodic=None):
    bounds = np.tile([lo, hi], (n, 1))
    return ChartDomain(n, bounds, periodic)


def gamma_omega_chart():
    """n=2, m=1 chart with constant connection and curvature form; passes
    the structure axioms (the closure condition is vacuous on a plane)."""
    G = np.zeros((2, 1, 1))
    G[0, 0, 0], G[1, 0, 0] = 0.4, -0.6
    Om = np.zeros((1, 2, 2))
    Om[0] = [[0.0, 0.8], [-0.8, 0.0]]
    return LPBundleChart(box(2), 1, Gamma=G, omega=Om)


def eps3():
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k], eps[i, k, j] = 1.0, -1.0
    return eps


def so3_fiber_chart():
    return LPBundleChart(box(2), 3, c=eps3())


def so3_gamma_chart():
    """so(3) fiber over a plane with constant nonzero Gamma and omega, so
    every term of the bracket and of the vector field is live."""
    G = np.zeros((2, 3, 3))
    G[0] = [[0.0, 0.5, -0.2], [-0.5, 0.0, 0.3], [0.2, -0.3, 0.0]]
    G[1] = [[0.1, -0.4, 0.0], [0.4, 0.0, 0.6], [0.0, -0.6, -0.1]]
    Om = np.zeros((3, 2, 2))
    for a, w in enumerate((0.8, -0.3, 0.45)):
        Om[a] = [[0.0, w], [-w, 0.0]]
    return LPBundleChart(box(2), 3, Gamma=G, c=eps3(), omega=Om)


def semidirect_chart():
    """so(3) acting on vectors: fiber dimension six, constant bracket."""
    c = np.zeros((6, 6, 6))
    eps = eps3()
    c[:3, :3, :3] = eps
    for a in range(3):
        for j in range(3):
            for k in range(3):
                c[3 + k, a, 3 + j] = eps[a, j, k]
                c[3 + k, 3 + j, a] = -eps[a, j, k]
    return LPBundleChart(box(2), 6, c=c)


def quad_observable(n, m, rng):
    d = 2 * n + m
    c0 = rng.normal()
    c1 = rng.normal(size=d)
    c2 = rng.normal(size=(d, d))

    def fn(x):
        val = c0
        for i in range(d):
            val = val + c1[i] * x[i]
            for j in range(d):
                val = val + 0.5 * c2[i, j] * x[i] * x[j]
        return val

    return DualObservable(SmoothMap(d, 1, fn))


def poly_section(n, m, rng):
    aX = rng.normal(size=n)
    bX = rng.normal(size=(n, n))
    aw = rng.normal(size=m)
    bw = rng.normal(size=(m, n))

    def Xb(q):
        return [aX[i] + sum(bX[i, j] * q[j] for j in range(n)) for i in range(n)]

    def wb(q):
        return [
            aw[a]
            + sum(bw[a, j] * q[j] for j in range(n))
            + 0.3 * q[0] * q[(1) % n] * aw[a]
            for a in range(m)
        ]

    return Section(SmoothMap(n, n, Xb), SmoothMap(n, m, wb))


# ---------------------------------------------------------------------------
# containers


def test_state_and_type_validation():
    with pytest.raises(DimensionMismatch):
        HPState([0.0, 1.0], [0.0], [])
    with pytest.raises(DimensionMismatch):
        DualObservable(SmoothMap(4, 2, lambda x: x[:2]))
    with pytest.raises(DimensionMismatch):
        Hamiltonian(gamma_omega_chart(), SmoothMap(3, 1, lambda x: x[:1]))


# ---------------------------------------------------------------------------
# the bracket


def test_pullbacks_of_base_functions_commute():
    b = gamma_omega_chart()
    f = DualObservable.from_callable(2, 1, lambda q, p, nu: q[0] * q[0] + 0.3 * q[1])
    g = DualObservable.from_callable(2, 1, lambda q, p, nu: q[0] * q[1])
    s = HPState([0.3, -0.4], [0.7, 0.2], [0.9])
    assert abs(poisson_bracket(b, f, g, s)) <= 1e-14


def test_base_function_against_affine_gives_derivative():
    b = gamma_omega_chart()
    f = DualObservable.from_callable(2, 1, lambda q, p, nu: q[0] * q[0] + 0.3 * q[1])

    def Xb(q):
        return [0.5 + q[1], -0.25 * q[0]]

    Z = Section(SmoothMap(2, 2, Xb), SmoothMap(2, 1, lambda q: [0.7 * q[0]]))
    P = DualObservable.from_callable(
        2,
        1,
        lambda q, p, nu: p[0] * (0.5 + q[1])
        + p[1] * (-0.25 * q[0])
        + nu[0] * 0.7 * q[0],
    )
    s = HPState([0.3, -0.4], [0.7, 0.2], [0.9])
    # X[f] = 2 q0 X^0 + 0.3 X^1
    q = s.q
    expect = 2 * q[0] * (0.5 + q[1]) + 0.3 * (-0.25 * q[0])
    assert np.isclose(poisson_bracket(b, f, P, s), expect, atol=1e-13)
    assert np.isclose(affine_bracket_check(b, Z, Z, s), 0.0, atol=1e-13)


def test_bracket_antisymmetry():
    b = so3_fiber_chart()
    rng = np.random.default_rng(3)
    f, g = quad_observable(2, 3, rng), quad_observable(2, 3, rng)
    s = HPState(rng.uniform(-1, 1, 2), rng.normal(size=2), rng.normal(size=3))
    assert np.isclose(
        poisson_bracket(b, f, g, s), -poisson_bracket(b, g, f, s), atol=1e-12
    )
    assert poisson_bracket(b, f, f, s) == 0.0


def test_bracket_chart_and_dimension_errors():
    b = gamma_omega_chart()
    f = quad_observable(2, 1, np.random.default_rng(0))
    with pytest.raises(ChartExit):
        poisson_bracket(b, f, f, HPState([5.0, 0.0], [0.0, 0.0], [0.0]))
    wrong = quad_observable(1, 1, np.random.default_rng(0))
    with pytest.raises(DimensionMismatch):
        poisson_bracket(b, wrong, f, HPState([0.0, 0.0], [0.0, 0.0], [0.0]))


def test_hp_state_of_the_wrong_length_is_rejected():
    """The rigid body has n = 0, m = 3; HPState([.1], [.2], [.3]) must not
    be read as nu = [.1, .2, .3].  A packed vector keeps eval_map's check."""
    rb = rigid_body()
    H = Hamiltonian.from_callable(rb.bundle, lambda q, p, nu: 0.5 * (nu @ nu))
    bad = HPState([0.1], [0.2], [0.3])
    match = r"\(0, 0, 3\), got \(1, 1, 1\)"
    with pytest.raises(DimensionMismatch, match=match):
        integrate_hp(rb.bundle, H, bad, 0.0, 0.01, 0.001)
    with pytest.raises(DimensionMismatch, match=match):
        hamiltonian_vector_field(rb.bundle, H, bad)
    with pytest.raises(DimensionMismatch, match=match):
        poisson_bracket(rb.bundle, H, H, bad)
    with pytest.raises(DimensionMismatch, match="expects input of length 3"):
        hamiltonian_vector_field(rb.bundle, H, np.array([0.1, 0.2, 0.3, 0.4]))
    _, _, nudot = hamiltonian_vector_field(rb.bundle, H, HPState([], [], [0.1, 0.2, 0.3]))
    assert nudot.shape == (3,)


def test_pure_fiber_sections_sign_check():
    b = so3_fiber_chart()
    zero = SmoothMap(2, 2, lambda q: [0.0 * q[0], 0.0 * q[1]])
    w1 = SmoothMap(2, 3, lambda q: [1.0 + 0.0 * q[0], 0.5, -0.3])
    w2 = SmoothMap(2, 3, lambda q: [0.2 + 0.0 * q[0], -0.8, 0.6])
    Z1, Z2 = Section(zero, w1), Section(zero, w2)
    s = HPState([0.1, 0.2], [0.0, 0.0], [0.4, -0.9, 0.7])
    assert affine_bracket_check(b, Z1, Z2, s) <= 1e-13


def test_affine_check_on_random_sections():
    rng = np.random.default_rng(11)
    b = semidirect_chart()
    worst = 0.0
    for _ in range(100):
        Z1 = poly_section(2, 6, rng)
        Z2 = poly_section(2, 6, rng)
        s = HPState(rng.uniform(-1, 1, 2), rng.normal(size=2), rng.normal(size=6))
        worst = max(worst, affine_bracket_check(b, Z1, Z2, s))
    assert worst <= 1e-8


def test_affine_check_with_connection_and_curvature():
    # the identity is exact for arbitrary structure maps, so a twisted
    # chart with nonzero connection pins the covariant q-derivative choice
    rng = np.random.default_rng(12)
    G = rng.normal(size=(2, 3, 3))
    Om = rng.normal(size=(3, 2, 2))
    Om = 0.5 * (Om - np.einsum("aij->aji", Om))
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k], eps[i, k, j] = 1.0, -1.0
    b = LPBundleChart(box(2), 3, Gamma=G, c=eps, omega=Om)
    worst = 0.0
    for _ in range(25):
        Z1 = poly_section(2, 3, rng)
        Z2 = poly_section(2, 3, rng)
        s = HPState(rng.uniform(-1, 1, 2), rng.normal(size=2), rng.normal(size=3))
        worst = max(worst, affine_bracket_check(b, Z1, Z2, s))
    assert worst <= 1e-8


# ---------------------------------------------------------------------------
# the flow


def test_free_flow_field():
    b = LPBundleChart(box(2), 0)
    H = Hamiltonian.from_callable(
        b, lambda q, p, nu: 0.5 * (p[0] * p[0] + p[1] * p[1])
    )
    qd, pd, nd = hamiltonian_vector_field(b, H, HPState([0.1, 0.2], [0.5, -0.3], []))
    assert np.allclose(qd, [0.5, -0.3])
    assert np.allclose(pd, 0.0, atol=1e-14)
    assert nd.size == 0


def test_transport_only_fiber_flow():
    b = gamma_omega_chart()
    H = Hamiltonian.from_callable(
        b, lambda q, p, nu: 0.5 * (p[0] * p[0] + p[1] * p[1])
    )
    s = HPState([0.1, 0.2], [0.5, -0.3], [0.9])
    qd, pd, nd = hamiltonian_vector_field(b, H, s)
    # nudot_a = Gamma^b_{ia} qdot^i nu_b with Gamma = (0.4, -0.6)
    expect = (0.4 * 0.5 - 0.6 * (-0.3)) * 0.9
    assert np.allclose(qd, s.p)
    assert np.isclose(nd[0], expect, atol=1e-13)
    # pdot picks up the curvature coupling nu omega(., qdot)
    om = np.array([[0.0, 0.8], [-0.8, 0.0]])
    assert np.allclose(pd, 0.9 * om @ s.p, atol=1e-13)


def test_flow_matches_bracket_on_observables():
    rng = np.random.default_rng(21)
    b = semidirect_chart()
    H = quad_observable(2, 6, rng)
    s = HPState(rng.uniform(-1, 1, 2), rng.normal(size=2), rng.normal(size=6))
    qd, pd, nd = hamiltonian_vector_field(b, H, s)
    flow = np.concatenate([qd, pd, nd])
    for _ in range(20):
        f = quad_observable(2, 6, rng)
        gf = _dual.gradient(
            lambda x: f.f.body(x), np.concatenate([s.q, s.p, s.nu])
        )
        dfdt = float(np.asarray(gf, dtype=float) @ flow)
        assert np.isclose(dfdt, poisson_bracket(b, f, H, s), atol=1e-8)


def test_integrate_free_flow_and_casimirs():
    b = LPBundleChart(box(2), 2)
    H = Hamiltonian.from_callable(
        b,
        lambda q, p, nu: 0.5 * (p[0] * p[0] + p[1] * p[1])
        + 0.3 * nu[0] * nu[0]
        + 0.1 * nu[1] * p[0],
    )
    s0 = HPState([0.1, -0.2], [0.4, 0.3], [0.7, -0.5])
    traj = integrate_hp(b, H, s0, 0.0, 1.0, 0.05)
    assert len(traj) == 21 and traj.jets == ()  # no Lagrangian jets on the dual side
    # with c = 0 and Gamma = 0 the fiber covector is a Casimir: frozen bitwise
    for s in traj.states:
        assert np.array_equal(s.nu, s0.nu)
    assert np.allclose(
        traj.states[-1].q, s0.q + s0.p + [0.1 * (-0.5), 0.0], atol=1e-12
    )


def test_integrate_validation_and_exit():
    b = LPBundleChart(box(1, -1.0, 1.0), 0)
    H = Hamiltonian.from_callable(b, lambda q, p, nu: 0.5 * p[0] * p[0])
    s0 = HPState([0.9], [1.0], [])
    with pytest.raises(ChartExit):
        integrate_hp(b, H, s0, 0.0, 1.0, 0.01)
    with pytest.raises(ValueError):
        integrate_hp(b, H, s0, 0.0, 1.0, 0.3)
    with pytest.raises(ValueError):
        integrate_hp(b, H, s0, 0.0, 1.0, 0.1, method="verlet")


def twisted_pair():
    """Matched Lagrangian and closed-form Hamiltonian on the twisted chart."""
    dom = ChartDomain(2, [[0.0, 1.0], [-2.0, 2.0]], [True, False])
    G = np.zeros((2, 2, 2))
    G[0] = [[0.0, 0.9], [-0.9, 0.0]]
    Om = np.zeros((2, 2, 2))
    Om[0] = [[0.0, 0.3], [-0.3, 0.0]]
    Om[1] = [[0.0, -0.2], [0.2, 0.0]]
    chart = LPBundleChart(dom, 2, Gamma=G, omega=Om)
    gm = np.array([[1.0, 0.2], [0.2, 1.5]])
    gi = np.linalg.inv(gm)
    s = 0.7

    def lag(q, qd, v):
        val = 0.0
        for i in range(2):
            for j in range(2):
                val = val + qd[i] * gm[i, j] * qd[j]
        return val + s * (v[0] * v[0] + v[1] * v[1])

    def ham(q, p, nu):
        val = 0.0
        for i in range(2):
            for j in range(2):
                val = val + 0.25 * p[i] * gi[i, j] * p[j]
        return val + (nu[0] * nu[0] + nu[1] * nu[1]) / (4 * s)

    return (
        LPLagrangian.from_callable(chart, lag),
        Hamiltonian.from_callable(chart, ham),
        chart,
    )


@pytest.mark.parametrize("method, checks", [("rk4", 4), ("euler", 1)])
def test_integrate_hp_checks_each_point_against_the_chart_once(monkeypatch, method, checks):
    """Each step checks its RK4 stage points and the accepted state, and no
    point twice; the flow keeps the bits of the integrator run on
    hamiltonian_vector_field, which checks every stage point once more."""
    _, H, chart = twisted_pair()
    s0 = HPState([0.1, 0.0], [0.9, 0.5], [0.5, -0.4])
    calls = []
    contains = ChartDomain.contains
    monkeypatch.setattr(
        ChartDomain, "contains", lambda dom, q: calls.append(1) or contains(dom, q)
    )
    traj = integrate_hp(chart, H, s0, 0.0, 0.2, 0.01, method)
    assert len(calls) == 20 * checks + 1
    calls.clear()

    def checked(y):
        return np.concatenate(hamiltonian_vector_field(chart, H, y)).astype(float)

    ref = _integrate_fixed(
        checked, HPState, chart, (s0.q, s0.p, s0.nu), 0.0, 0.2, 0.01, method
    )
    assert len(calls) == 20 * (2 * checks) + 1
    for got, want in zip(traj.states, ref.states):
        for slot in ("q", "p", "nu"):
            assert getattr(got, slot).tobytes() == getattr(want, slot).tobytes()
    assert len(traj) == len(ref) == 21


def test_hamiltonian_conserved_along_flow():
    sys, H, chart = twisted_pair()
    s0 = HPState([0.1, 0.0], [0.9, 0.5], [0.5, -0.4])
    traj = integrate_hp(chart, H, s0, 0.0, 1.0, 1e-3)
    hval = lambda st: float(
        H.H.body(np.concatenate([st.q, st.p, st.nu]))
    )
    h0 = hval(traj.states[0])
    drift = max(abs(hval(st) - h0) for st in traj.states[::100])
    assert drift <= 1e-8


def test_lp_hp_flows_agree_through_legendre():
    # the Legendre map of this Lagrangian is linear, and the integrator
    # commutes with linear maps, so the two flows agree to rounding
    sys, H, chart = twisted_pair()
    s0 = LPState([0.1, 0.0], [0.5, 0.2], [0.4, -0.3])
    hs0 = legendre(sys, s0)
    lp = integrate_lp(sys, s0, 0.0, 0.25, 2.5e-3)
    hp = integrate_hp(chart, H, hs0, 0.0, 0.25, 2.5e-3)
    worst = 0.0
    for sl, sh in zip(lp.states, hp.states):
        mapped = legendre(sys, sl)
        worst = max(
            worst,
            np.max(np.abs(mapped.q - sh.q)),
            np.max(np.abs(mapped.p - sh.p)),
            np.max(np.abs(mapped.nu - sh.nu)),
        )
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# algebraic identities


def _fd_grad(fn, x, h=1e-4):
    g = np.zeros(len(x))
    for i in range(len(x)):
        e = np.zeros(len(x))
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2 * h)
    return g


def _bracket_with_grads(b, gf, gg, x):
    """The bracket formula assembled from externally supplied gradients."""
    n, m = b.n, b.m
    from lpmech.smoothmap import eval_map

    q, nu = x[:n], x[2 * n :]
    G = np.asarray(eval_map(b.Gamma, q), dtype=float)
    C = np.asarray(eval_map(b.c, q), dtype=float)
    Om = np.asarray(eval_map(b.omega, q), dtype=float)
    corr = np.einsum("iba,b,a->i", G, nu, gf[2 * n :])
    fq = gf[:n] + corr
    gq = gg[:n] + np.einsum("iba,b,a->i", G, nu, gg[2 * n :])
    fp, gp = gf[n : 2 * n], gg[n : 2 * n]
    return (
        float(fq @ gp - gq @ fp)
        + float(np.einsum("a,aij,i,j->", nu, Om, fp, gp))
        + float(np.einsum("g,gab,a,b->", nu, C, gg[2 * n :], gf[2 * n :]))
    )


@pytest.mark.parametrize("make_chart", [gamma_omega_chart, so3_fiber_chart])
def test_jacobi_identity_nested_and_fd(make_chart):
    b = make_chart()
    n, m = b.n, b.m
    rng = np.random.default_rng(5)
    for _ in range(5):
        fs = [quad_observable(n, m, rng) for _ in range(3)]
        s = HPState(rng.uniform(-1, 1, n), rng.normal(size=n), rng.normal(size=m))
        x = np.concatenate([s.q, s.p, s.nu])

        total = 0.0
        for a, bb, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            inner = SmoothMap(
                2 * n + m, 1, lambda y, u=bb, w=c: poisson_bracket(b, fs[u], fs[w], y)
            )
            total += poisson_bracket(b, fs[a], inner, s)
        assert abs(total) <= 1e-6

        total_fd = 0.0
        for a, bb, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            gf = np.asarray(
                _dual.gradient(lambda y: fs[a].f.body(y), x), dtype=float
            )
            gh = _fd_grad(lambda y: poisson_bracket(b, fs[bb], fs[c], y), x)
            total_fd += _bracket_with_grads(b, gf, gh, x)
        assert abs(total_fd) <= 1e-5


def test_leibniz_rule():
    b = so3_fiber_chart()
    rng = np.random.default_rng(9)
    for _ in range(5):
        f, g, h = (quad_observable(2, 3, rng) for _ in range(3))
        prod = DualObservable(
            SmoothMap(7, 1, lambda x: f.f.body(x) * g.f.body(x))
        )
        s = HPState(rng.uniform(-1, 1, 2), rng.normal(size=2), rng.normal(size=3))
        x = np.concatenate([s.q, s.p, s.nu])
        fv = float(np.asarray(f.f.body(x)).reshape(-1)[0])
        gv = float(np.asarray(g.f.body(x)).reshape(-1)[0])
        lhs = poisson_bracket(b, prod, h, s)
        rhs = fv * poisson_bracket(b, g, h, s) + gv * poisson_bracket(b, f, h, s)
        assert np.isclose(lhs, rhs, atol=1e-8)


# ---------------------------------------------------------------------------
# Legendre maps


def test_legendre_simple_and_linear():
    chart = LPBundleChart(box(2), 2)
    sys = LPLagrangian.from_callable(
        chart,
        lambda q, qd, v: 0.5 * (qd[0] ** 2 + qd[1] ** 2 + v[0] ** 2 + v[1] ** 2),
    )
    s = LPState([0.1, 0.2], [0.7, -0.4], [0.3, 0.9])
    hs = legendre(sys, s)
    assert np.allclose(hs.p, s.qdot)
    assert np.allclose(hs.nu, s.v)

    lin = LPLagrangian.from_callable(
        chart,
        lambda q, qd, v: 0.5 * (qd[0] ** 2 + qd[1] ** 2) + 0.3 * v[0] - 0.7 * v[1],
    )
    hs2 = legendre(lin, s)
    assert np.allclose(hs2.nu, [0.3, -0.7], atol=1e-14)


def test_legendre_inertia_hand_values():
    chart = LPBundleChart(box(1), 3)
    inertia = np.diag([1.0, 2.0, 3.0])
    sys = LPLagrangian.from_callable(
        chart,
        lambda q, qd, v: 0.5 * qd[0] ** 2
        + 0.5 * (v[0] * v[0] + 2.0 * v[1] * v[1] + 3.0 * v[2] * v[2]),
    )
    s = LPState([0.0], [0.4], [0.5, -0.6, 0.25])
    hs = legendre(sys, s)
    assert np.allclose(hs.nu, inertia @ s.v, atol=1e-14)


def test_inverse_legendre_round_trips():
    rng = np.random.default_rng(17)
    n, m = 2, 2
    d = 2 * n + m
    chart = LPBundleChart(box(n), m)
    for _ in range(20):
        A = rng.normal(size=(d, d))
        A = 0.5 * (A + A.T)
        A[n:, n:] += 3.0 * np.eye(n + m)
        bvec = rng.normal(size=d)

        def f(q, qd, v, A=A, bvec=bvec):
            x = list(q) + list(qd) + list(v)
            val = 0.0
            for i in range(d):
                val = val + bvec[i] * x[i]
                for j in range(d):
                    val = val + 0.5 * A[i, j] * x[i] * x[j]
            # a quartic bump keeps the map genuinely nonlinear
            return val + 0.05 * (qd[0] ** 2 + v[0] ** 2) ** 2

        sys = LPLagrangian.from_callable(chart, f)
        s = LPState(rng.uniform(-1, 1, n), rng.normal(size=n), rng.normal(size=m))
        hs = legendre(sys, s)
        guess = LPState(s.q, s.qdot + 0.1, s.v - 0.1)
        back = inverse_legendre(sys, hs, guess)
        assert np.allclose(back.qdot, s.qdot, atol=1e-10)
        assert np.allclose(back.v, s.v, atol=1e-10)
        again = legendre(sys, back)
        assert np.max(np.abs(again.p - hs.p)) <= 1e-12
        assert np.max(np.abs(again.nu - hs.nu)) <= 1e-12


_velocity = st.floats(-3.0, 3.0)


@st.composite
def catalog_states(draw):
    """A catalog system and a state drawn inside its chart: the rigid body
    (point base, fiber 3) or the closed flat bundle (base 2, fiber 2)."""
    if draw(st.booleans()):
        rec = rigid_body()
        q = []
    else:
        rec = flat_bundle_particle(omega_mode="closed")
        q = [draw(st.floats(0.05, 0.95)), draw(st.floats(-1.9, 1.9))]
    n, m = rec.bundle.n, rec.bundle.m
    qdot = draw(st.lists(_velocity, min_size=n, max_size=n))
    v = draw(st.lists(_velocity, min_size=m, max_size=m))
    return rec.lagrangian, LPState(q, qdot, v)


# no shrink phase, as in the staged-reduction property test
@settings(max_examples=40, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(catalog_states())
def test_inverse_legendre_recovers_catalog_states(case):
    sys, s = case
    hs = legendre(sys, s)
    back = inverse_legendre(sys, hs, LPState(s.q, np.zeros(sys.n), np.zeros(sys.m)))
    assert np.array_equal(back.q, s.q)
    assert np.max(np.abs(back.qdot - s.qdot), initial=0.0) <= 1e-10
    assert np.max(np.abs(back.v - s.v), initial=0.0) <= 1e-10


@pytest.mark.parametrize("nidx", [(2,), (0, 2), (1, 2)])
def test_legendre_of_the_two_stage_lagrangian_is_beta_times_the_direct_one(nidx):
    """Hamiltonian reduction by stages on heisenberg_stages: the fiber
    momenta of the two-stage Lagrangian at beta v are beta times those of
    the direct reduction at v, bit for bit (beta is a permutation)."""
    rec = build_system("heisenberg_stages")
    res = stages_reduce(rec.handle, nidx)
    staged = two_stage_lagrangian(res, rec.unreduced_lagrangian)
    none = np.zeros(0)
    rng = np.random.default_rng(30)
    for _ in range(5):
        v = rng.standard_normal(rec.bundle.m)
        got = legendre(staged, LPState(none, none, res.beta @ v)).nu
        want = res.beta @ legendre(rec.lagrangian, LPState(none, none, v)).nu
        assert got.tolist() == want.tolist()


def test_inverse_legendre_failures():
    chart = LPBundleChart(box(1), 1)
    nov = LPLagrangian.from_callable(chart, lambda q, qd, v: 0.5 * qd[0] ** 2)
    hs = HPState([0.0], [0.5], [0.3])
    with pytest.raises(SingularHessian):
        inverse_legendre(nov, hs, LPState([0.0], [0.5], [0.3]))

    # dL/dqd = qd^3 - 2 qd + 2 makes Newton cycle between 0 and 1 forever
    cyc = LPLagrangian.from_callable(
        chart,
        lambda q, qd, v: 0.25 * qd[0] ** 4 - qd[0] ** 2 + 2.0 * qd[0]
        + 0.5 * v[0] ** 2,
    )
    with pytest.raises(NoConvergence):
        inverse_legendre(cyc, HPState([0.0], [0.0], [0.3]), LPState([0.0], [0.0], [0.3]))


def test_hamiltonian_from_lagrangian_values():
    chart = LPBundleChart(box(2), 0)
    free = LPLagrangian.from_callable(
        chart, lambda q, qd, v: 0.5 * (qd[0] ** 2 + qd[1] ** 2)
    )
    hs = HPState([0.1, 0.2], [0.6, -0.8], [])
    guess = LPState([0.1, 0.2], [0.0, 0.0], [])
    assert np.isclose(hamiltonian_from_lagrangian(free, hs, guess), 0.5)

    M = np.array([[2.0, 0.4], [0.4, 1.2]])

    def f(q, qd, v):
        val = 0.0
        for i in range(2):
            for j in range(2):
                val = val + 0.5 * qd[i] * M[i, j] * qd[j]
        return val

    sysM = LPLagrangian.from_callable(chart, f)
    expect = 0.5 * hs.p @ np.linalg.solve(M, hs.p)
    assert np.isclose(hamiltonian_from_lagrangian(sysM, hs, guess), expect, atol=1e-12)

    sys, _, _ = (lambda t: t)(twisted_pair())
    hs2 = HPState([0.1, 0.0], [0.9, 0.5], [0.5, -0.4])
    guess2 = LPState([0.1, 0.0], [0.3, 0.3], [0.3, -0.3])
    hval = hamiltonian_from_lagrangian(sys, hs2, guess2)
    back = inverse_legendre(sys, hs2, guess2)
    assert np.isclose(hval, energy(sys, back), atol=1e-12)


def test_hp_trajectory_csv(tmp_path):
    b = LPBundleChart(box(1), 2)
    H = Hamiltonian.from_callable(
        b, lambda q, p, nu: 0.5 * p[0] ** 2 + 0.25 * (nu[0] ** 2 + nu[1] ** 2)
    )
    traj = integrate_hp(b, H, HPState([0.2], [0.5], [0.3, -0.1]), 0.0, 0.2, 0.05)
    path = tmp_path / "hp.csv"
    write_hp_trajectory_csv(path, traj)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,q1,p1,nu1,nu2"
    assert len(lines) == len(traj) + 1
    vals = [float(tok) for tok in lines[3].split(",")]
    s = traj.states[2]
    assert vals == list(np.concatenate([[traj.times[2]], s.q, s.p, s.nu]))


def test_hp_trajectory_csv_matches_recorded_digest(tmp_path):
    """SHA-256 of a 20-step flow on the twisted chart, pinned like the
    simulate digests in test_cli."""
    _, H, chart = twisted_pair()
    s0 = HPState([0.1, 0.0], [0.9, 0.5], [0.5, -0.4])
    traj = integrate_hp(chart, H, s0, 0.0, 0.2, 0.01)
    path = tmp_path / "hp.csv"
    write_hp_trajectory_csv(path, traj)
    assert (
        hashlib.sha256(path.read_bytes()).hexdigest()
        == "3b6bac0726ad9e579709eca47e27a2721e042b06b100b4431430a199b951a606"
    )


def test_rigid_body_hp_flow_matches_recorded_digest(tmp_path):
    """SHA-256 of a 20-step flow on the rigid body's so(3) chart, where the
    fiber bracket c is nonzero, so the c loop of the vector field is pinned."""
    rb = rigid_body()
    inertia = np.asarray(rb.params["inertia"], dtype=float)
    H = Hamiltonian.from_callable(
        rb.bundle,
        lambda q, p, nu: 0.5 * sum(nu[a] * nu[a] / inertia[a] for a in range(3)),
    )
    s0 = HPState([], [], inertia * np.array([0.4, 0.7, -0.3]))
    traj = integrate_hp(rb.bundle, H, s0, 0.0, 0.2, 0.01)
    path = tmp_path / "hp.csv"
    write_hp_trajectory_csv(path, traj)
    assert len(traj) == 21
    assert (
        hashlib.sha256(path.read_bytes()).hexdigest()
        == "efe0b1c8bde2150ca68b5f51465fedb2240d181e559c113c5cc46f0d4e0d1443"
    )


def _pinned_bracket_inputs():
    rng = np.random.default_rng(11)
    fs = [quad_observable(2, 3, rng) for _ in range(3)]
    points = [
        HPState(rng.uniform(-1, 1, 2), rng.normal(size=2), rng.normal(size=3))
        for _ in range(3)
    ]
    return so3_gamma_chart(), fs, points


def test_poisson_bracket_bits_are_pinned_where_every_table_is_live():
    """{f0, f1} at three points, and {f0, {f1, f2}} with the inner bracket
    on dual input, on an so(3) chart with nonzero Gamma, c and omega."""
    b, fs, points = _pinned_bracket_inputs()
    got = [poisson_bracket(b, fs[0], fs[1], s).hex() for s in points]
    inner = SmoothMap(7, 1, lambda y: poisson_bracket(b, fs[1], fs[2], y))
    got.append(poisson_bracket(b, fs[0], inner, points[0]).hex())
    assert got == [
        "0x1.ba485d89be819p+0",
        "0x1.dacec97465cefp+1",
        "0x1.954a363eb0064p+1",
        "0x1.b5f9bab793c8ap+0",
    ]


def test_grad_hess_runs_through_a_poisson_bracket():
    """grad_hess evaluates the bracket on jets and gets the jet back: its
    value is the float bracket, its gradient that of gradient, and its
    Hessian the central differences of gradient."""
    b, fs, points = _pinned_bracket_inputs()
    s = points[1]
    x = np.concatenate([s.q, s.p, s.nu])

    def bracket(y):
        return poisson_bracket(b, fs[0], fs[1], y)

    val, grad, hess = _dual.grad_hess(bracket, x)
    assert val == bracket(x)
    assert np.allclose(grad, _dual.gradient(bracket, x), rtol=0, atol=1e-12)
    h = 1e-5
    fd = np.array(
        [
            (_dual.gradient(bracket, x + h * e) - _dual.gradient(bracket, x - h * e)) / (2 * h)
            for e in np.eye(x.size)
        ]
    )
    assert np.allclose(hess, fd, rtol=0, atol=1e-8)
