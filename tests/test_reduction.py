"""Tests for principal-scenario reduction, staged reduction and currents."""

from functools import cache, partial

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from lpmech import _dual, reduction
from lpmech.dynamics import (
    LPLagrangian,
    LPState,
    _jet,
    accelerations,
    integrate_lp,
    pullback,
)
from lpmech.errors import (
    AxiomViolation,
    ChartExit,
    DimensionMismatch,
    InvarianceViolation,
    NotNormal,
    NotSupported,
)
from lpmech.liegroups import (
    Ad,
    MatrixLieGroup,
    abelian,
    heisenberg3,
    so3,
    structure_constants,
)
from lpmech.lpbundle import (
    ChartDomain,
    LPBundleChart,
    _max_abs,
    _table_jacobian,
    check_axioms,
    shift,
    table_shapes,
    transport,
)
from lpmech.reduction import (
    PrincipalScenario,
    RepW,
    _body_velocity,
    alpha_map,
    build_reduced_bundle,
    curvature_form,
    defining_representation,
    exp_chart_samples,
    group_chart_lagrangian,
    project_trajectory,
    reduce_lagrangian,
    reduced_noether,
    require_axioms,
    stages_reduce,
    trivial_representation,
    two_stage_lagrangian,
)
from lpmech.smoothmap import SmoothMap, _ConstantBody, constant_map, eval_map, jacobian
from lpmech.systems import build_system


def linear_table(d, k, seed):
    rng = np.random.default_rng(seed)
    const = rng.uniform(-0.6, 0.6, (d, k))
    slope = rng.uniform(-0.4, 0.4, (d, k, d))

    def body(x):
        rows = []
        for i in range(d):
            for a in range(k):
                val = const[i, a]
                for j in range(d):
                    val = val + slope[i, a, j] * x[j]
                rows.append(val)
        dtype = object if np.asarray(x).dtype == object else float
        return np.array(rows, dtype=dtype).reshape(d, k)

    return SmoothMap(d, d * k, body, out_shape=(d, k)), const, slope


def so3_linear_scenario(seed=3, with_w=False):
    base = ChartDomain(2, [[-1.0, 1.0], [-1.0, 1.0]])
    A, const, slope = linear_table(2, 3, seed)
    rep = defining_representation(so3()) if with_w else None
    return PrincipalScenario(base, so3(), A, rep), const, slope


def unitriangular_inverse(g):
    """Inverse of I + N for nilpotent N; a polynomial, so dual-safe."""
    n = g.shape[0]
    eye = np.eye(n, dtype=object)
    N = np.asarray(g, dtype=object) - eye
    out = eye.copy()
    power = eye.copy()
    for _ in range(n - 1):
        power = _mm(power, N)
        out = out - power if _ % 2 == 0 else out + power
    return out


def _mm(a, b):
    n = a.shape[0]
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            out[i, j] = sum(a[i, r] * b[r, j] for r in range(n))
    return out


def _transpose(g):
    n = g.shape[0]
    gt = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            gt[i, j] = g[j, i]
    return gt


def rigid_body_lagrangian(inertia):
    inertia = np.asarray(inertia, dtype=float)
    G = so3()

    def L(x, xdot, g, gdot, w):
        xi_mat = _mm(_transpose(np.asarray(g)), np.asarray(gdot, dtype=object))
        xi = G.unhat(xi_mat)
        return 0.5 * sum(inertia[a] * xi[a] * xi[a] for a in range(3))

    return L


# ---------------------------------------------------------------------------
# scenario validation


def test_representation_generators_must_close():
    bad = np.stack([np.asarray(b, float) for b in so3().basis])
    bad[2] = 0.0
    with pytest.raises(ValueError, match="close"):
        PrincipalScenario(
            ChartDomain(1), so3(), repW=RepW(3, bad, lambda g: g)
        )


def test_connection_table_shape_is_checked():
    wrong = SmoothMap(1, 2, lambda x: np.array([x[0], -x[0]]), out_shape=(1, 2))
    with pytest.raises(DimensionMismatch):
        PrincipalScenario(ChartDomain(1), so3(), wrong)
    # the two-form of a 2-dimensional W over a line times so3 maps R^4 to (2, 4, 4)
    rep = trivial_representation(so3(), 2)
    for in_dim, shape in ((4, (1, 4, 4)), (3, (2, 3, 3)), (4, (2, 4, 3))):
        with pytest.raises(DimensionMismatch, match="two-form"):
            PrincipalScenario(
                ChartDomain(1), so3(), repW=rep, two_form=constant_map(in_dim, np.zeros(shape))
            )
    PrincipalScenario(ChartDomain(1), so3(), repW=rep, two_form=constant_map(4, np.zeros((2, 4, 4))))


def test_scenario_tables_of_the_wrong_size_or_shape_name_the_table():
    rep = trivial_representation(so3(), 2)
    for kw, match in (
        ({"A": np.zeros((1, 2))}, "^connection table must be a table of shape \\(1, 3\\)"),
        ({"A": constant_map(2, np.zeros((1, 3)))}, "^connection table must map R\\^1"),
        ({"repW": rep, "two_form": np.zeros((2, 4, 3))}, "^two-form table must be a table"),
        ({"repW": rep, "two_form": constant_map(3, np.zeros((2, 4, 4)))}, "^two-form table must map"),
    ):
        with pytest.raises(DimensionMismatch, match=match):
            PrincipalScenario(ChartDomain(1), so3(), **kw)


def _table_scenarios():
    """Pairs of one scenario with A and two_form given as arrays and as their
    constant maps: so3 with the defining W over a plane, and a plane group
    with a trivial line W and a nonzero two-form over a line."""
    rng = np.random.default_rng(8)
    A = rng.uniform(-0.5, 0.5, (2, 3))
    yield [
        PrincipalScenario(ChartDomain(2), so3(), A_, defining_representation(so3()), O_)
        for A_, O_ in ((A, np.zeros((3, 5, 5))), (constant_map(2, A), constant_map(5, np.zeros((3, 5, 5)))))
    ]
    A = rng.uniform(-0.5, 0.5, (1, 2))
    O = rng.uniform(-0.5, 0.5, (1, 3, 3))
    O = O - O.transpose(0, 2, 1)
    rep = trivial_representation(abelian(2), 1)
    yield [
        PrincipalScenario(ChartDomain(1), abelian(2), A_, rep, O_)
        for A_, O_ in ((A, O), (constant_map(1, A), constant_map(3, O)))
    ]


@pytest.mark.parametrize("pair", list(_table_scenarios()), ids=["so3-W", "plane-W"])
def test_scenario_tables_are_their_constant_maps(pair):
    """A and two_form given as arrays reduce to the tables, bit for bit, of
    the same scenario given by constant maps."""
    by_table, by_map = (build_reduced_bundle(sc, n_samples=5).bundle for sc in pair)
    rng = np.random.default_rng(1)
    for _ in range(3):
        x = by_map.base.sample(rng)
        for got, want in zip(by_table.tables(x), by_map.tables(x)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# ---------------------------------------------------------------------------
# curvature of the connection


def test_curvature_zero_for_missing_connection():
    sc = PrincipalScenario(ChartDomain(2), abelian(1))
    B = curvature_form(sc, np.array([0.3, -0.4]))
    assert B.shape == (2, 2, 1)
    assert np.all(B == 0.0)


def test_curvature_zero_for_constant_abelian_connection():
    tab = np.array([[0.7], [-0.3]])
    A = SmoothMap(2, 2, lambda x: tab, out_shape=(2, 1))
    sc = PrincipalScenario(ChartDomain(2), abelian(1), A)
    B = curvature_form(sc, np.array([0.1, 0.2]))
    assert np.max(np.abs(B)) == 0.0


def test_curvature_matches_finite_difference_oracle():
    sc, const, slope = so3_linear_scenario()
    c = structure_constants(so3())
    x = np.array([0.25, -0.4])
    B = curvature_form(sc, x)
    assert np.max(np.abs(B + B.transpose(1, 0, 2))) < 1e-12

    h = 1e-6
    for i in range(2):
        for j in range(2):
            ei = np.zeros(2)
            ei[i] = h
            ej = np.zeros(2)
            ej[j] = h
            Aval = lambda y: np.asarray(eval_map(sc.A, y), float)
            dA = (Aval(x + ei)[j] - Aval(x - ei)[j]) / (2 * h) - (
                Aval(x + ej)[i] - Aval(x - ej)[i]
            ) / (2 * h)
            comm = np.einsum("gab,a,b->g", c, Aval(x)[i], Aval(x)[j])
            assert np.max(np.abs(B[i, j] - (dA + comm))) < 1e-8


def test_curvature_outside_chart_raises():
    sc, _, _ = so3_linear_scenario()
    with pytest.raises(ChartExit):
        curvature_form(sc, np.array([3.0, 0.0]))


# ---------------------------------------------------------------------------
# building reduced bundles


def test_point_base_rotation_group_reduces_to_algebra_chart():
    handle = build_reduced_bundle(PrincipalScenario(ChartDomain(0), so3()))
    b = handle.bundle
    assert (b.n, b.m) == (0, 3)
    C = np.asarray(eval_map(b.c, np.zeros(0)), float)
    assert np.max(np.abs(C - structure_constants(so3()))) == 0.0
    assert handle.axioms["passed"]


def test_abelian_connection_gives_curl_two_form():
    def body(x):
        return np.array([0.5 * x[1] * x[1], -x[0] * x[1]], dtype=object).reshape(2, 1)

    A = SmoothMap(2, 2, body, out_shape=(2, 1))
    sc = PrincipalScenario(ChartDomain(2), abelian(1), A)
    handle = build_reduced_bundle(sc)
    x = np.array([0.3, -0.2])
    Om = np.asarray(eval_map(handle.bundle.omega, x), float)
    # curl of (y^2/2, -x y): d_x A_2 - d_y A_1 = -y - y
    assert abs(Om[0, 0, 1] - (-2 * x[1])) < 1e-12
    assert abs(Om[0, 1, 0] + Om[0, 0, 1]) == 0.0
    C = np.asarray(eval_map(handle.bundle.c, x), float)
    assert np.max(np.abs(C)) == 0.0


def test_axiom_gate_attaches_the_failing_report():
    """A bundle whose two-form is not closed fails the gate; the exception
    carries the very report it was given.  A passing report goes through."""

    def omega_body(q):
        out = np.zeros((1, 3, 3), dtype=object)
        out[0, 0, 1], out[0, 1, 0] = q[2], -q[2]
        return out

    om = SmoothMap(3, 9, omega_body, out_shape=(1, 3, 3))
    report = check_axioms(LPBundleChart(ChartDomain(3), 1, omega=om))
    with pytest.raises(AxiomViolation, match="^open bundle failed the structure") as info:
        require_axioms(report, "open bundle")
    assert info.value.report is report
    assert "d_two_form_closed" in str(info.value)

    good = check_axioms(LPBundleChart(ChartDomain(2), 1))
    assert require_axioms(good, "flat bundle") is good


def test_semidirect_blocks_and_axioms():
    sc, _, _ = so3_linear_scenario(seed=5, with_w=True)
    handle = build_reduced_bundle(sc)
    b = handle.bundle
    assert b.m == 6
    x = np.array([0.2, 0.4])
    C = np.asarray(eval_map(b.c, x), float)
    eps = structure_constants(so3())
    assert np.max(np.abs(C[:3, :3, :3] - eps)) == 0.0
    gen = sc.repW.gen
    for a in range(3):
        assert np.max(np.abs(C[3:, a, 3:] - gen[a])) == 0.0
        assert np.max(np.abs(C[3:, 3:, a] + gen[a])) == 0.0
    assert np.max(np.abs(C[:3, 3:, :])) == 0.0

    G = np.asarray(eval_map(b.Gamma, x), float)
    Aval = np.asarray(eval_map(sc.A, x), float)
    expect_w = -np.einsum("g,gpq->pq", Aval[0], gen)
    assert np.max(np.abs(G[0, 3:, 3:] - expect_w)) < 1e-12
    assert np.max(np.abs(G[0, :3, 3:])) == 0.0
    assert handle.axioms["passed"]


# ---------------------------------------------------------------------------
# the fiberwise isomorphism


def test_alpha_at_identity_with_flat_connection():
    sc = PrincipalScenario(
        ChartDomain(0), so3(), repW=defining_representation(so3())
    )
    w = np.array([0.3, -0.1, 0.8])
    x, xdot, xi, a = alpha_map(sc, np.zeros(0), np.zeros(0), np.eye(3), np.zeros((3, 3)), w)
    assert np.max(np.abs(xi)) == 0.0
    assert np.max(np.abs(a - w)) == 0.0


def test_alpha_reads_body_velocity():
    sc = PrincipalScenario(ChartDomain(0), so3())
    G = so3()
    g = np.asarray(G.exp(np.array([0.3, 0.0, 0.0])), float)
    xi_b = np.array([0.1, -0.2, 0.4])
    gdot = g @ np.asarray(G.hat(xi_b), float)
    _, _, xi, a = alpha_map(sc, np.zeros(0), np.zeros(0), g, gdot)
    assert np.max(np.abs(xi - xi_b)) < 1e-12
    assert a.size == 0


def test_alpha_round_trip():
    sc, _, _ = so3_linear_scenario(seed=9, with_w=True)
    G = so3()
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = sc.baseB.sample(rng)
        xdot = rng.normal(size=2)
        xi = rng.normal(size=3)
        a = rng.normal(size=3)
        g = np.asarray(G.exp(rng.normal(size=3) * 0.6), float)
        # the reconstruction: gdot = g hat(xi - A^T xdot), w = rho(g) a
        gdot = g @ G.hat(xi - eval_map(sc.A, x).T @ xdot)
        w = sc.repW.rho(g) @ a
        _, _, xi2, a2 = alpha_map(sc, x, xdot, g, gdot, w)
        assert np.max(np.abs(xi2 - xi)) < 1e-12
        assert np.max(np.abs(a2 - a)) < 1e-12


def test_alpha_rejects_invalid_group_element():
    sc = PrincipalScenario(ChartDomain(0), so3())
    with pytest.raises(ValueError, match="group element"):
        alpha_map(sc, np.zeros(0), np.zeros(0), 2.0 * np.eye(3), np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# Lagrangian reduction


def test_reduce_group_independent_lagrangian():
    sc, _, _ = so3_linear_scenario(seed=11)
    handle = build_reduced_bundle(sc)

    def L(x, xdot, g, gdot, w):
        return 0.5 * (xdot[0] * xdot[0] + 2.0 * xdot[1] * xdot[1]) + x[0]

    red = reduce_lagrangian(handle, L)
    val = red.value(np.array([0.2, -0.3]), np.array([0.5, 0.1]), np.array([0.4, 0.0, -0.2]))
    assert abs(val - (0.5 * (0.25 + 2 * 0.01) + 0.2)) < 1e-14


def test_reduced_rigid_body_follows_euler_equations():
    inertia = np.array([1.0, 2.0, 3.0])
    sc = PrincipalScenario(ChartDomain(0), so3())
    handle = build_reduced_bundle(sc)
    red = reduce_lagrangian(handle, rigid_body_lagrangian(inertia))

    xi = np.array([0.7, -0.4, 0.9])
    val = red.value(np.zeros(0), np.zeros(0), xi)
    assert abs(val - 0.5 * inertia @ (xi * xi)) < 1e-13

    s = LPState(np.zeros(0), np.zeros(0), xi)
    _, vdot = accelerations(red, s)
    expect = np.cross(inertia * xi, xi) / inertia
    assert np.max(np.abs(vdot - expect)) < 1e-10


def test_reduce_rejects_noninvariant_lagrangian():
    sc = PrincipalScenario(ChartDomain(0), so3())
    handle = build_reduced_bundle(sc)

    def L(x, xdot, g, gdot, w):
        return g[0, 0] + 0.5 * sum(gdot[i, -1] * gdot[i, -1] for i in range(3))

    with pytest.raises(InvarianceViolation, match="residual") as info:
        reduce_lagrangian(handle, L)
    exc = info.value
    assert exc.residual > 1e-10
    assert f"relative residual {exc.residual:.3e}" in str(exc)
    assert sorted(exc.worst_sample) == ["eta", "x", "xi"]
    assert exc.worst_sample["x"].shape == (0,)
    assert exc.worst_sample["xi"].shape == (3,) and exc.worst_sample["eta"].shape == (3,)


def test_reduce_rejects_lagrangian_that_is_nan_off_the_identity():
    # NaN compares false both ways, so a worst-residual fold that skips it
    # would pass this Lagrangian as invariant
    sc = PrincipalScenario(ChartDomain(0), so3())
    handle = build_reduced_bundle(sc)
    eye = np.eye(3)

    def L(x, xdot, g, gdot, w):
        if not np.array_equal(np.asarray(g, dtype=float), eye):
            return np.nan
        return 0.5 * np.sum(gdot * gdot)

    with pytest.raises(InvarianceViolation, match="relative residual nan") as info:
        reduce_lagrangian(handle, L)
    exc = info.value
    assert np.isnan(exc.residual)
    assert sorted(exc.worst_sample) == ["eta", "x", "xi"]


# ---------------------------------------------------------------------------
# projecting unreduced trajectories


def test_projected_one_parameter_subgroup_has_constant_body_velocity():
    sc = PrincipalScenario(ChartDomain(0), so3())
    G = so3()
    xi0 = np.array([0.4, 0.7, -0.3])
    times = np.linspace(0.0, 0.5, 6)
    samples = []
    for t in times:
        g = np.asarray(G.exp(t * xi0), float)
        samples.append(
            (np.zeros(0), np.zeros(0), g, g @ np.asarray(G.hat(xi0), float), np.zeros(0))
        )
    traj = project_trajectory(sc, times, samples)
    assert len(traj) == 6
    assert np.max(np.abs(traj.times - times)) == 0.0
    assert np.max(np.abs(traj.v_array() - xi0)) < 1e-12


def test_projected_chart_motion_satisfies_reduced_equations():
    inertia = np.array([1.0, 2.0, 3.0])
    sc = PrincipalScenario(ChartDomain(0), so3())
    chart_sys = group_chart_lagrangian(sc, rigid_body_lagrangian(inertia), radius=1.2)
    s0 = LPState(np.array([0.02, -0.01, 0.03]), np.array([0.4, 0.7, -0.3]), np.zeros(0))
    h = 1e-3
    traj = integrate_lp(chart_sys, s0, 0.0, 0.2, h)
    red = project_trajectory(sc, traj.times, exp_chart_samples(sc, traj))

    xi = red.v_array()
    mu = xi * inertia
    worst = 0.0
    for i in range(2, len(red) - 2):
        dmu = (-mu[i + 2] + 8 * mu[i + 1] - 8 * mu[i - 1] + mu[i - 2]) / (12 * h)
        worst = max(worst, np.max(np.abs(dmu - np.cross(mu[i], xi[i]))))
    assert worst < 1e-5


def test_chart_form_rejects_nonpoint_base():
    sc, _, _ = so3_linear_scenario()
    with pytest.raises(NotSupported):
        group_chart_lagrangian(sc, rigid_body_lagrangian(np.ones(3)))


# ---------------------------------------------------------------------------
# the W-block of the reduced bracket: c[k + p, r, k + q] = <e_p, rho'(e_r) e_q>


def _w_block(G, rep):
    """c[k:, :k, k:] of the reduced bundle of a point-base scenario."""
    handle = build_reduced_bundle(PrincipalScenario(ChartDomain(0), G, repW=rep))
    _, c, _ = handle.bundle.tables(np.zeros(0))
    return c[G.dim :, : G.dim, G.dim :]


def test_diamond_matches_group_action_pairing_on_basis_triples():
    # c[k + p, r, k + q] must be the derivative of <e_p, rho(exp(t e_r)) e_q>
    # at t = 0, computed here by central differences on the group action
    G = so3()
    W = _w_block(G, defining_representation(G))
    h = 1e-6
    for r in range(3):
        eta = h * np.eye(3)[r]
        fd = (np.asarray(G.exp(eta), float) - np.asarray(G.exp(-eta), float)) / (2 * h)
        assert np.max(np.abs(W[:, r, :] - fd)) < 1e-9


def test_diamond_is_cross_product_for_rotations():
    # <a, rho'(e_r) b> = (b x a)[r] for rotations acting on R^3
    W = _w_block(so3(), defining_representation(so3()))
    rng = np.random.default_rng(7)
    for _ in range(5):
        b = rng.normal(size=3)
        a = rng.normal(size=3)
        assert np.max(np.abs(np.einsum("p,prq,q->r", a, W, b) - np.cross(b, a))) < 1e-14


def test_diamond_vanishes_for_trivial_representation():
    assert np.max(np.abs(_w_block(so3(), trivial_representation(so3(), 4)))) == 0.0


# ---------------------------------------------------------------------------
# reduced current


def test_reduced_noether_is_momentum_pairing():
    inertia = np.array([1.0, 2.0, 3.0])
    sc = PrincipalScenario(ChartDomain(0), so3())
    handle = build_reduced_bundle(sc)
    red = reduce_lagrangian(handle, rigid_body_lagrangian(inertia))
    xi = np.array([0.5, -0.3, 0.2])
    s = LPState(np.zeros(0), np.zeros(0), xi)
    eta = np.array([1.0, 1.0, -2.0])
    j = reduced_noether(red, s, eta)
    assert abs(j - (inertia * xi) @ eta) < 1e-12
    with pytest.raises(DimensionMismatch):
        reduced_noether(red, s, np.ones(4))


# ---------------------------------------------------------------------------
# two-stage reduction


def abelian_plane_scenario():
    base = ChartDomain(1, [[-1.0, 1.0]])
    tab_body = lambda x: np.array([0.4 * x[0], -0.7], dtype=object).reshape(1, 2)
    A = SmoothMap(1, 2, tab_body, out_shape=(1, 2))
    return PrincipalScenario(base, abelian(2), A)


def abelian_invariant_lagrangian(x, xdot, g, gdot, w):
    xi = [gdot[0, -1], gdot[1, -1]]
    return (
        0.5 * (1.0 + x[0] * x[0]) * xdot[0] * xdot[0]
        + 0.5 * (xi[0] * xi[0] + 1.5 * xi[1] * xi[1])
        + 0.25 * xi[0] * xdot[0]
    )


def test_stages_abelian_plane_is_exact_reshuffle():
    sc = abelian_plane_scenario()
    handle = build_reduced_bundle(sc)
    res = stages_reduce(handle, [0])
    assert res.kidx == (1,) and res.nidx == (0,)
    assert np.max(np.abs(res.beta - np.array([[0.0, 1.0], [1.0, 0.0]]))) == 0.0
    assert res.structure_deviation < 1e-12

    l2 = pullback(two_stage_lagrangian(res, abelian_invariant_lagrangian), res.beta, res.beta.T)
    direct = reduce_lagrangian(handle, abelian_invariant_lagrangian)
    rng = np.random.default_rng(12)
    for _ in range(20):
        x = sc.baseB.sample(rng)
        xdot = rng.normal(size=1)
        v = rng.normal(size=2)
        d = direct.value(x, xdot, v)
        t = l2.value(x, xdot, v)
        assert abs(d - t) < 1e-12


def heisenberg_scenario():
    return PrincipalScenario(ChartDomain(0), heisenberg3())


def _stage_handles(nidx):
    """Both stage handles of a Heisenberg scenario over a line."""
    sc = PrincipalScenario(
        ChartDomain(1, [[-1.0, 1.0]]), heisenberg3(1.3), linear_table(1, 3, 7)[0]
    )
    res = stages_reduce(build_reduced_bundle(sc), nidx)
    return [res.stage1, res.stage2]


def _line_scenario(rep):
    return PrincipalScenario(ChartDomain(1, [[-1.0, 1.0]]), so3(), linear_table(1, 3, 11)[0], rep)


_REBUILD_CASES = {
    **{name: lambda name=name: [build_system(name).handle]
       for name in ("rigid_body", "parameter_lagrangian", "heisenberg_stages")},
    "line": lambda: [build_reduced_bundle(_line_scenario(None))],
    "line-trivial-W": lambda: [build_reduced_bundle(_line_scenario(trivial_representation(so3(), 2)))],
    **{f"stages-{list(nidx)}": lambda nidx=nidx: _stage_handles(nidx)
       for nidx in ((2,), (0, 2), (1, 2))},
}


@pytest.mark.parametrize("case", list(_REBUILD_CASES))
def test_rebuilding_from_the_scenario_gives_the_same_tables(case):
    """build_reduced_bundle(h.scenario) rebuilds the bundle of a handle h bit
    for bit, stage 2 of stages_reduce included: its scenario carries the
    stage-1 fiber and two-form."""
    for h in _REBUILD_CASES[case]():
        rebuilt = build_reduced_bundle(h.scenario, n_samples=2).bundle
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = h.bundle.base.sample(rng)
            for got, want in zip(rebuilt.tables(x), h.bundle.tables(x)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_stages_reduce_checks_only_the_two_stages(monkeypatch):
    """The direct reduction comes from the caller; stages_reduce builds stage 1
    and stage 2 with build_reduced_bundle, once each, and checks the axioms
    of those two bundles and of nothing else."""
    handle = build_reduced_bundle(heisenberg_scenario())
    built, checked = [], []
    real_build, real_check = reduction.build_reduced_bundle, reduction.check_axioms

    def counting_build(sc, *args, **kwargs):
        built.append(sc)
        return real_build(sc, *args, **kwargs)

    def counting_check(bundle, *args, **kwargs):
        checked.append(bundle)
        return real_check(bundle, *args, **kwargs)

    monkeypatch.setattr(reduction, "build_reduced_bundle", counting_build)
    monkeypatch.setattr(reduction, "check_axioms", counting_check)
    res = stages_reduce(handle, [2])
    assert len(built) == 2 and len(checked) == 2
    assert built[0] is res.stage1.scenario and built[1] is res.stage2.scenario
    assert checked[0] is res.stage1.bundle and checked[1] is res.stage2.bundle
    assert res.scenario is handle.scenario


def heisenberg_quadratic(Q, coupling=1.0):
    Q = np.asarray(Q, dtype=float)
    G = heisenberg3(coupling)

    def L(x, xdot, g, gdot, w):
        ginv = unitriangular_inverse(np.asarray(g))
        xi = G.unhat(_mm(ginv, np.asarray(gdot, dtype=object)))
        return 0.5 * sum(Q[i] * xi[i] * xi[i] for i in range(3))

    return L


def test_stages_heisenberg_center():
    sc = heisenberg_scenario()
    handle = build_reduced_bundle(sc)
    res = stages_reduce(handle, [2])
    assert res.kidx == (0, 1) and res.nidx == (2,)

    # intermediate two-form on the K-plane: constant, equal to -coupling
    Om1 = np.asarray(eval_map(res.stage1.bundle.omega, np.array([0.3, -0.8])), float)
    assert abs(Om1[0, 0, 1] + 1.0) < 1e-12

    # second-stage fiber bracket restores the central structure constant
    C2 = np.asarray(eval_map(res.stage2.bundle.c, np.zeros(0)), float)
    assert abs(C2[2, 0, 1] - 1.0) < 1e-12
    assert res.structure_deviation < 1e-8

    Q = np.array([1.0, 1.3, 1.7])
    l2 = pullback(two_stage_lagrangian(res, heisenberg_quadratic(Q)), res.beta, res.beta.T)
    direct = reduce_lagrangian(handle, heisenberg_quadratic(Q))
    rng = np.random.default_rng(3)
    for _ in range(100):
        v = rng.normal(size=3)
        d = direct.value(np.zeros(0), np.zeros(0), v)
        t = l2.value(np.zeros(0), np.zeros(0), v)
        assert abs(d - t) < 1e-10


# no shrink phase: a failing example is reported as drawn, in seconds rather
# than the minutes that shrinking three axiom checks per example takes
@settings(max_examples=5, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    coupling=st.floats(-2.0, 2.0),
    d=st.integers(0, 2),
    seed=st.integers(0, 2**16),
    Q=st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3),
    nidx=st.sampled_from([(2,), (0, 2), (1, 2)]),
)
# a non-central N with d >= 1: without the Ad_s(kc) dressing of the stage-1
# connection both still pass at d = 0
@example(coupling=1.0, d=2, seed=5, Q=[1.0, 1.3, 1.7], nidx=(0, 2))
@example(coupling=-1.7, d=1, seed=9, Q=[0.8, 1.9, 1.2], nidx=(1, 2))
def test_staged_reduction_equals_direct_reduction(coupling, d, seed, Q, nidx):
    """Reducing a Heisenberg scenario by an abelian ideal, the center (2,) or
    a non-central (0, 2) or (1, 2), and then by the quotient gives the direct
    reduction: the structure tables agree through beta, and the two-stage
    Lagrangian equals the directly reduced one.  With d >= 1 the stage-2
    connection block is nonzero, and with d = 2 so is the pulled-back
    two-form block; no CLI run reaches either."""
    base = ChartDomain(d, [[-1.0, 1.0]] * d) if d else ChartDomain(0)
    A, _, _ = linear_table(d, 3, seed)
    sc = PrincipalScenario(base, heisenberg3(coupling), A)
    handle = build_reduced_bundle(sc)
    res = stages_reduce(handle, nidx)
    assert res.structure_deviation <= 1e-8

    L = heisenberg_quadratic(Q, coupling)
    l2 = pullback(two_stage_lagrangian(res, L), res.beta, res.beta.T)
    direct = reduce_lagrangian(handle, L)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        x = base.sample(rng)
        xdot = rng.normal(size=d)
        v = rng.normal(size=3)
        expect = direct.value(x, xdot, v)
        assert abs(l2.value(x, xdot, v) - expect) <= 1e-10


def _beta_einsum_tables(beta, tables):
    """The direct tables in stage 2's fiber coordinates, by the einsums that
    compared the two reductions before transport: the oracle of its
    permutation case."""
    Gd, Cd, Od = tables
    return (
        np.einsum("pa,iab,qb->ipq", beta, Gd, beta),
        np.einsum("pg,gab,qa,rb->pqr", beta, Cd, beta, beta),
        np.einsum("pa,aij->pij", beta, Od),
    )


@pytest.mark.parametrize("d", [0, 2])
@pytest.mark.parametrize("nidx", [(2,), (0, 2), (1, 2)])
def test_transport_by_beta_matches_the_einsums_bit_for_bit(nidx, d):
    """On heisenberg_stages (d = 0), and over a plane, where Gamma and omega
    are not empty: a permutation moves every entry exactly."""
    if d:
        base = ChartDomain(d, [[-1.0, 1.0]] * d)
        handle = build_reduced_bundle(
            PrincipalScenario(base, heisenberg3(1.3), linear_table(d, 3, 7)[0])
        )
    else:
        handle = build_system("heisenberg_stages").handle
    kidx = [i for i in range(3) if i not in nidx]
    beta = np.eye(3)[kidx + list(nidx)]  # as stages_reduce builds it
    moved = transport(handle.bundle, beta.T, beta)
    rng = np.random.default_rng(4)
    for _ in range(3):
        x = handle.scenario.baseB.sample(rng)
        pairs = zip(moved.tables(x), _beta_einsum_tables(beta, handle.bundle.tables(x)))
        for got, want in pairs:
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def so3_cross_r():
    """Direct product of rotations with a line; nonabelian quotient case."""
    s = so3()
    basis = np.zeros((4, 5, 5))
    basis[:3, :3, :3] = s.basis
    basis[3, 3, 4] = 1.0

    def exp_body(xi):
        dt = object if np.asarray(xi).dtype == object else float
        g = np.eye(5, dtype=dt)
        g[:3, :3] = s.exp_body(xi[:3])
        g[3, 4] = xi[3]
        return g

    return MatrixLieGroup("so3xR", 5, basis, exp_body)


def test_stages_rejects_bad_subgroups():
    with pytest.raises(NotNormal):
        stages_reduce(build_reduced_bundle(PrincipalScenario(ChartDomain(0), so3())), [0])
    heis = build_reduced_bundle(heisenberg_scenario())
    # a non-central abelian ideal is reduced, with the quotient acting on it
    res = stages_reduce(heis, [0, 2])
    assert res.kidx == (1,) and res.structure_deviation <= 1e-8
    assert np.abs(res.stage2.scenario.repW.gen).max() == 1.0
    with pytest.raises(NotSupported, match="normal subgroup must be abelian"):
        stages_reduce(
            build_reduced_bundle(PrincipalScenario(ChartDomain(0), so3_cross_r())), [0, 1, 2]
        )
    with pytest.raises(NotSupported, match="abelian"):
        stages_reduce(
            build_reduced_bundle(PrincipalScenario(ChartDomain(0), so3_cross_r())), [3]
        )
    with pytest.raises(ValueError, match="indices"):
        stages_reduce(heis, [])
    with pytest.raises(ValueError, match="proper"):
        stages_reduce(heis, [0, 1, 2])
    sc_w = PrincipalScenario(
        ChartDomain(0), heisenberg3(), repW=trivial_representation(heisenberg3(), 2)
    )
    with pytest.raises(NotSupported, match="auxiliary"):
        stages_reduce(build_reduced_bundle(sc_w), [2])


def test_non_central_stage_one_connection_forms_only_the_Ad_block(monkeypatch):
    """One stage-1 connection call of heisenberg_stages with N = (0, 2), at
    a dual point, makes at most 62 dual products: Ad forms only its N block
    (the full columns, sliced to N afterwards, took 102)."""
    res = stages_reduce(build_system("heisenberg_stages").handle, [0, 2])
    A_N = res.stage1.scenario.A
    point = np.array([_dual.Dual(0.4, 1.0, _dual.fresh_level())], dtype=object)
    calls = []
    mul = _dual.Dual.__mul__
    monkeypatch.setattr(_dual.Dual, "__mul__", lambda s, o: calls.append(1) or mul(s, o))
    eval_map(A_N, point)
    assert len(calls) <= 62


def test_stages_override_warns_and_reports_deviation():
    handle = build_reduced_bundle(heisenberg_scenario())
    res0 = stages_reduce(handle, [2])

    def biased(xk):
        base = eval_map(res0.stage1.scenario.A, xk)
        out = np.empty((2, 1), dtype=object)
        out[0, 0] = base[0, 0] + 0.01 * xk[1]
        out[1, 0] = base[1, 0]
        return out

    override = SmoothMap(2, 2, biased, out_shape=(2, 1))
    with pytest.warns(UserWarning, match="overriding"):
        res = stages_reduce(handle, [2], override_A_N=override)
    assert res.compatibility_deviation > 1e-4
    assert res.structure_deviation > 1e-8


def test_stages_override_may_be_a_table():
    """A constant (d + s, r) table overrides as its constant map does; a
    table or map of another shape names the override."""
    handle = build_reduced_bundle(heisenberg_scenario())
    table = np.array([[0.1], [-0.2]])
    with pytest.warns(UserWarning, match="overriding"):
        runs = [stages_reduce(handle, [2], override_A_N=o) for o in (table, constant_map(2, table))]
    assert runs[0].compatibility_deviation == runs[1].compatibility_deviation > 1e-4
    for got, want in zip(*(r.stage2.bundle.tables(np.zeros(0)) for r in runs)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for bad in (np.zeros((2, 2)), constant_map(3, np.zeros((2, 1)))):
        with pytest.raises(DimensionMismatch, match="^override connection table must"):
            stages_reduce(handle, [2], override_A_N=bad)


# ---------------------------------------------------------------------------
# the connection enters the reduced tables through shift


def quadratic_table(d, k, seed):
    """A (d, k) table map, each entry a polynomial of degree 2 in x."""
    rng = np.random.default_rng(seed)
    a0, a1, a2 = (rng.uniform(-0.5, 0.5, (d, k) + (d,) * p) for p in range(3))

    def body(x):
        dtype = object if np.asarray(x).dtype == object else float
        rows = [[np.dot(a1[i, g], x) + np.dot(x, np.dot(a2[i, g], x)) for g in range(k)]
                for i in range(d)]
        return a0 + np.array(rows, dtype=dtype).reshape(d, k)

    return SmoothMap(d, d * k, body, out_shape=(d, k))


GROUPS = {"so3": so3, "heisenberg3": lambda: heisenberg3(1.3)}


def polynomial_scenario(group, d, with_w, A):
    G = GROUPS[group]()
    base = ChartDomain(d, [[-1.0, 1.0]] * d) if d else ChartDomain(0)
    return PrincipalScenario(base, G, A, defining_representation(G) if with_w else None)


def body_lagrangian(sc, seed):
    """L = f(x, xdot, xi, a), invariant through the body velocity xi =
    unhat(g^-1 gdot) and a = g^-1 w; f couples xdot, xi and a."""
    G, d, k, w = sc.G, sc.baseB.n, sc.k, sc.dim_w
    rng = np.random.default_rng(seed)
    Q = rng.uniform(0.5, 2.0, k)
    M, N = rng.uniform(-0.5, 0.5, (d, k)), rng.uniform(-0.5, 0.5, (w, k))

    def L(x, xdot, g, gdot, wv):
        ginv = G.inverse(g)
        xi = G.unhat(ginv @ np.asarray(gdot))
        a = ginv @ wv if w else wv
        out = sum(0.5 * Q[b] * xi[b] * xi[b] for b in range(k))
        out = out + sum(0.5 * (1.0 + 0.3 * x[i] * x[i]) * xdot[i] * xdot[i] for i in range(d))
        out = out + sum(M[i, b] * xdot[i] * xi[b] for i in range(d) for b in range(k))
        return out + sum(a[p] * (0.5 * a[p] + np.dot(N[p], xi)) for p in range(w))

    return L


# derandomized; no shrink phase: a failing pair is reported as drawn
@pytest.mark.parametrize("group", list(GROUPS))
@pytest.mark.parametrize("with_w", [False, True])
@settings(max_examples=2, phases=(Phase.explicit, Phase.generate))
@given(seed=st.integers(0, 2**16))
def test_the_reduced_bundle_does_not_depend_on_the_connection(group, with_w, seed):
    """The reduced charts of two connections A and A' are charts of one
    bundle, v = v' + S xdot with S = -[(A' - A)^T; 0]: the chart of A moved
    by shift has the tables of the chart of A', the reductions of one
    invariant L satisfy L_A'(v') = L_A(v' + S xdot), and their flows (50
    RK4 steps of 1e-3) from states so related stay so related.  The change
    of coordinates is not linear in the state, so RK4 in the two charts are
    two schemes whose gap is truncation error: 1.4e-10 at seed 0 on so3
    with W, 16 times less at each halving of the step."""
    d, k = 2, 3
    A, A2 = quadratic_table(d, k, seed), quadratic_table(d, k, seed + 1)
    sc, sc2 = (polynomial_scenario(group, d, with_w, M) for M in (A, A2))
    h, h2 = (build_reduced_bundle(s, n_samples=5) for s in (sc, sc2))
    w = sc.dim_w

    def s_body(x):
        return np.concatenate([-(eval_map(A2, x) - eval_map(A, x)).T, np.zeros((w, d))])

    S = SmoothMap(d, (k + w) * d, s_body, out_shape=(k + w, d))
    moved = shift(h.bundle, S)
    L = body_lagrangian(sc, seed)
    l, l2 = reduce_lagrangian(h, L), reduce_lagrangian(h2, L)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        x = sc.baseB.sample(rng)
        assert _max_abs(*map(np.subtract, h.bundle.tables(x), h2.bundle.tables(x))) > 0.01
        assert _max_abs(*map(np.subtract, moved.tables(x), h2.bundle.tables(x))) <= 1e-12
        xdot, v2 = rng.normal(size=d), rng.normal(size=k + w)
        v = v2 + np.asarray(eval_map(S, x), float) @ xdot
        assert abs(l2.value(x, xdot, v2) - l.value(x, xdot, v)) <= 1e-10
    flow2 = integrate_lp(l2, LPState(x, xdot, v2), 0.0, 0.05, 1e-3)
    flow = integrate_lp(l, LPState(x, xdot, v), 0.0, 0.05, 1e-3)
    assert len(flow) == len(flow2) == 51
    for a, b in zip(flow.states, flow2.states):
        assert _max_abs(a.q - b.q, a.v - b.v - np.asarray(eval_map(S, b.q), float) @ b.qdot) <= 1e-9


# The reduced tables as build_reduced_bundle wrote them before shift, kept as
# the oracle of the change: the connection blocks -A[i, g] T[g], the lift
# P = [I; -A^T] with P^T Omega and P^T Omega P, and dA less the bracket terms
# one (g, h) pair at a time.


def _replaced_exterior_derivative(M, x):
    d, r = M.out_shape
    J = np.asarray(jacobian(M, x)).reshape(d, r, d)  # J[i, g, j] = d_j A[i, g]
    return J.transpose(1, 2, 0) - J.transpose(1, 0, 2)


def _replaced_structure_maps(sc):
    d, k = sc.baseB.n, sc.k
    shapes = dict(table_shapes(d, k + sc.dim_w))
    c, gen = sc._c, sc.repW.gen
    c_red = np.zeros(shapes["c"])
    c_red[:k, :k, :k] = c
    c_red[k:, :k, k:] = gen.transpose(1, 0, 2)
    c_red[k:, k:, :k] = -gen.transpose(1, 2, 0)
    blocks = [(slice(None, k), -c.transpose(1, 0, 2)), (slice(k, None), -gen)]
    bracket = c.transpose(1, 2, 0)  # bracket[g, h, a] = c[a, g, h]
    zero_k = np.zeros(k).astype(object)

    def two_form_at(x):
        return eval_map(sc.two_form, np.concatenate([np.asarray(x, dtype=object), zero_k]))

    def lift(A):
        return np.concatenate([np.eye(d), -A.T])

    def c_body(x):
        O = two_form_at(x)
        out = c_red.astype(O.dtype)
        out[k:, :k, :k] -= O[:, d:, d:]
        return out

    def gamma_body(x):
        A, O = eval_map(sc.A, x), two_form_at(x)
        out = np.zeros(shapes["Gamma"]).astype(np.result_type(A, O))
        for blk, negT in blocks:
            out[:, blk, blk] = np.einsum("gab,ig->iab", negT, A)
        out[:, k:, :k] -= np.einsum("vi,pvb->ipb", lift(A), O[:, :, d:])
        return out

    def omega_body(x):
        A, O = eval_map(sc.A, x), two_form_at(x)
        At = A.T
        terms = bracket[..., None, None] * At[:, None, None, :, None] * At[None, :, None, None, :]
        dA = _replaced_exterior_derivative(sc.A, x)
        alg = np.subtract.reduce(np.concatenate([dA[None], terms.reshape(k * k, k, d, d)]))
        P = lift(A)
        return np.concatenate([alg, np.einsum("vi,pvu,uj->pij", P, O, P)])

    bodies = {"Gamma": gamma_body, "c": c_body, "omega": omega_body}
    maps = {
        name: SmoothMap(d, int(np.prod(shape)), bodies[name], out_shape=shape, name=f"{name}_red")
        for name, shape in shapes.items()
    }
    if isinstance(sc.two_form.body, _ConstantBody):
        maps["c"] = constant_map(d, c_body(np.zeros(d)), "c_red")
    return maps


def _oracle_handles(group, d, with_w):
    A = quadratic_table(d, 3, 10 * d + with_w)
    return [build_reduced_bundle(polynomial_scenario(group, d, with_w, A), n_samples=5)]


@cache
def _line_stages(nidx):
    """The direct reduction and stages of a heisenberg3 scenario over a line,
    built once per nidx; the stage-2 two-form, the stage-1 omega, is not
    constant."""
    sc = polynomial_scenario("heisenberg3", 1, False, quadratic_table(1, 3, 7))
    direct = build_reduced_bundle(sc, n_samples=5)
    return direct, stages_reduce(direct, nidx)


def _oracle_stage_handles(nidx):
    res = _line_stages(nidx)[1]
    return [res.stage1, res.stage2]


_ORACLE_CASES = {
    **{f"{group}-d{d}" + ("-W" if with_w else ""): partial(_oracle_handles, group, d, with_w)
       for group in GROUPS for d in (0, 1, 2) for with_w in (False, True)},
    **{f"stages-{list(nidx)}": partial(_oracle_stage_handles, nidx) for nidx in ((2,), (0, 2))},
}


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_reduced_tables_match_the_replaced_construction_bit_for_bit(case):
    """Float tables with the same bits, and table Jacobians that compare
    equal: an exact zero of a Jacobian may change its sign, which no
    residual reads."""
    for h in _ORACLE_CASES[case]():
        old = LPBundleChart(h.scenario.baseB, h.bundle.m, **_replaced_structure_maps(h.scenario))
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = h.bundle.base.sample(rng)
            for got, want in zip(h.bundle.tables(x), old.tables(x)):
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            for name in ("Gamma", "c", "omega"):
                got, want = (_table_jacobian(getattr(b, name), x) for b in (h.bundle, old))
                assert np.array_equal(got, want)


# The stages as stages_reduce and two_stage_lagrangian built them when stage 1
# reduced by the translation group abelian(r) and L1 mapped its elements back
# into G through a second exp pass, kept as the oracle of reducing stage 1 by
# N in G: the same bits, table Jacobians and the sign of each zero included.


def _translation_exp(G, idx, coords):
    out = [0.0] * G.dim
    for j, i in enumerate(idx):
        out[i] = coords[j]
    return G.exp(np.array(out, dtype=object))


def _translation_stages(sc, nidx, L):
    """(stage-1 bundle, stage-2 bundle, two-stage Lagrangian) of ``sc``."""
    d, k, c, G = sc.baseB.n, sc.k, sc._c, sc.G
    N = list(nidx)
    K = [i for i in range(k) if i not in N]
    r, s_dim = len(N), len(K)
    section, n_of = partial(_translation_exp, G, K), partial(_translation_exp, G, N)
    gen = c[np.ix_(N, K, N)].transpose(1, 0, 2)

    def a_n_body(xk):
        x, kc = xk[:d], xk[d:]
        out = [0.0] * k
        for j, i in enumerate(K):
            out[i] = kc[j]
        sinv = G.exp(-np.array(out, dtype=object))
        jets = [_dual.directional(section, np.asarray(kc, dtype=object), e) for e in np.eye(s_dim)]
        rows = np.concatenate(
            [eval_map(sc.A, x)[:, N], [G.unhat_product(sinv, ds, N) for _, ds in jets]]
        )
        if gen.any():
            rows = rows @ Ad(G, jets[0][0], sinv, N).T
        return np.array(rows.tolist())

    base1 = ChartDomain(
        d + s_dim,
        np.vstack([sc.baseB.bounds, np.tile([-2.0, 2.0], (s_dim, 1))]),
        list(sc.baseB.periodic) + [False] * s_dim,
    )
    A_N = SmoothMap(d + s_dim, (d + s_dim) * r, a_n_body, out_shape=(d + s_dim, r))
    stage1 = build_reduced_bundle(PrincipalScenario(base1, abelian(r), A_N), n_samples=5)
    A_K = SmoothMap(d, d * s_dim, lambda x: eval_map(sc.A, x)[:, K], out_shape=(d, s_dim))
    rep = RepW(r, gen, lambda h: Ad(G, section(h[:s_dim, -1]), section(-h[:s_dim, -1]), N))
    stage2 = build_reduced_bundle(
        PrincipalScenario(sc.baseB, abelian(s_dim), A_K, rep, stage1.bundle.omega), n_samples=5
    )

    def L1(xk, xkdot, n_mat, n_dot, w):
        x, kc = xk[:d], xk[d:]
        xdot, kcdot = xkdot[:d], xkdot[d:]
        nu, nudot = n_mat[:r, -1], n_dot[:r, -1]
        nG, nG_dot = _dual.directional(n_of, np.asarray(nu, dtype=object), nudot)
        s_mat, s_dot = _dual.directional(section, np.asarray(kc, dtype=object), kcdot)
        return L(x, xdot, nG @ s_mat, nG_dot @ s_mat + nG @ s_dot, w)

    l1 = reduce_lagrangian(stage1, L1)

    def f2(x, xdot, va):
        kdot = _body_velocity(eval_map(A_K, x), xdot, va)
        xk = np.concatenate([np.asarray(x, dtype=object), np.zeros(s_dim, dtype=object)])
        xkdot = np.concatenate([np.asarray(xdot, dtype=object), kdot])
        return l1.value(xk, xkdot, va[s_dim:])

    return stage1.bundle, stage2.bundle, LPLagrangian.from_callable(stage2.bundle, f2)


def _stage_oracle_case(system, nidx):
    """(direct handle, its stages, an invariant L)."""
    if system == "heisenberg_stages":
        rec = build_system(system)
        return rec.handle, stages_reduce(rec.handle, nidx), rec.unreduced_lagrangian
    direct, res = _line_stages(nidx)
    return direct, res, body_lagrangian(direct.scenario, 7)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("system", ["heisenberg_stages", "line"])
@pytest.mark.parametrize("nidx", [(2,), (0, 2), (1, 2)])
def test_stage_one_by_N_in_G_keeps_the_bits_of_the_translation_stage(system, nidx):
    """Stage 1 reduces by restrict(G, N) and L1 reads n s(kc) directly; the
    stage tables, their Jacobians and the two-stage Lagrangian's jets keep
    the bits of the translation-group construction, on a point base and
    over a line, where the stage-2 two-form and connection are not zero."""
    direct, res, L = _stage_oracle_case(system, nidx)
    old1, old2, old_l2 = _translation_stages(direct.scenario, nidx, L)
    rng = np.random.default_rng(11)
    for new, old in ((res.stage1.bundle, old1), (res.stage2.bundle, old2)):
        for _ in range(3):
            q = new.base.sample(rng)
            for got, want in zip(new.tables(q), old.tables(q)):
                assert got.shape == want.shape
                assert np.array_equal(_bits(got), _bits(want))
            for name in ("Gamma", "c", "omega"):
                got, want = (_table_jacobian(getattr(b, name), q) for b in (new, old))
                assert got.shape == want.shape
                assert np.array_equal(_bits(got), _bits(want))
    l2 = two_stage_lagrangian(res, L)
    d = direct.scenario.baseB.n
    for _ in range(3):
        s = LPState(direct.scenario.baseB.sample(rng), rng.normal(size=d), rng.normal(size=3))
        for got, want in zip(_jet(l2, s), _jet(old_l2, s)):
            assert np.array_equal(_bits(got), _bits(want))
