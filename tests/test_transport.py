"""Fiber transport and shift of bundle charts, and pullback of Lagrangians.

transport(b, T, Tinv) is the chart of b in the fiber coordinates w', where
w = T(q) w'; shift(b, S) is the chart of b in the fiber coordinates v',
where v = v' + S(q) qdot; pullback(L, T, Tinv) is L on a transported chart.
The laws checked here: a transport and its inverse cancel, and so do the
shifts by S and -S; two transports compose, and a shift composes with a
transport into the change v = T v' + S qdot; the closure conditions do not
depend on the frame or the shift; and the LP flow maps through pullback.
Every frame and every S is q-dependent, so the Tinv d_i T term of Gamma'
and the d_i S_j - d_j S_i term of omega' are in play.
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from lpmech.dynamics import LPState, integrate_lp, pullback
from lpmech.errors import DimensionMismatch
from lpmech.liegroups import _unitriangular_inverse
from lpmech.lpbundle import (
    ChartDomain,
    LPBundleChart,
    _max_abs,
    check_axioms,
    jacobi_residual,
    shift,
    transport,
)
from lpmech.smoothmap import SmoothMap, constant_map, eval_map
from lpmech.systems import flat_bundle_particle

from test_lpbundle import random_polynomial_section

# strictly triangular entries of the frames, as dual-safe functions of q
SHEAR2 = {(0, 1): lambda q: 0.3 * q[0] * q[1] + 0.2}
LOWER2 = {(1, 0): lambda q: 0.5 * q[0] - 0.2 * q[1]}
SHEAR3 = {
    (0, 1): lambda q: 0.4 * q[0],
    (1, 2): lambda q: 0.3 * q[1],
    (0, 2): lambda q: 0.5 * q[0] * q[1],
}


def unitriangular_frame(m, entries):
    """T(q) = I + N(q) on R^2, N strictly triangular with N[i, j] =
    entries[i, j](q), and its inverse, as maps."""

    def t_body(q):
        t = np.eye(m, dtype=object)
        for (i, j), f in entries.items():
            t[i, j] = f(q)
        return t

    def tinv_body(q):
        return _unitriangular_inverse(t_body(q))

    return tuple(SmoothMap(2, m * m, f, out_shape=(m, m)) for f in (t_body, tinv_body))


def closed_flat_chart():
    return flat_bundle_particle(omega_mode="closed").bundle


def affine_algebra_chart():
    """The nonabelian 2-dim fiber algebra [e0, e1] = e0 over the plane."""
    c = np.zeros((2, 2, 2))
    c[0, 0, 1], c[0, 1, 0] = 1.0, -1.0
    return LPBundleChart(ChartDomain(2), 2, c=c)


def curved_chart():
    """Gamma_1 = q0 J on a 2-vector fiber: its curvature J is not balanced by
    the zero two-form, so f_curvature_coupling fails."""
    J = np.array([[0.0, -1.0], [1.0, 0.0]])

    def body(q):
        G = np.zeros((2, 2, 2), dtype=object)
        G[1] = q[0] * J
        return G

    return LPBundleChart(ChartDomain(2), 2, Gamma=SmoothMap(2, 8, body, out_shape=(2, 2, 2)))


def table_gap(b1, b2, seed=0, count=10):
    """Largest table difference of two charts over seeded points of b1."""
    rng = np.random.default_rng(seed)
    points = [b1.base.sample(rng) for _ in range(count)]
    return max(_max_abs(*map(np.subtract, b1.tables(q), b2.tables(q))) for q in points)


def test_transport_by_T_then_by_Tinv_gives_back_the_tables():
    b = closed_flat_chart()
    T, Tinv = unitriangular_frame(2, SHEAR2)
    moved = transport(b, T, Tinv)
    assert table_gap(moved, b) > 0.1
    assert table_gap(transport(moved, Tinv, T), b) <= 1e-14


@pytest.mark.parametrize("make", [closed_flat_chart, affine_algebra_chart])
def test_two_transports_compose_into_the_transport_by_the_product(make):
    b = make()
    T1, T1inv = unitriangular_frame(2, SHEAR2)
    T2, T2inv = unitriangular_frame(2, LOWER2)

    def product(A, B):
        return SmoothMap(2, 4, lambda q: eval_map(A, q) @ eval_map(B, q), out_shape=(2, 2))

    twice = transport(transport(b, T1, T1inv), T2, T2inv)
    once = transport(b, product(T1, T2), product(T2inv, T1inv))
    assert table_gap(once, transport(b, product(T2, T1), product(T1inv, T2inv))) > 0.01
    assert table_gap(twice, once) <= 1e-14


@pytest.mark.parametrize(
    "make, failing",
    [
        (closed_flat_chart, []),
        (affine_algebra_chart, []),
        (curved_chart, ["f_curvature_coupling"]),
    ],
)
def test_check_axioms_gives_the_same_verdict_in_a_transported_frame(make, failing):
    b = make()
    T, Tinv = unitriangular_frame(2, SHEAR2)
    for chart in (b, transport(b, T, Tinv)):
        report = check_axioms(chart, n_samples=20, seed=2)
        assert [c.name for c in report.conditions if not c.passed] == failing
        if failing:
            assert report.condition("f_curvature_coupling").max_residual > 0.5
        else:
            assert max(c.max_residual for c in report.conditions) <= 1e-14


def test_a_pure_gauge_passes_and_its_negation_fails():
    """Tinv d_i T is flat; with its sign flipped the curvature is twice the
    commutator of the two connection matrices, nonzero for this frame."""
    T, Tinv = unitriangular_frame(3, SHEAR3)
    gauge = transport(LPBundleChart(ChartDomain(2), 3), T, Tinv)
    report = check_axioms(gauge, n_samples=20, seed=5)
    assert report.passed
    assert max(c.max_residual for c in report.conditions) <= 1e-15

    def flipped(q):
        return -eval_map(gauge.Gamma, q)

    negated = LPBundleChart(gauge.base, 3, Gamma=SmoothMap(2, 18, flipped, out_shape=(2, 3, 3)))
    report = check_axioms(negated, n_samples=20, seed=5)
    assert [c.name for c in report.conditions if not c.passed] == ["f_curvature_coupling"]
    assert report.condition("f_curvature_coupling").max_residual > 0.1


def test_jacobi_residual_stays_at_round_off_on_a_transported_chart():
    T, Tinv = unitriangular_frame(2, SHEAR2)
    moved = transport(closed_flat_chart(), T, Tinv)
    rng = np.random.default_rng(31)
    Z = [random_polynomial_section(moved, rng) for _ in range(3)]
    for _ in range(3):
        assert jacobi_residual(moved, *Z, moved.base.sample(rng)) <= 1e-12


def test_transport_rejects_frames_of_the_wrong_shape_or_input():
    """Each message names the frame at fault."""
    b = closed_flat_chart()
    T, Tinv = unitriangular_frame(2, SHEAR2)
    wide = SmoothMap(3, 4, lambda q: np.eye(2), out_shape=(2, 2))
    for frames, match in (
        ((np.eye(3), np.eye(3)), "^T must be a table"),
        ((T, np.ones((2, 3))), "^Tinv must be a table"),
        ((wide, Tinv), "^T must map R\\^2"),
        ((T, wide), "^Tinv must map R\\^2"),
    ):
        with pytest.raises(DimensionMismatch, match=match):
            transport(b, *frames)


def test_transport_reshapes_a_flat_frame_table_of_the_right_size():
    b = gauged_algebra_chart()
    T = np.array([[1.0, 0.4], [0.0, 1.0]])
    Tinv = np.array([[1.0, -0.4], [0.0, 1.0]])
    assert table_gap(transport(b, T.ravel(), Tinv.ravel()), transport(b, T, Tinv)) == 0.0


def test_the_lp_flow_maps_through_pullback():
    """The flow of L and of pullback(L, T, Tinv) from v' = Tinv(q0) v0 agree:
    the same q, and v = T(q) v' along the way."""
    rec = flat_bundle_particle(omega_mode="closed")
    T, Tinv = unitriangular_frame(2, SHEAR2)
    s0 = rec.initial
    v0 = np.asarray(eval_map(Tinv, s0.q), float) @ s0.v
    direct = integrate_lp(rec.lagrangian, s0, 0.0, 0.2, 1e-3)
    pulled_sys = pullback(rec.lagrangian, T, Tinv)
    pulled = integrate_lp(pulled_sys, LPState(s0.q, s0.qdot, v0), 0.0, 0.2, 1e-3)
    assert len(direct) == len(pulled) == 201
    for a, b in zip(direct.states, pulled.states):
        assert np.max(np.abs(a.q - b.q)) <= 1e-12
        assert np.max(np.abs(a.v - np.asarray(eval_map(T, b.q), float) @ b.v)) <= 1e-12


# ---------------------------------------------------------------------------
# the shift v = v' + S(q) qdot


def polynomial_shift(m, seed, n=2):
    """S(q) = S0 + S1 q + q.S2.q entrywise, of shape (m, n), dual-safe."""
    rng = np.random.default_rng(seed)
    s0, s1, s2 = (rng.uniform(-1.0, 1.0, (m, n) + (n,) * p) for p in range(3))

    def body(q):
        dtype = object if np.asarray(q).dtype == object else float
        rows = [[np.dot(s1[a, i], q) + np.dot(q, np.dot(s2[a, i], q)) for i in range(n)]
                for a in range(m)]
        return s0 + np.array(rows, dtype=dtype)

    return SmoothMap(n, m * n, body, out_shape=(m, n))


def negated(S):
    return SmoothMap(S.in_dim, S.out_dim, lambda q: -eval_map(S, q), out_shape=S.out_shape)


def gauged_algebra_chart():
    """The affine algebra chart in a q-dependent frame: nonzero Gamma and c."""
    return transport(affine_algebra_chart(), *unitriangular_frame(2, SHEAR2))


SHIFT_CHARTS = [closed_flat_chart, affine_algebra_chart, gauged_algebra_chart]
# derandomized, as every property here; no shrink phase: a failing S is
# reported as drawn
SHIFT_SETTINGS = settings(max_examples=4, phases=(Phase.explicit, Phase.generate))


@pytest.mark.parametrize("make", SHIFT_CHARTS)
@SHIFT_SETTINGS
@given(seed=st.integers(0, 2**16))
def test_shift_by_S_then_by_minus_S_gives_back_the_tables(make, seed):
    """The second shift's Gamma'_i S_j cross terms give 2 c(S_i, S_j), which
    cancel the c(S, S) terms of both shifts."""
    b = make()
    S = polynomial_shift(2, seed)
    moved = shift(b, S)
    assert table_gap(moved, b) > 0.05
    assert table_gap(shift(moved, negated(S)), b) <= 1e-12


@pytest.mark.parametrize("make", SHIFT_CHARTS)
@SHIFT_SETTINGS
@given(seed=st.integers(0, 2**16))
def test_shift_after_transport_composes_to_the_change_by_T_and_S(make, seed):
    """v = T v' + S qdot is u = v' + Tinv S qdot after v = T u, and also
    u = T v' after v = u + S qdot; the shift by S itself after the transport
    is a different change."""
    b = make()
    T, Tinv = unitriangular_frame(2, SHEAR2)
    S = polynomial_shift(2, seed)
    tinv_s = SmoothMap(2, 4, lambda q: eval_map(Tinv, q) @ eval_map(S, q), out_shape=(2, 2))
    after = shift(transport(b, T, Tinv), tinv_s)
    before = transport(shift(b, S), T, Tinv)
    assert table_gap(shift(transport(b, T, Tinv), S), before) > 0.01
    assert table_gap(after, before) <= 1e-12


@pytest.mark.parametrize(
    "make, failing",
    [
        (closed_flat_chart, []),
        (affine_algebra_chart, []),
        (gauged_algebra_chart, []),
        (curved_chart, ["f_curvature_coupling"]),
    ],
)
@SHIFT_SETTINGS
@given(seed=st.integers(0, 2**16))
def test_check_axioms_gives_the_same_verdict_after_a_shift(make, failing, seed):
    b = make()
    for chart in (b, shift(b, polynomial_shift(b.m, seed))):
        report = check_axioms(chart, n_samples=10, seed=2)
        assert [c.name for c in report.conditions if not c.passed] == failing
        if failing:
            assert report.condition("f_curvature_coupling").max_residual > 0.5
        else:
            assert max(c.max_residual for c in report.conditions) <= 1e-12


@pytest.mark.parametrize("make", SHIFT_CHARTS)
@SHIFT_SETTINGS
@given(seed=st.integers(0, 2**16))
def test_jacobi_residual_stays_at_round_off_on_a_shifted_chart(make, seed):
    moved = shift(make(), polynomial_shift(2, seed))
    rng = np.random.default_rng(seed)
    Z = [random_polynomial_section(moved, rng) for _ in range(3)]
    for _ in range(2):
        assert jacobi_residual(moved, *Z, moved.base.sample(rng)) <= 1e-12


def test_shift_rejects_S_of_the_wrong_shape_or_input():
    b = closed_flat_chart()
    wide = SmoothMap(3, 4, lambda q: np.zeros((2, 2)), out_shape=(2, 2))
    tall = SmoothMap(2, 6, lambda q: np.zeros((3, 2)), out_shape=(3, 2))
    for S in (wide, tall, SmoothMap(2, 4, lambda q: np.zeros(4))):
        with pytest.raises(DimensionMismatch, match="^S must map R\\^2 to shape \\(2, 2\\)"):
            shift(b, S)
    with pytest.raises(DimensionMismatch, match="^S must be a table of shape"):
        shift(b, np.zeros((3, 2)))


@pytest.mark.parametrize("make", SHIFT_CHARTS)
def test_shift_by_a_constant_table_is_the_shift_by_its_constant_map(make):
    """An (m, n) array S is the constant map of its table, bit for bit."""
    b = make()
    S = np.array([[0.3, -0.7], [0.45, 0.2]])
    by_table, by_map = shift(b, S), shift(b, constant_map(2, S))
    assert table_gap(by_table, b) > 0.05
    rng = np.random.default_rng(5)
    for _ in range(3):
        q = b.base.sample(rng)
        for got, want in zip(by_table.tables(q), by_map.tables(q)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
