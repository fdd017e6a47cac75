"""Tests for chart domains, bundle structure data, and derived operators.

Derivative-based operators are checked two ways: against finite-difference
assemblies of the same tensors and against definitional constructions
(nested covariant derivatives for the curvature, nested section brackets
for the Jacobi residual).
"""

import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lpmech import _dual
from lpmech.errors import ChartExit, DimensionMismatch
from lpmech.lpbundle import (
    ChartDomain,
    LPBundleChart,
    Section,
    _max_abs,
    bracket_section,
    check_axioms,
    covariant_derivative,
    curvature,
    ext_cov_derivative_omega,
    jacobi_residual,
    section_bracket,
)
from lpmech.smoothmap import SmoothMap, eval_map, fd_jacobian
from lpmech.systems import flat_bundle_particle


def box(n, lo=-1.0, hi=1.0, periodic=None):
    bounds = np.tile([lo, hi], (n, 1))
    return ChartDomain(n, bounds, periodic)


# ---------------------------------------------------------------------------
# chart domains


def test_wrap_periodic_coordinate():
    dom = ChartDomain(2, [[0.0, 1.0], [-2.0, 2.0]], [True, False])
    q = dom.wrap([1.7, 1.5])
    assert np.allclose(q, [0.7, 1.5])
    q = dom.wrap([-0.25, -1.0])
    assert np.allclose(q, [0.75, -1.0])


def test_contains_ignores_periodic_but_not_box_directions():
    dom = ChartDomain(2, [[0.0, 1.0], [-2.0, 2.0]], [True, False])
    assert dom.contains([5.3, 0.0])
    assert not dom.contains([0.5, 2.5])


def test_contains_rejects_a_point_of_the_wrong_length():
    """No broadcasting: a length-2 point of a 1-dimensional chart used to
    count as inside, and a length-3 point of a 2-dimensional one raised
    numpy's broadcast ValueError."""
    with pytest.raises(DimensionMismatch, match="length 1"):
        ChartDomain(1).contains([0.5, 0.5])
    with pytest.raises(DimensionMismatch, match="length 2"):
        ChartDomain(2).contains([0.5, 0.5, 0.5])
    with pytest.raises(DimensionMismatch, match="length 0"):
        ChartDomain(0).require_inside([0.5])
    assert ChartDomain(0).contains([])


def test_require_inside_raises_chart_exit_with_state():
    dom = box(1)
    with pytest.raises(ChartExit) as err:
        dom.require_inside(np.array([1.5]), t=0.25)
    assert err.value.t == 0.25
    assert np.allclose(err.value.q, [1.5])
    # the error keeps a copy: a view of the caller's state may change later
    state = np.array([2.5, 7.0])
    with pytest.raises(ChartExit) as err:
        dom.require_inside(state[:1])
    state[0] = 0.0
    assert err.value.q.tolist() == [2.5]


def test_sample_respects_margin_and_seed():
    dom = ChartDomain(2, [[0.0, 1.0], [0.0, 10.0]], [True, False])
    rng = np.random.default_rng(7)
    pts = np.array([dom.sample(rng) for _ in range(500)])
    # periodic direction uses the full interval, box direction keeps 5%
    assert pts[:, 1].min() >= 0.5 and pts[:, 1].max() <= 9.5
    rng2 = np.random.default_rng(7)
    again = np.array([dom.sample(rng2) for _ in range(500)])
    assert np.array_equal(pts, again)


@st.composite
def domains(draw):
    """A chart domain of 0 to 4 coordinates, some periodic, over finite
    bounds of mixed scale, and a generator seed."""
    n = draw(st.integers(0, 4))
    edge = st.floats(-1e6, 1e6, allow_subnormal=False)
    bounds = []
    for _ in range(n):
        lo = draw(edge)
        bounds.append([lo, lo + draw(st.floats(1e-6, 1e6))])
    periodic = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return ChartDomain(n, np.array(bounds).reshape(n, 2), periodic), draw(st.integers(0, 2**32))


# no shrink phase: a failing domain is reported as drawn
@settings(max_examples=150, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(domains())
def test_sample_draws_what_the_per_call_interior_box_drew(case):
    """sample draws from the interior box computed once per domain; points
    and generator state stay those of the box formed on every call."""
    dom, seed = case
    got, want = np.random.default_rng(seed), np.random.default_rng(seed)
    lo, hi = dom.bounds.T
    pad = 0.05 * (hi - lo)
    p = dom.periodic
    for _ in range(3):
        pt = dom.sample(got)
        ref = want.uniform(np.where(p, lo, lo + pad), np.where(p, hi, hi - pad), dom.n)
        assert pt.dtype == ref.dtype and pt.shape == ref.shape and pt.tobytes() == ref.tobytes()
    assert got.bit_generator.state == want.bit_generator.state


def _max_abs_by_dispatch(*tensors):
    """_max_abs through numpy's np.max dispatch, the form it replaced."""
    vals = [np.max(np.abs(t)) if np.size(t) else 0.0 for t in tensors]
    if len(vals) > 1 and math.isnan(sum(vals)):
        return math.nan
    return float(max(vals)) if vals else 0.0


_entries = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300, -5e-324, np.inf, -np.inf, np.nan])
_tensors = st.one_of(
    _entries,
    hnp.arrays(
        float, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3), elements=_entries
    ),
)


# no shrink phase: a failing tensor list is reported as drawn
@settings(max_examples=300, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.lists(_tensors, max_size=4))
def test_max_abs_keeps_the_bits_of_the_dispatched_max(tensors):
    """The method max gives np.max's result, bit for bit, over tensors with
    NaN, infinities, signed zeros and no entries, and over float scalars."""
    got, want = _max_abs(*tensors), _max_abs_by_dispatch(*tensors)
    assert type(got) is type(want) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_domain_validation():
    with pytest.raises(ValueError):
        ChartDomain(1, [[1.0, 0.0]])
    with pytest.raises(ValueError):
        ChartDomain(1, [[0.0, np.inf]], [True])


@pytest.mark.parametrize("face", [0, 1])
def test_a_nan_bound_is_rejected(face):
    """A NaN face never fires, so such a box would hold -1e9 and make
    sample overflow; it is the empty-interval ValueError instead."""
    bounds = [[-1.0, 1.0], [-1.0, 1.0]]
    bounds[0][face] = np.nan
    with pytest.raises(ValueError, match="nonempty interval"):
        ChartDomain(2, bounds)


def _wrap_reference(dom, q):
    q = np.array(q, dtype=float)
    for i in range(dom.n):
        if dom.periodic[i]:
            lo, hi = dom.bounds[i]
            q[i] = lo + np.mod(q[i] - lo, hi - lo)
    return q


def _contains_reference(dom, q):
    q = _wrap_reference(dom, q)
    for i in range(dom.n):
        lo, hi = dom.bounds[i]
        if not dom.periodic[i] and (q[i] < lo - 1e-12 or q[i] > hi + 1e-12):
            return False
    return True


def _sample_reference(dom, rng):
    q = np.empty(dom.n)
    for i in range(dom.n):
        lo, hi = dom.bounds[i]
        if not dom.periodic[i]:
            pad = 0.05 * (hi - lo)
            lo, hi = lo + pad, hi - pad
        q[i] = rng.uniform(lo, hi)
    return q


@st.composite
def boxes_and_points(draw):
    """A box of dimension 0 to 4 with mixed periodic flags, and a point whose
    coordinates lie anywhere, on or just beside a face, or are NaN."""
    n = draw(st.integers(0, 4))
    bounds = np.empty((n, 2))
    q = []
    for i in range(n):
        lo = draw(st.floats(-10, 10))
        bounds[i] = lo, lo + draw(st.floats(0.01, 20))
        face = st.sampled_from(bounds[i]).flatmap(
            lambda x: st.sampled_from([x - 1e-11, x - 1e-13, x, x + 1e-13, x + 1e-11])
        )
        q.append(draw(st.one_of(st.floats(-60, 60), face, st.just(np.nan))))
    periodic = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return ChartDomain(n, bounds, periodic), q


@settings(max_examples=300, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(boxes_and_points(), st.integers(0, 2**32 - 1))
def test_chart_domain_matches_the_per_coordinate_reference(case, seed):
    dom, q = case
    assert dom.wrap(q).tobytes() == _wrap_reference(dom, q).tobytes()
    assert dom.contains(q) == _contains_reference(dom, q)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert dom.sample(rng).tobytes() == _sample_reference(dom, ref).tobytes()
    # both consumed the same draws, and a point base consumed none
    assert rng.bit_generator.state == ref.bit_generator.state
    if not dom.n:
        assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state


# ---------------------------------------------------------------------------
# structure data plumbing


def test_constant_and_zero_structure_maps():
    b = LPBundleChart(box(2), 2)
    q = np.array([0.3, -0.4])
    assert np.array_equal(eval_map(b.Gamma, q), np.zeros((2, 2, 2)))
    assert np.array_equal(eval_map(b.c, q), np.zeros((2, 2, 2)))
    assert np.array_equal(eval_map(b.omega, q), np.zeros((2, 2, 2)))

    G0 = np.arange(8.0).reshape(2, 2, 2)
    b2 = LPBundleChart(box(2), 2, Gamma=G0)
    assert np.array_equal(eval_map(b2.Gamma, q), G0)


def test_structure_map_shape_mismatch_rejected():
    """A map of the wrong shape or input dimension, or a constant table of the
    wrong size, is a DimensionMismatch, as for transport and LPLagrangian."""
    bad = SmoothMap(2, 4, lambda q: np.zeros(4), out_shape=(2, 2))
    with pytest.raises(DimensionMismatch, match="Gamma must map R\\^2 to shape"):
        LPBundleChart(box(2), 2, Gamma=bad)
    wrong_input = SmoothMap(3, 8, lambda q: np.zeros(8), out_shape=(2, 2, 2))
    with pytest.raises(DimensionMismatch, match="got R\\^3"):
        LPBundleChart(box(2), 2, Gamma=wrong_input)
    with pytest.raises(DimensionMismatch, match="omega must be a table of shape"):
        LPBundleChart(box(2), 2, omega=np.zeros(5))


def test_point_base_chart_allowed():
    b = LPBundleChart(ChartDomain(0, np.zeros((0, 2))), 3)
    assert eval_map(b.Gamma, np.zeros(0)).shape == (0, 3, 3)
    k = curvature(b, np.zeros(0))
    assert k.shape == (0, 0, 3, 3)


def test_point_base_float_tables_are_read_once_and_read_only():
    calls = []

    def chart(n):
        def body(q):
            calls.append(q.dtype)
            return np.arange(8.0).reshape(2, 2, 2)

        return LPBundleChart(box(n), 2, c=SmoothMap(n, 8, body, out_shape=(2, 2, 2)))

    b = chart(0)
    first = b.tables(np.zeros(0))
    for _ in range(3):
        assert all(x is y for x, y in zip(b.tables(np.zeros(0)), first))
    assert len(calls) == 1
    for got, M in zip(first, (b.Gamma, b.c, b.omega)):
        assert got.dtype == float and not got.flags.writeable
        assert np.array_equal(got, eval_map(M, np.zeros(0)))
    with pytest.raises(ValueError):
        first[1][0, 0, 0] = 1.0
    with pytest.raises(DimensionMismatch):
        b.tables(np.zeros(1))

    # object points, and a base of dimension 1, evaluate at every read
    calls.clear()
    for _ in range(3):
        assert b.tables(np.zeros(0, dtype=object))[1].dtype == object
    assert calls == [object] * 3
    b1 = chart(1)
    calls.clear()
    for _ in range(3):
        b1.tables(np.array([0.5]))
    assert len(calls) == 3


def test_constant_chart_float_tables_are_read_once_and_read_only():
    """All three maps from constant_map: every float read returns the same
    read-only arrays, with the bytes eval_map gives; object points get fresh
    object arrays, and one polynomial map makes every read evaluate."""
    G0 = np.arange(8.0).reshape(2, 2, 2) - 3.5
    G0[0, 0, 0] = -0.0
    b = LPBundleChart(box(2), 2, Gamma=G0, omega=-G0)
    q = np.array([0.3, -0.4])
    first = b.tables(q)
    for x in (q, np.array([-0.9, 0.1]), [0.0, 0.0]):
        assert all(got is want for got, want in zip(b.tables(x), first))
    for got, M in zip(first, (b.Gamma, b.c, b.omega)):
        assert got.dtype == float and not got.flags.writeable
        assert got.tobytes() == np.asarray(eval_map(M, q), float).tobytes()
    with pytest.raises(ValueError):
        first[0][0, 0, 0] = 1.0
    with pytest.raises(DimensionMismatch):
        b.tables(np.zeros(3))

    reads = [b.tables(q.astype(object)) for _ in range(2)]
    for got, again, want in zip(*reads, first):
        assert got.dtype == object and got.flags.writeable and got is not again
        assert np.array_equal(got.astype(float), want)

    calls = []

    def body(x):
        calls.append(x.dtype)
        return np.array([[[x[0], 1.0], [-1.0, x[1] ** 2]]] * 2)

    live = LPBundleChart(box(2), 2, Gamma=SmoothMap(2, 8, body, out_shape=(2, 2, 2)), omega=-G0)
    for x in ([0.5, 0.25], [0.5, 0.25], [-0.5, 0.75]):
        G = live.tables(np.array(x))[0]
        assert G.flags.writeable and G[1, 1, 1] == x[1] ** 2
    assert calls == [float] * 3


def test_mixed_chart_evaluates_only_its_varying_map(monkeypatch):
    """Polynomial Gamma beside constant c and omega: the constant tables are
    evaluated once per chart, so two float reads make four eval_map calls
    (six when every read evaluated all three maps), with the same bytes."""
    import lpmech.lpbundle as lpbundle

    C0 = np.arange(8.0).reshape(2, 2, 2) - 3.5
    C0[1, 0, 1] = -0.0
    b = LPBundleChart(
        box(2), 2, Gamma=SmoothMap(2, 8, gamma_so2_shear, out_shape=(2, 2, 2)), c=C0, omega=-C0
    )
    calls = []

    def counted(M, x):
        calls.append(M.name)
        return eval_map(M, x)

    monkeypatch.setattr(lpbundle, "eval_map", counted)
    points = [np.array([0.3, -0.4]), np.array([-0.9, 0.1])]
    reads = [b.tables(x) for x in points]
    assert len(calls) == 4
    assert calls.count("c") == calls.count("omega") == 1
    for x, got in zip(points, reads):
        for table, M in zip(got, (b.Gamma, b.c, b.omega)):
            assert table.dtype == float
            assert table.tobytes() == np.asarray(eval_map(M, x), float).tobytes()
    assert reads[0][1] is reads[1][1] and reads[0][2] is reads[1][2]
    assert not reads[0][1].flags.writeable and reads[0][0].flags.writeable
    assert reads[0][0] is not reads[1][0]


# ---------------------------------------------------------------------------
# covariant derivative


def gamma_so2_shear(q):
    # polynomial connection used across several tests below
    return np.array(
        [
            [[0.0, q[0]], [-q[0], q[1] ** 2]],
            [[q[0] * q[1], 1.0], [0.0, -q[0]]],
        ]
    )


def test_covariant_derivative_hand_value():
    # n=1, m=2, Gamma[0] = [[0, q], [-q, 0]], w = (q^2, 1), X = (1,)
    G = SmoothMap(
        1, 4, lambda q: np.array([[0.0 * q[0], q[0]], [-q[0], 0.0 * q[0]]]),
        out_shape=(1, 2, 2),
    )
    b = LPBundleChart(box(1), 2, Gamma=G)
    w = Section(
        SmoothMap(1, 1, lambda q: np.zeros(1)),
        SmoothMap(1, 2, lambda q: np.array([q[0] ** 2, 1.0 + 0.0 * q[0]])),
    )
    out = covariant_derivative(b, np.array([1.0]), w, np.array([2.0]))
    assert np.allclose(out.astype(float), [6.0, -8.0], atol=1e-13)


def test_covariant_derivative_matches_difference_quotient():
    b = LPBundleChart(
        box(2), 2, Gamma=SmoothMap(2, 8, gamma_so2_shear, out_shape=(2, 2, 2))
    )
    wmap = SmoothMap(
        2, 2, lambda q: np.array([q[0] ** 2 * q[1], q[1] ** 3 + q[0]])
    )
    w = Section(SmoothMap(2, 2, lambda q: np.zeros(2)), wmap)
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(10):
        q = b.base.sample(rng)
        X = rng.standard_normal(2)
        got = covariant_derivative(b, X, w, q).astype(float)
        quot = (eval_map(wmap, q + h * X) - eval_map(wmap, q - h * X)) / (2 * h)
        G = eval_map(b.Gamma, q)
        ref = quot + sum(X[i] * G[i] @ eval_map(wmap, q) for i in range(2))
        assert np.allclose(got, ref, atol=1e-7)


# ---------------------------------------------------------------------------
# curvature


def test_curvature_hand_value():
    # Gamma[1,0,0] = q1 and all else zero gives k[0,1,0,0] = 1
    G = SmoothMap(
        2, 2, lambda q: np.array([[[0.0 * q[0]]], [[q[0]]]]), out_shape=(2, 1, 1)
    )
    b = LPBundleChart(box(2), 1, Gamma=G)
    k = curvature(b, np.array([0.2, -0.3]))
    expect = np.zeros((2, 2, 1, 1))
    expect[0, 1, 0, 0] = 1.0
    expect[1, 0, 0, 0] = -1.0
    assert np.allclose(k, expect, atol=1e-12)


def test_curvature_antisymmetry_is_exact():
    b = LPBundleChart(
        box(2), 2, Gamma=SmoothMap(2, 8, gamma_so2_shear, out_shape=(2, 2, 2))
    )
    rng = np.random.default_rng(11)
    for _ in range(5):
        k = curvature(b, b.base.sample(rng))
        assert np.array_equal(k, -np.einsum("ijab->jiab", k))


def test_curvature_of_commuting_constant_connection_vanishes():
    G0 = np.zeros((2, 2, 2))
    G0[0] = [[0.0, -0.5], [0.5, 0.0]]
    b = LPBundleChart(box(2), 2, Gamma=G0)
    k = curvature(b, np.array([0.1, 0.2]))
    assert np.max(np.abs(k)) == 0.0


def test_curvature_matches_nested_covariant_derivatives():
    b = LPBundleChart(
        box(2), 2, Gamma=SmoothMap(2, 8, gamma_so2_shear, out_shape=(2, 2, 2))
    )
    wmap = SmoothMap(2, 2, lambda q: np.array([q[0] * q[1] ** 2, q[0] ** 3 - q[1]]))
    zero_x = SmoothMap(2, 2, lambda q: np.zeros(2))
    w = Section(zero_x, wmap)
    rng = np.random.default_rng(5)
    eye = np.eye(2)

    def grad_dir(j):
        body = lambda q: covariant_derivative(b, eye[j], w, q)
        return Section(zero_x, SmoothMap(2, 2, body, out_shape=(2,)))

    for _ in range(4):
        q = b.base.sample(rng)
        k = curvature(b, q)
        wv = eval_map(wmap, q)
        for i in range(2):
            for j in range(2):
                nested = covariant_derivative(
                    b, eye[i], grad_dir(j), q
                ) - covariant_derivative(b, eye[j], grad_dir(i), q)
                assert np.allclose(nested.astype(float), k[i, j] @ wv, atol=1e-8)


def test_curvature_matches_finite_difference_assembly():
    b = LPBundleChart(
        box(2), 2, Gamma=SmoothMap(2, 8, gamma_so2_shear, out_shape=(2, 2, 2))
    )
    rng = np.random.default_rng(13)
    for _ in range(5):
        q = b.base.sample(rng)
        G = eval_map(b.Gamma, q)
        dG = fd_jacobian(b.Gamma, q).reshape(2, 2, 2, 2)
        ref = np.zeros((2, 2, 2, 2))
        for i in range(2):
            for j in range(2):
                ref[i, j] = dG[j, :, :, i] - dG[i, :, :, j] + G[i] @ G[j] - G[j] @ G[i]
        assert np.allclose(curvature(b, q), ref, atol=1e-6)


# ---------------------------------------------------------------------------
# covariant exterior derivative of the two-form


def omega_linear_third(q):
    om = np.zeros((1, 3, 3), dtype=object)
    om[0, 0, 1] = q[2]
    om[0, 1, 0] = -q[2]
    return om


def test_ext_derivative_flags_nonclosed_form():
    b = LPBundleChart(
        box(3), 1, omega=SmoothMap(3, 9, omega_linear_third, out_shape=(1, 3, 3))
    )
    T = ext_cov_derivative_omega(b, np.array([0.3, 0.1, -0.2]))
    assert np.isclose(T[0, 2, 0, 1], 1.0, atol=1e-12)
    # fully antisymmetric in the three direction slots
    assert np.allclose(T, -np.einsum("aijk->ajik", T), atol=1e-12)


def test_ext_derivative_vanishes_for_constant_form_flat_connection():
    om = np.zeros((2, 3, 3))
    om[0, 0, 1], om[0, 1, 0] = 0.4, -0.4
    om[1, 1, 2], om[1, 2, 1] = -0.7, 0.7
    b = LPBundleChart(box(3), 2, omega=om)
    T = ext_cov_derivative_omega(b, np.array([0.1, 0.2, 0.3]))
    assert np.max(np.abs(T)) == 0.0


def test_ext_derivative_matches_finite_difference_assembly():
    n, m = 2, 2

    def om_body(q):
        om = np.zeros((m, n, n), dtype=object)
        om[0, 0, 1] = q[0] * q[1]
        om[0, 1, 0] = -q[0] * q[1]
        om[1, 0, 1] = q[1] ** 2
        om[1, 1, 0] = -q[1] ** 2
        return om

    b = LPBundleChart(
        box(n),
        m,
        Gamma=SmoothMap(n, 8, gamma_so2_shear, out_shape=(n, m, m)),
        omega=SmoothMap(n, 8, om_body, out_shape=(m, n, n)),
    )
    rng = np.random.default_rng(17)
    for _ in range(5):
        q = b.base.sample(rng)
        G = eval_map(b.Gamma, q)
        Om = np.asarray(eval_map(b.omega, q), dtype=float)
        dOm = fd_jacobian(b.omega, q).reshape(m, n, n, n)
        ref = np.zeros((m, n, n, n))
        for a in range(m):
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        for perm in ((i, j, k), (j, k, i), (k, i, j)):
                            p, r, s = perm
                            ref[a, i, j, k] += dOm[a, r, s, p] + G[p, a] @ Om[:, r, s]
        got = ext_cov_derivative_omega(b, q)
        assert np.allclose(got, ref, atol=1e-6)


# ---------------------------------------------------------------------------
# section bracket and Jacobi residual


def eps_structure(weights=(1.0, 1.0, 1.0)):
    """c[g,a,b] for [e_a, e_b] = w_g eps_{abg} e_g (cross-product family)."""
    c = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
    for a in range(3):
        for bb in range(3):
            for g in range(3):
                if len({a, bb, g}) == 3:
                    sign = 1.0 if (a, bb, g) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1.0
                    c[g][a][bb] = sign * weights[g]
    return np.array(c)  # dtype follows the weights (duals stay duals)


def test_constant_section_bracket_hand_value():
    om = np.zeros((3, 2, 2))
    om[0, 0, 1], om[0, 1, 0] = 0.3, -0.3
    om[1, 0, 1], om[1, 1, 0] = -0.2, 0.2
    b = LPBundleChart(box(2), 3, c=eps_structure(), omega=om)
    Z1 = Section.constant(b, [1.0, 0.0], [1.0, 0.0, 0.0])
    Z2 = Section.constant(b, [0.0, 1.0], [0.0, 1.0, 0.0])
    base, fiber = section_bracket(b, Z1, Z2, np.array([0.2, -0.5]))
    assert np.allclose(base.astype(float), [0.0, 0.0], atol=1e-14)
    # fiber = -omega(X1, X2) + e1 x e2 = (-0.3, 0.2, 0) + (0, 0, 1)
    assert np.allclose(fiber.astype(float), [-0.3, 0.2, 1.0], atol=1e-14)


def random_polynomial_section(b, rng):
    n, m = b.n, b.m
    cx = rng.standard_normal((n, n))
    qx = rng.standard_normal((n, n, n)) * 0.5
    cw = rng.standard_normal((m, n))
    qw = rng.standard_normal((m, n, n)) * 0.5
    x0 = rng.standard_normal(n)
    w0 = rng.standard_normal(m)
    return polynomial_section(b, x0, cx, qx, w0, cw, qw)


def polynomial_section(b, x0, cx, qx, w0, cw, qw):
    """X = x0 + cx q + q.qx.q and w = w0 + cw q + q.qw.q, dual-safe."""
    n, m = b.n, b.m

    def xb(q):
        return x0 + np.array(
            [np.dot(cx[i], q) + np.dot(q, np.dot(qx[i], q)) for i in range(n)],
            dtype=object,
        )

    def wb(q):
        return w0 + np.array(
            [np.dot(cw[a], q) + np.dot(q, np.dot(qw[a], q)) for a in range(m)],
            dtype=object,
        )

    return Section(
        SmoothMap(n, n, xb, out_shape=(n,)), SmoothMap(n, m, wb, out_shape=(m,))
    )


def test_section_bracket_antisymmetry():
    b = LPBundleChart(
        box(2),
        2,
        Gamma=SmoothMap(2, 8, gamma_so2_shear, out_shape=(2, 2, 2)),
        omega=np.array([[[0.0, 0.5], [-0.5, 0.0]], [[0.0, -0.1], [0.1, 0.0]]]),
    )
    rng = np.random.default_rng(23)
    Z1 = random_polynomial_section(b, rng)
    Z2 = random_polynomial_section(b, rng)
    for _ in range(5):
        q = b.base.sample(rng)
        b12, f12 = section_bracket(b, Z1, Z2, q)
        b21, f21 = section_bracket(b, Z2, Z1, q)
        assert np.allclose(b12.astype(float), -b21.astype(float), atol=1e-12)
        assert np.allclose(f12.astype(float), -f21.astype(float), atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_section_bracket_evaluates_each_fiber_map_n_plus_one_times(n):
    """One value and n Jacobian passes per section: the fiber map's value
    is read once, for both the covariant derivative and the fiber bracket."""
    b = LPBundleChart(box(n), 3, c=eps_structure())
    rng = np.random.default_rng(37)
    counts = [0, 0]

    def counted(Z, k):
        def wb(q):
            counts[k] += 1
            return Z.w.body(q)

        return Section(Z.X, SmoothMap(n, 3, wb, out_shape=(3,)))

    Z1 = counted(random_polynomial_section(b, rng), 0)
    Z2 = counted(random_polynomial_section(b, rng), 1)
    section_bracket(b, Z1, Z2, b.base.sample(rng))
    assert counts == [n + 1, n + 1]


@st.composite
def bracket_cases(draw):
    """A chart, three affine or quadratic sections and a point of the chart.

    The chart is the closed flat_bundle_particle chart (n = m = 2) or a
    constant so(3) fiber over R^1 or R^2 with a constant two-form; a
    nonzero two-form there breaks the curvature coupling, so the Jacobi
    sum need not vanish.
    """
    if draw(st.booleans()):
        b = flat_bundle_particle(omega_mode="closed").bundle
    else:
        n = draw(st.integers(1, 2))
        om = np.zeros((3, n, n))
        if n == 2:
            om[:, 0, 1] = draw(st.lists(st.floats(-1, 1), min_size=3, max_size=3))
            om[:, 1, 0] = -om[:, 0, 1]
        b = LPBundleChart(box(n), 3, c=eps_structure(), omega=om)
    n, m = b.n, b.m

    def array(*shape):
        size = int(np.prod(shape))
        return np.array(
            draw(st.lists(st.floats(-1, 1), min_size=size, max_size=size))
        ).reshape(shape)

    sections = []
    for _ in range(3):
        quadratic = draw(st.booleans())
        x0, cx, qx = array(n), array(n, n), array(n, n, n) * quadratic
        w0, cw, qw = array(m), array(m, n), array(m, n, n) * quadratic
        sections.append(polynomial_section(b, x0, cx, qx, w0, cw, qw))
    lo, hi = b.base.bounds[:, 0], b.base.bounds[:, 1]
    pad = 0.05 * (hi - lo)
    q = np.array([draw(st.floats(lo[i] + pad[i], hi[i] - pad[i])) for i in range(n)])
    return b, sections, q


@settings(max_examples=25, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(bracket_cases())
def test_bracket_is_antisymmetric_and_jacobi_residual_is_the_nested_sum(case):
    """section_bracket is antisymmetric, and jacobi_residual equals the norm
    of the cyclic sum of plainly nested brackets [A, [B, C]]."""
    b, (Z1, Z2, Z3), q = case
    b12, f12 = section_bracket(b, Z1, Z2, q)
    b21, f21 = section_bracket(b, Z2, Z1, q)
    skew = np.concatenate([b12 + b21, f12 + f21]).astype(float)
    assert np.max(np.abs(skew)) <= 1e-12

    total = np.zeros(b.n + b.m)
    for A, B_, C_ in ((Z1, Z2, Z3), (Z2, Z3, Z1), (Z3, Z1, Z2)):
        base, fiber = section_bracket(b, A, bracket_section(b, B_, C_), q)
        total += np.concatenate([base, fiber]).astype(float)
    assert abs(jacobi_residual(b, Z1, Z2, Z3, q) - np.linalg.norm(total)) <= 1e-12


def test_bracket_reduces_to_covariant_derivative():
    b = LPBundleChart(
        box(2), 2, Gamma=SmoothMap(2, 8, gamma_so2_shear, out_shape=(2, 2, 2))
    )
    wmap = SmoothMap(2, 2, lambda q: np.array([q[0] ** 2, q[0] * q[1]]))
    Z2 = Section(SmoothMap(2, 2, lambda q: np.zeros(2)), wmap)
    Z1 = Section.constant(b, [1.0, 0.0], [0.0, 0.0])
    q = np.array([0.4, 0.7])
    _, fiber = section_bracket(b, Z1, Z2, q)
    direct = covariant_derivative(b, np.array([1.0, 0.0]), Z2, q)
    assert np.allclose(fiber.astype(float), direct.astype(float), atol=1e-13)


def test_jacobi_residual_vanishes_on_consistent_bundle():
    # flat connection, trivial fiber bracket, constant closed two-form
    om = np.zeros((2, 2, 2))
    om[0, 0, 1], om[0, 1, 0] = 0.3, -0.3
    om[1, 0, 1], om[1, 1, 0] = -0.2, 0.2
    b = LPBundleChart(box(2, periodic=[True, True]), 2, omega=om)
    rng = np.random.default_rng(29)
    Z1 = random_polynomial_section(b, rng)
    Z2 = random_polynomial_section(b, rng)
    Z3 = random_polynomial_section(b, rng)
    for _ in range(3):
        q = b.base.sample(rng)
        assert jacobi_residual(b, Z1, Z2, Z3, q) <= 1e-8


def test_jacobi_residual_detects_nonclosed_form():
    b = LPBundleChart(
        box(3), 1, omega=SmoothMap(3, 9, omega_linear_third, out_shape=(1, 3, 3))
    )
    Z1 = Section.constant(b, [1.0, 0.0, 0.0], [0.0])
    Z2 = Section.constant(b, [0.0, 1.0, 0.0], [0.0])
    Z3 = Section.constant(b, [0.0, 0.0, 1.0], [0.0])
    # the residual is the cyclic derivative of omega, equal to 1 here
    r = jacobi_residual(b, Z1, Z2, Z3, np.array([0.2, 0.1, 0.4]))
    assert r > 0.5


def test_nested_bracket_section_evaluates():
    b = LPBundleChart(box(2), 3, c=eps_structure())
    rng = np.random.default_rng(31)
    Z1 = random_polynomial_section(b, rng)
    Z2 = random_polynomial_section(b, rng)
    nested = bracket_section(b, Z1, Z2)
    q = b.base.sample(rng)
    bb, ff = section_bracket(b, Z1, Z2, q)
    assert np.allclose(eval_map(nested.X, q).astype(float), bb.astype(float))
    assert np.allclose(eval_map(nested.w, q).astype(float), ff.astype(float))


# ---------------------------------------------------------------------------
# closure condition checker


def all_zero_bundle():
    return LPBundleChart(box(3), 2)


def torus_constant_form_bundle():
    om = np.zeros((2, 2, 2))
    om[0, 0, 1], om[0, 1, 0] = 0.3, -0.3
    om[1, 0, 1], om[1, 1, 0] = -0.2, 0.2
    return LPBundleChart(box(2, periodic=[True, True]), 2, omega=om)


def so3_fiber_bundle():
    return LPBundleChart(box(2), 3, c=eps_structure())


CONDITIONS = (
    "c_skew",
    "c_jacobi",
    "omega_skew",
    "d_two_form_closed",
    "e_bracket_parallel",
    "f_curvature_coupling",
)


@pytest.mark.parametrize(
    "make", [all_zero_bundle, torus_constant_form_bundle, so3_fiber_bundle]
)
def test_check_axioms_passes_on_consistent_bundles(make):
    report = check_axioms(make(), n_samples=50, seed=1)
    assert report.passed
    for name in CONDITIONS:
        assert report.condition(name).passed


def violator_c_skew():
    # symmetric entry: breaks antisymmetry but chains to nothing in Jacobi
    c0 = np.zeros((2, 2, 2))
    c0[0, 1, 1] = 1.0
    return LPBundleChart(box(2), 2, c=c0)


def violator_c_jacobi():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[0, 2, 1] = 1.0, -1.0
    c[1, 0, 1], c[1, 1, 0] = 1.0, -1.0
    return LPBundleChart(box(2), 3, c=c)


def violator_omega_skew():
    om = np.zeros((1, 2, 2))
    om[0, 0, 1] = om[0, 1, 0] = 1.0
    return LPBundleChart(box(2), 1, omega=om)


def violator_d():
    return LPBundleChart(
        box(3), 1, omega=SmoothMap(3, 9, omega_linear_third, out_shape=(1, 3, 3))
    )


def violator_e():
    def c_body(q):
        return eps_structure((1.0 + q[0], 1.0, 1.0))

    return LPBundleChart(box(3), 3, c=SmoothMap(3, 27, c_body, out_shape=(3, 3, 3)))


def violator_f():
    om = np.zeros((3, 3, 3))
    om[0, 0, 1], om[0, 1, 0] = 0.8, -0.8
    om[2, 1, 2], om[2, 2, 1] = -0.5, 0.5
    return LPBundleChart(box(3), 3, c=eps_structure(), omega=om)


@pytest.mark.parametrize(
    "make,broken",
    [
        (violator_c_skew, "c_skew"),
        (violator_c_jacobi, "c_jacobi"),
        (violator_omega_skew, "omega_skew"),
        (violator_d, "d_two_form_closed"),
        (violator_e, "e_bracket_parallel"),
        (violator_f, "f_curvature_coupling"),
    ],
)
def test_check_axioms_flags_exactly_one_condition(make, broken):
    report = check_axioms(make(), n_samples=40, seed=2)
    assert not report.passed
    for name in CONDITIONS:
        cond = report.condition(name)
        if name == broken:
            assert not cond.passed
            assert cond.max_residual > 1e-2
        else:
            assert cond.passed


def test_report_text_and_dict_round_trip():
    report = check_axioms(violator_d(), n_samples=10, seed=3)
    text = report.as_text()
    assert "d_two_form_closed" in text
    assert "FAIL" in text
    d = report.as_dict()
    assert d["passed"] is False
    names = [c["name"] for c in d["conditions"]]
    assert set(names) == set(CONDITIONS)
    import json

    assert json.loads(json.dumps(d)) == d


def test_check_axioms_deterministic_across_runs():
    r1 = check_axioms(torus_constant_form_bundle(), n_samples=25, seed=9)
    r2 = check_axioms(torus_constant_form_bundle(), n_samples=25, seed=9)
    assert r1.as_dict() == r2.as_dict()


def test_check_axioms_fails_on_a_nan_table_entry():
    # NaN compares false both ways, so a max fold that skips it would report
    # every residual as 0.0 and pass the bundle
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = np.nan
    base = ChartDomain(1)
    report = check_axioms(LPBundleChart(base, 2, c=c), n_samples=5, seed=0)
    assert not report.passed
    first = base.sample(np.random.default_rng(0))
    for name in ("c_skew", "c_jacobi", "e_bracket_parallel", "f_curvature_coupling"):
        cond = report.condition(name)
        assert not cond.passed
        assert np.isnan(cond.max_residual)
        assert np.array_equal(cond.worst_point, first)
    assert report.condition("omega_skew").passed
    assert report.condition("d_two_form_closed").passed


def _report_with_bad_samples(bad):
    """check_axioms at 12 samples of a c that is finite, with skew defect
    1 + q0^2, where q0 <= 0 and ``bad`` times that where q0 > 0; the report,
    the samples and the indices of the bad ones."""
    def c_body(q):
        c = np.zeros((2, 2, 2), dtype=object)
        finite = _dual.real_part(q[0]) <= 0
        c[0, 0, 1] = (1.0 if finite else bad) * (1.0 + q[0] * q[0])
        return c

    base = box(1)
    b = LPBundleChart(base, 2, c=SmoothMap(1, 8, c_body, out_shape=(2, 2, 2)))
    report = check_axioms(b, n_samples=12, seed=3)
    rng = np.random.default_rng(3)
    points = [base.sample(rng) for _ in range(12)]
    bad_at = [i for i, q in enumerate(points) if q[0] > 0]
    assert 0 < bad_at[0] < bad_at[-1]
    return report, points, bad_at


def test_check_axioms_reports_the_first_nan_sample_with_its_scale():
    # a running maximum would report a finite scale
    report, points, nan_at = _report_with_bad_samples(np.nan)
    for name in ("c_skew", "c_jacobi", "e_bracket_parallel", "f_curvature_coupling"):
        cond = report.condition(name)
        assert not cond.passed
        assert np.isnan(cond.max_residual) and np.isnan(cond.scale)
        assert np.array_equal(cond.worst_point, points[nan_at[0]])
    assert report.condition("omega_skew").passed


def test_check_axioms_reports_the_first_infinite_sample_with_its_scale():
    # the skew residual and its scale are +inf at the bad samples, never NaN;
    # the largest residual alone would pick the last of them
    report, points, inf_at = _report_with_bad_samples(np.inf)
    cond = report.condition("c_skew")
    assert not cond.passed
    assert np.isinf(cond.max_residual) and np.isinf(cond.scale)
    assert np.array_equal(cond.worst_point, points[inf_at[0]])


def test_check_axioms_worst_point_on_a_constant_chart_is_the_last_sample():
    # every sample gives the same residuals, and ties go to the later sample
    b = violator_f()
    report = check_axioms(b, n_samples=6, seed=4)
    rng = np.random.default_rng(4)
    last = [b.base.sample(rng) for _ in range(6)][-1]
    assert not report.condition("f_curvature_coupling").passed
    for name in CONDITIONS:
        assert np.array_equal(report.condition(name).worst_point, last)


def test_check_axioms_rejects_empty_sampling():
    with pytest.raises(ValueError):
        check_axioms(all_zero_bundle(), n_samples=0)
