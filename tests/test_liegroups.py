"""Tests for the matrix group catalog.

Exponentials are pinned against high-precision series references (mpmath)
and against scipy-free matrix-power series computed in the test itself;
derivative flow through exp is compared to central differences.
"""

import dataclasses
import functools
import operator

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lpmech import _dual
from lpmech.errors import DimensionMismatch
from lpmech.liegroups import (
    Ad,
    MatrixLieGroup,
    _sparse_sum,
    abelian,
    heisenberg3,
    restrict,
    so3,
    structure_constants,
)


def series_expm(M, terms=30):
    """Plain truncated exponential series; independent reference route."""
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, terms):
        term = term @ M / k
        out = out + term
    return out


# ---------------------------------------------------------------------------
# rotation group


def test_so3_exp_matches_series_reference():
    G = so3()
    rng = np.random.default_rng(2)
    for _ in range(20):
        xi = rng.standard_normal(3)
        R = G.exp(xi)
        ref = series_expm(G.hat(xi), terms=40)
        assert np.allclose(R, ref, atol=1e-13)
        assert G.is_element(R)


def test_so3_exp_high_precision_value():
    # rotation about a skew axis, reference entries from 50-digit arithmetic
    mpmath.mp.dps = 50
    xi = np.array([0.3, -0.4, 0.12])
    th = mpmath.sqrt(mpmath.mpf("0.3") ** 2 + mpmath.mpf("-0.4") ** 2 + mpmath.mpf("0.12") ** 2)
    A = mpmath.sin(th) / th
    B = (1 - mpmath.cos(th)) / th**2
    K = np.array(
        [[0, -0.12, -0.4], [0.12, 0, -0.3], [0.4, 0.3, 0]], dtype=object
    )
    Kf = K.astype(float)
    ref = np.eye(3) + float(A) * Kf + float(B) * (Kf @ Kf)
    R = so3().exp(xi)
    assert np.max(np.abs(R - ref)) < 1e-15


def test_so3_exp_small_angle_series_branch():
    G = so3()
    xi = np.array([1e-6, -2e-6, 0.5e-6])
    R = G.exp(xi)
    ref = series_expm(G.hat(xi), terms=6)
    assert np.allclose(R, ref, atol=1e-18, rtol=0.0)
    # derivative through the series branch agrees with finite differences
    lev = _dual.fresh_level()
    dxi = np.array(
        [_dual.Dual(1e-6, 1.0, lev), _dual.Dual(-2e-6, 0.0, lev), _dual.Dual(0.5e-6, 0.0, lev)],
        dtype=object,
    )
    Rd = G.exp(dxi)
    h = 1e-7
    Rp = G.exp(xi + [h, 0, 0])
    Rm = G.exp(xi - [h, 0, 0])
    fd = (Rp - Rm) / (2 * h)
    got = np.array([[_dual.tangent_part(Rd[i, j], lev) for j in range(3)] for i in range(3)])
    assert np.allclose(got, fd, atol=1e-6)


def test_so3_dual_exp_derivative_matches_fd():
    G = so3()
    xi = np.array([0.4, 0.7, -0.3])
    lev = _dual.fresh_level()
    for j in range(3):
        seed = np.array(
            [_dual.Dual(xi[i], 1.0 if i == j else 0.0, lev) for i in range(3)],
            dtype=object,
        )
        Rd = G.exp(seed)
        h = 1e-6
        e = np.zeros(3)
        e[j] = h
        fd = (G.exp(xi + e) - G.exp(xi - e)) / (2 * h)
        got = np.array(
            [[_dual.tangent_part(Rd[i, k], lev) for k in range(3)] for i in range(3)]
        )
        assert np.allclose(got, fd, atol=1e-9)


def test_so3_structure_constants_are_cross_product():
    G = so3()
    c = structure_constants(G)
    eps = np.zeros((3, 3, 3))
    for a, b, g in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[g, a, b] = 1.0
        eps[g, b, a] = -1.0
    assert np.allclose(c, eps, atol=1e-12)


def test_so3_is_element_rejects_reflections_and_junk():
    G = so3()
    assert not G.is_element(np.diag([1.0, 1.0, -1.0]))
    assert not G.is_element(np.eye(3) * 1.1)
    assert G.is_element(np.eye(3))


def test_hat_unhat_round_trip_and_dual_preservation():
    G = so3()
    v = np.array([0.2, -0.7, 1.1])
    assert np.allclose(G.unhat(G.hat(v)), v, atol=1e-13)
    lev = _dual.fresh_level()
    vd = np.array([_dual.Dual(0.2, 1.0, lev), -0.7, 1.1], dtype=object)
    back = G.unhat(G.hat(vd))
    assert _dual.tangent_part(back[0], lev) == pytest.approx(1.0)
    assert _dual.real_part(back[1]) == pytest.approx(-0.7)


def test_hat_rejects_wrong_length():
    with pytest.raises(DimensionMismatch):
        so3().hat(np.array([1.0, 2.0]))


def test_closure_failure_raises():
    # [E01, E10] = diag(1, -1) leaves the span of {E01, E10}
    bad = MatrixLieGroup(
        "bad",
        2,
        np.array([[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]),
        lambda xi: np.eye(2),
    )
    with pytest.raises(ValueError):
        structure_constants(bad)


# ---------------------------------------------------------------------------
# Heisenberg family


def test_heisenberg_multiplication_law():
    G = heisenberg3(1.0)
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = rng.standard_normal(3)
        b = rng.standard_normal(3)
        # the composition in exp coordinates (BCH with a single correction)
        expect = a + b + 0.5 * np.array([0.0, 0.0, a[0] * b[1] - a[1] * b[0]])
        assert np.allclose(G.exp(a) @ G.exp(b), G.exp(expect), atol=1e-12)


def test_heisenberg_exp_matches_series():
    G = heisenberg3(0.7)
    rng = np.random.default_rng(9)
    for _ in range(10):
        xi = rng.standard_normal(3)
        assert np.allclose(G.exp(xi), series_expm(G.hat(xi)), atol=1e-12)
        assert G.is_element(G.exp(xi))


def test_heisenberg_structure_constants_scale_with_coupling():
    for s in (1.0, 0.25, 0.0):
        c = structure_constants(heisenberg3(s))
        expect = np.zeros((3, 3, 3))
        expect[2, 0, 1] = s
        expect[2, 1, 0] = -s
        assert np.allclose(c, expect, atol=1e-12)


def test_heisenberg_zero_coupling_is_faithful_abelian():
    G = heisenberg3(0.0)
    a, b = np.array([0.7, -0.4, 0.9]), np.array([-0.2, 0.5, 0.3])
    assert np.allclose(G.exp(a) @ G.exp(b), G.exp(a + b), atol=1e-14)
    # the spare slot keeps e_x visible when the coupling slot is zero
    for e in np.eye(3):
        assert not np.allclose(G.exp(e), np.eye(4))
    c = structure_constants(G)
    assert np.max(np.abs(c)) == 0.0


def test_heisenberg_log_exp_round_trip_and_check():
    G = heisenberg3(1.3)
    rng = np.random.default_rng(10)
    for _ in range(10):
        xi = rng.standard_normal(3)
        # g - 1 is nilpotent of order 3, so its log series stops after two terms
        N = G.exp(xi) - np.eye(4)
        assert np.allclose(G.unhat(N - N @ N / 2.0), xi, atol=1e-12)
    assert not G.is_element(np.eye(4) + np.diag([0.1, 0, 0, 0]))


# ---------------------------------------------------------------------------
# translations


def test_abelian_group_behaves_additively():
    G = abelian(4)
    rng = np.random.default_rng(11)
    a, b = rng.standard_normal(4), rng.standard_normal(4)
    assert np.allclose(G.exp(a) @ G.exp(b), G.exp(a + b), atol=1e-13)
    assert np.max(np.abs(structure_constants(G))) == 0.0
    assert G.is_element(G.exp(a))
    assert not G.is_element(np.ones((5, 5)))


def test_abelian_exp_with_duals():
    G = abelian(2)
    lev = _dual.fresh_level()
    xi = np.array([_dual.Dual(0.3, 1.0, lev), 0.5], dtype=object)
    g = G.exp(xi)
    assert _dual.tangent_part(g[0, 2], lev) == pytest.approx(1.0)
    assert _dual.real_part(g[1, 2]) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# properties of hat, unhat and exp over the whole catalog

_coeff = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)

_groups = st.one_of(
    st.just(so3()),
    _coeff.map(heisenberg3),
    st.integers(1, 4).map(abelian),
)


@st.composite
def group_with_vectors(draw):
    """A catalog group, two coefficient vectors and a seed for extra data."""
    G = draw(_groups)
    vec = st.lists(_coeff, min_size=G.dim, max_size=G.dim).map(np.array)
    return G, draw(vec), draw(vec), draw(st.integers(0, 2**32 - 1))


def _seeded(values, tangents, lev):
    """Dual array of the same shape with the given values and tangents."""
    flat = [_dual.Dual(v, t, lev) for v, t in zip(values.ravel(), tangents.ravel())]
    return np.array(flat, dtype=object).reshape(values.shape)


def _parts(arr, lev):
    """Real and tangent parts of a dual array, as float arrays."""
    re = np.array([_dual.real_part(e) for e in arr.ravel()]).reshape(arr.shape)
    tan = np.array([_dual.tangent_part(e, lev) for e in arr.ravel()], dtype=float)
    return re, tan.reshape(arr.shape)


@given(group_with_vectors())
def test_unhat_inverts_hat(case):
    G, xi, _, _ = case
    assert np.allclose(G.unhat(G.hat(xi)), xi, rtol=0.0, atol=1e-12)


@given(group_with_vectors())
def test_hat_and_unhat_carry_dual_parts_linearly(case):
    """On dual input, hat and unhat act on the values and on the tangents
    as the float maps do, since both maps are linear."""
    G, xi, dxi, seed = case
    lev = _dual.fresh_level()
    re, tan = _parts(G.hat(_seeded(xi, dxi, lev)), lev)
    assert np.allclose(re, G.hat(xi), rtol=0.0, atol=1e-14)
    assert np.allclose(tan, G.hat(dxi), rtol=0.0, atol=1e-14)

    rng = np.random.default_rng(seed)
    M, dM = rng.standard_normal((2, G.mat_dim, G.mat_dim))
    re, tan = _parts(G.unhat(_seeded(M, dM, lev)), lev)
    assert np.allclose(re, G.unhat(M), rtol=0.0, atol=1e-13)
    assert np.allclose(tan, G.unhat(dM), rtol=0.0, atol=1e-13)


@given(group_with_vectors())
def test_exp_tangent_matches_central_difference(case):
    G, xi, dxi, _ = case
    val, tan = _dual.directional(G.exp, xi, dxi)
    h = 1e-6
    fd = (G.exp(xi + h * dxi) - G.exp(xi - h * dxi)) / (2 * h)
    assert np.allclose(np.asarray(val, dtype=float), G.exp(xi), rtol=0.0, atol=1e-14)
    assert np.allclose(np.asarray(tan, dtype=float), fd, rtol=0.0, atol=1e-7)


@given(group_with_vectors())
def test_Ad_is_an_automorphism_and_a_homomorphism(case):
    """Ad_g preserves the bracket, Ad_g Ad_h = Ad_gh, and on a dual g, as
    stages_reduce passes, Ad's tangent matches central differences; at the
    identity that tangent is ad_eta, with entries c[g, a, b] eta[a]."""
    G, xi, eta, _ = case
    c = structure_constants(G)

    def Ad_exp(x):
        return Ad(G, G.exp(x), G.exp(-x), range(G.dim))

    Ag, Ah = Ad_exp(xi), Ad_exp(eta)
    # Ad_g [e_a, e_b] = [Ad_g e_a, Ad_g e_b]
    lhs = np.einsum("pg,gab->pab", Ag, c)
    assert np.allclose(lhs, np.einsum("pqr,qa,rb->pab", c, Ag, Ag), rtol=0.0, atol=1e-10)
    gh = G.exp(xi) @ G.exp(eta)
    assert np.allclose(Ag @ Ah, Ad(G, gh, G.exp(-eta) @ G.exp(-xi), range(G.dim)), rtol=0.0, atol=1e-10)

    _, tan = _dual.directional(Ad_exp, xi, eta)
    h = 1e-6
    fd = (Ad_exp(xi + h * eta) - Ad_exp(xi - h * eta)) / (2 * h)
    assert np.allclose(np.asarray(tan, dtype=float), fd, rtol=0.0, atol=1e-6)
    _, tan = _dual.directional(Ad_exp, np.zeros(G.dim), eta)
    ad_eta = np.einsum("gab,a->gb", c, eta)
    assert np.allclose(np.asarray(tan, dtype=float), ad_eta, rtol=0.0, atol=1e-12)


@given(group_with_vectors())
def test_inverse_inverts_exp_and_carries_dual_parts(case):
    """inverse(exp(x)) exp(x) is the identity; on so3 inverse(exp(x)) is
    exp(-x) bit for bit (the transpose of the skew series); on a dual x the
    inverse's tangent matches central differences."""
    G, xi, dxi, _ = case

    def inv_exp(x):
        return np.asarray(G.inverse(G.exp(x)), dtype=float)

    eye = inv_exp(xi) @ G.exp(xi)
    assert np.allclose(eye, np.eye(G.mat_dim), rtol=0.0, atol=1e-12)
    if G.name == "so3":
        assert inv_exp(xi).tobytes() == G.exp(-xi).tobytes()
    _, tan = _dual.directional(lambda x: G.inverse(G.exp(x)), xi, dxi)
    h = 1e-6
    fd = (inv_exp(xi + h * dxi) - inv_exp(xi - h * dxi)) / (2 * h)
    assert np.allclose(np.asarray(tan, dtype=float), fd, rtol=0.0, atol=1e-7)


@given(st.lists(_coeff, min_size=3, max_size=3).map(np.array))
def test_Ad_is_rotation_action_for_so3(xi):
    R = so3().exp(xi)
    assert np.allclose(Ad(so3(), R, R.T, range(3)), R, rtol=0.0, atol=1e-12)


def _omitted_sums(x, coeffs, product):
    """Per row of ``coeffs``: the products with an exact-zero coefficient,
    summed in column order, or None when the row has none.  These are the
    terms the sparse dual sums of hat and unhat leave out."""
    out = []
    for row in coeffs.tolist():
        terms = [product(x[j], v) for j, v in enumerate(row) if v == 0]
        out.append(functools.reduce(operator.add, terms) if terms else None)
    return out


def _assert_sparse_matches_dense(sparse, dense, coeffs, x, product, lev):
    """Entries fed by a nonzero coefficient equal the dense sum in value and
    tangent; with the omitted zero products added back they equal it bit for
    bit, sign of zero included.  Every other entry is the float 0.0."""
    fed = np.any(coeffs != 0, axis=1)
    omitted = _omitted_sums(x, coeffs, product)
    restored = np.array(
        [s if z is None else s + z for s, z in zip(sparse, omitted)], dtype=object
    )
    for got in (sparse, restored):
        for a, b in zip(_parts(got[fed], lev), _parts(dense[fed], lev)):
            assert np.array_equal(a, b)
    for a, b in zip(_parts(restored[fed], lev), _parts(dense[fed], lev)):
        assert np.array_equal(np.signbit(a), np.signbit(b))
    for e in sparse[~fed]:
        assert type(e) is float and e == 0.0 and not np.signbit(e)


@given(group_with_vectors())
def test_sparse_dual_hat_and_unhat_are_the_dense_sums(case):
    """On dual input, hat and unhat sum only over the exact nonzero pattern
    of the basis and of its pseudo-inverse, in the order of numpy's dense
    object product."""
    G, xi, dxi, seed = case
    lev = _dual.fresh_level()
    flat_basis = G.basis.reshape(G.dim, -1).T
    x = _seeded(xi, dxi, lev)
    H = G.hat(x)
    assert H.shape == (G.mat_dim, G.mat_dim)
    _assert_sparse_matches_dense(
        H.ravel(), np.tensordot(x, G.basis, axes=1).ravel(), flat_basis, x,
        lambda a, v: a * v, lev,
    )

    rng = np.random.default_rng(seed)
    M, dM = rng.standard_normal((2, G.mat_dim, G.mat_dim))
    # a dense dual matrix, and hat's output with its float zeros
    for Md in (_seeded(M, dM, lev), H):
        flat = Md.ravel()
        _assert_sparse_matches_dense(
            G.unhat(Md), G._pinv @ flat, G._pinv, flat, lambda a, v: v * a, lev
        )


def test_sparse_pattern_is_exact_and_identity_inverse_stays_float():
    # so(3)'s pseudo-inverse has two entries of about 6.3e-17; a tolerance
    # would drop them and change the sums in the last bits
    G = so3()
    tiny = G._pinv[(G._pinv != 0) & (np.abs(G._pinv) < 1e-16)]
    assert tiny.size == 2
    kept = [v for row in G._unhat_terms for _, v in row]
    assert sorted(kept, key=abs)[:2] == sorted(tiny.tolist(), key=abs)
    assert len(kept) == np.count_nonzero(G._pinv)

    # the float identity that reduce_lagrangian passes as g, and the object
    # one of the staged Lagrangian, are passed over, and no inverse is
    # formed: M comes back as is
    for G in (so3(), heisenberg3()):
        G, n = dataclasses.replace(G, inverse_body=None), G.mat_dim
        M = np.arange(n * n, dtype=float).reshape(n, n).astype(object)
        for eye in (np.eye(n), np.eye(n, dtype=object)):
            assert G.inverse_times(eye, M) is M


def _old_sparse_sum(terms, xs):
    """_sparse_sum as it read when every term formed xs[j] * v."""
    out = np.empty(len(terms), dtype=object)
    for o, row in enumerate(terms):
        prods = [xs[j] * v for j, v in row]
        out[o] = functools.reduce(operator.add, prods) if prods else 0.0
    return out


def _bits(v):
    """Type, level and the uint64 view of every float in v, zero signs
    included, for floats, ints, duals, jets and arrays of them."""
    if isinstance(v, _dual.Dual):
        return ("dual", v.level, _bits(v.re), _bits(v.im))
    if isinstance(v, _dual._Jet):
        return ("jet", _bits(v.re), _bits(v.g), None if v.h is None else _bits(v.h))
    if isinstance(v, np.ndarray):
        if v.dtype == object:
            return ("array", v.shape, [_bits(e) for e in v.ravel()])
        return ("floats", v.shape, v.view(np.uint64).tolist())
    return (type(v).__name__, np.array(v, dtype=float).view(np.uint64).item())


def test_sparse_sum_keeps_the_bits_of_the_product_rule():
    """A 1.0 coefficient takes the entry as it is, any other forms the
    product: on floats, ints, and scalar- and array-tangent duals and jets
    over floats, with -0.0 and inf values, each sum equals the old rule's,
    type included."""
    lev = _dual.fresh_level()
    g, h = np.array([-0.0, np.inf]), np.array([[2.0, -0.0], [0.0, -1.0]])
    kinds = [
        [-0.0, 0.0, np.inf, -np.inf, 2.5, 0, 3],
        [_dual.Dual(-0.0, -0.0, lev), _dual.Dual(np.inf, 1.5, lev), _dual.Dual(-2.0, 0.0, lev)],
        [_dual.Dual(-0.0, g, lev), _dual.Dual(1.5, -g, lev)],
        [_dual._Jet(-0.0, g), _dual._Jet(np.inf, h[0], h)],
    ]
    coeffs = (1.0, -1.0, 0.5, -0.0, 6.3e-17)
    for xs in kinds:
        cols = range(len(xs))
        terms = [[(j, v)] for j in cols for v in coeffs]
        terms += [[(j, v), (k, w)] for j in cols for k in cols for v in coeffs for w in coeffs]
        with np.errstate(invalid="ignore"):
            got, want = _sparse_sum(terms, xs), _old_sparse_sum(terms, xs)
        for row, a, b in zip(terms, got, want):
            assert _bits(a) == _bits(b), row


# ---------------------------------------------------------------------------
# unhat of a product, formed only where the coordinates read it


def _tree(v):
    """Level, shape and the bytes of every float in v, zero signs included."""
    if isinstance(v, _dual.Dual):
        return ("dual", v.level, _tree(v.re), _tree(v.im))
    if isinstance(v, np.ndarray):
        return ("array", v.dtype.kind, v.shape, [_tree(e) for e in v.ravel()])
    return (type(v).__name__, np.float64(v).tobytes())


def _matrix_kinds(rng, n):
    """(a, b) pairs of n x n matrices with signed zeros: float, a dual times
    a float, dual times dual, and duals nested two levels deep."""
    a, b, da, db = rng.standard_normal((4, n, n))
    for M in (a, b):
        M[rng.random((n, n)) < 0.25] = 0.0
        M[rng.random((n, n)) < 0.15] = -0.0
    lev, inner, outer = (_dual.fresh_level() for _ in range(3))
    nested = _seeded(_seeded(a, da, inner), db, outer)
    return [
        (a, b),
        (_seeded(a, da, lev), b),
        (a.astype(object), _seeded(b, db, lev)),
        (_seeded(a, da, lev), _seeded(b, db, lev)),
        (nested, _seeded(b, da, inner)),
    ]


@pytest.mark.parametrize(
    "G, idx",
    [
        (heisenberg3(1.0), (2,)),
        (heisenberg3(0.7), (0, 2)),
        (heisenberg3(1.3), (1, 2)),
        (so3(), (0,)),
        (so3(), (0, 2)),
        (so3(), (0, 1, 2)),
    ],
)
@pytest.mark.parametrize("seed", range(4))
def test_unhat_product_equals_unhat_of_the_whole_product(G, idx, seed):
    """unhat_product(a, b, idx) forms only the product entries that the
    coordinates idx read, and gives G.unhat(a @ b)[idx] bit for bit."""
    for a, b in _matrix_kinds(np.random.default_rng(seed), G.mat_dim):
        assert _tree(G.unhat_product(a, b, idx)) == _tree(G.unhat(a @ b)[list(idx)])


def test_unhat_product_of_the_heisenberg_center_is_one_dot_product(monkeypatch):
    """The z coordinate of heisenberg3 reads one entry of the product: 4
    dual products, not the 64 of a @ b.  Its pseudo-inverse coefficient is
    exactly 1.0, so the entry is taken as it is, with no scaling product."""
    G = heisenberg3(1.0)
    rng = np.random.default_rng(0)
    lev = _dual.fresh_level()
    a, b = (_seeded(*rng.standard_normal((2, 4, 4)), lev) for _ in range(2))
    calls = []
    mul = _dual.Dual.__mul__
    monkeypatch.setattr(_dual.Dual, "__mul__", lambda s, o: calls.append(1) or mul(s, o))
    G.unhat_product(a, b, (2,))
    assert len(calls) == 4


# ---------------------------------------------------------------------------
# the Ad block, formed only where its coordinates read it


def _Ad_columns(group, g, ginv, cols):
    """The full-height columns ``cols`` of the adjoint matrix, as Ad formed
    them before it returned an index block."""
    return np.array([group.unhat(g @ group.basis[q] @ ginv) for q in cols]).T


def _group_elements(G, rng):
    """(g, g^-1) pairs from exp: at float, dual and nested-dual coefficients."""
    xi, dxi, ddxi = rng.standard_normal((3, G.dim))
    inner, outer = _dual.fresh_level(), _dual.fresh_level()
    for x in (xi, _seeded(xi, dxi, inner), _seeded(_seeded(xi, dxi, inner), ddxi, outer)):
        g = G.exp(x)
        yield g, G.inverse(g)


@pytest.mark.parametrize(
    "G, idx",
    [
        (heisenberg3(1.0), (2,)),
        (heisenberg3(0.7), (0, 2)),
        (heisenberg3(1.3), (1, 2)),
        (so3(), range(3)),
    ],
)
@pytest.mark.parametrize("seed", range(3))
def test_Ad_block_is_the_slice_of_the_full_columns(G, idx, seed):
    """Ad(G, g, ginv, idx) is the (idx, idx) block of the old full-height
    columns bit for bit, on group elements and on generic matrix pairs."""
    rng = np.random.default_rng(seed)
    pairs = [*_group_elements(G, rng), *_matrix_kinds(rng, G.mat_dim)]
    for g, ginv in pairs:
        want = _Ad_columns(G, g, ginv, idx)[list(idx)]
        assert _tree(Ad(G, g, ginv, idx)) == _tree(want)


# ---------------------------------------------------------------------------
# the exponential on a span of basis vectors

_RESTRICT_CASES = [(heisenberg3, (2,)), (heisenberg3, (0, 2)), (heisenberg3, (1, 2)), (so3, (0,))]


@pytest.mark.parametrize("make, idx", _RESTRICT_CASES)
def test_restrict_is_the_group_on_the_embedded_coordinates(make, idx):
    """exp, hat and unhat of restrict(G, idx) are G's at the coordinates with
    0.0 in the other slots, bit for bit on float and dual input (unhat on
    the span; off it, the two pseudo-inverses may differ in the last bit).
    On dual input hat forms no product outside basis[idx]'s pattern, so
    there it gives 0.0 where G's hat adds 0.0 * -1.0 (so3).  The structure
    constants are the (idx, idx, idx) block of G's."""
    G = make()
    H, k, rows = restrict(G, idx), G.dim, list(idx)
    assert H.dim == len(idx) and np.array_equal(H.basis, G.basis[rows])
    pattern = (H.basis != 0).any(axis=0)
    rng = np.random.default_rng(len(idx))
    lev = _dual.fresh_level()
    for _ in range(3):
        xi, dxi = rng.standard_normal((2, len(idx)))
        for x in (xi, _seeded(xi, dxi, lev)):
            e = np.array([0.0] * k, dtype=x.dtype)
            e[rows] = x
            want = G.exp(e)
            assert _bits(np.asarray(H.exp(x), dtype=want.dtype)) == _bits(want)
            got, want = H.hat(x), G.hat(e)
            assert _bits(got[pattern]) == _bits(want[pattern])
            assert not np.asarray(want[~pattern], dtype=float).any()
            assert _bits(got[~pattern]) == _bits(np.array([0.0] * (~pattern).sum(), x.dtype))
            assert _bits(H.unhat(want)) == _bits(G.unhat(want)[rows])
    c = structure_constants(G)
    assert np.array_equal(structure_constants(H), c[np.ix_(rows, rows, rows)])


def test_restrict_to_a_span_that_is_no_subalgebra_has_no_structure_constants():
    """[e_x, e_y] = e_z leaves the span of (0, 1); its exp is still G's."""
    H = restrict(heisenberg3(), (0, 1))
    with pytest.raises(ValueError, match="leaves the span"):
        structure_constants(H)
    xi = np.array([0.3, -0.7])
    assert np.array_equal(np.asarray(H.exp(xi), float), heisenberg3().exp(np.array([0.3, -0.7, 0.0])))
