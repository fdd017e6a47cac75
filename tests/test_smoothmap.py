import fractions

import mpmath
import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from lpmech import _dual
from lpmech.cli import polynomial_map
from lpmech._dual import Dual, fresh_level
from lpmech.errors import DimensionMismatch
from lpmech.smoothmap import SmoothMap, _ConstantBody, as_map, constant_map, eval_map, fd_jacobian, jacobian


def test_eval_identity():
    m = SmoothMap(3, 3, lambda x: x)
    assert np.array_equal(eval_map(m, np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])


def test_eval_square_at_zero():
    m = SmoothMap(1, 1, lambda x: x[0] ** 2)
    assert eval_map(m, np.array([0.0]))[0] == 0.0


def test_eval_sin_against_series_oracle():
    # independent high-precision series evaluation
    mpmath.mp.dps = 50
    expected = float(mpmath.sin(mpmath.pi / 6))
    m = SmoothMap(1, 1, lambda x: _dual.sin(x[0]))
    got = eval_map(m, np.array([np.pi / 6]))[0]
    assert abs(got - expected) < 1e-15
    dgot = jacobian(m, np.array([np.pi / 6]))[0, 0]
    assert abs(dgot - float(mpmath.cos(mpmath.pi / 6))) < 1e-15


def test_eval_dimension_mismatch():
    m = SmoothMap(2, 1, lambda x: x[0])
    with pytest.raises(DimensionMismatch):
        eval_map(m, np.array([1.0, 2.0, 3.0]))


def test_as_map_passes_maps_and_makes_tables_constant():
    """A map of the shape passes through as it is; a table of that size, flat
    or not, and None become constant maps of float read-only tables; any
    other size, shape or input dimension names the table."""
    m = SmoothMap(2, 6, lambda x: np.zeros((2, 3)), out_shape=(2, 3))
    assert as_map(m, 2, (2, 3), "T") is m
    for val, want in ((np.arange(6), np.arange(6.0).reshape(2, 3)), (None, np.zeros((2, 3)))):
        got = as_map(val, 2, (2, 3), "T")
        assert isinstance(got.body, _ConstantBody) and got.name == "T"
        table = eval_map(got, np.zeros(2))
        assert table.dtype == float and not table.flags.writeable
        assert np.array_equal(table, want)
    with pytest.raises(DimensionMismatch, match="^T must be a table of shape \\(2, 3\\), got 5"):
        as_map(np.zeros(5), 2, (2, 3), "T")
    for bad in (SmoothMap(3, 6, m.body, out_shape=(2, 3)), SmoothMap(2, 6, m.body, out_shape=(3, 2))):
        with pytest.raises(DimensionMismatch, match="^T must map R\\^2 to shape \\(2, 3\\), got"):
            as_map(bad, 2, (2, 3), "T")


def test_real_eval_equals_zero_seed_dual_eval():
    m = SmoothMap(2, 2, lambda x: np.array([x[0] * x[1], _dual.exp(x[0])]))
    x = np.array([0.3, -1.2])
    plain = eval_map(m, x)
    lev = fresh_level()
    seeded = np.array([Dual(x[0], 0.0, lev), Dual(x[1], 0.0, lev)], dtype=object)
    dualed = m.body(seeded)
    assert _dual.real_part(dualed[0]) == plain[0]
    assert _dual.real_part(dualed[1]) == plain[1]


def test_jacobian_linear_map_is_matrix():
    A = np.array([[1.0, 2.0, 0.5], [-1.0, 0.0, 3.0]])
    m = SmoothMap(3, 2, lambda x: np.dot(A, x))
    for x in (np.zeros(3), np.array([4.0, -2.0, 7.0])):
        assert np.allclose(jacobian(m, x), A)
        # linear maps are finite-difference exact
        assert np.allclose(fd_jacobian(m, x, 1e-3), A, atol=1e-9)


def test_jacobian_constant_map_is_zero():
    m = SmoothMap(2, 2, lambda x: np.array([5.0, -1.0]) + 0.0 * x)
    assert np.allclose(jacobian(m, np.array([1.0, 2.0])), 0.0)
    assert np.allclose(fd_jacobian(m, np.array([1.0, 2.0])), 0.0)


def test_jacobian_matches_fd_on_product_map():
    m = SmoothMap(2, 2, lambda x: np.array([x[0] * x[1], x[0] ** 2]))
    x = np.array([2.0, 3.0])
    J = jacobian(m, x)
    assert np.allclose(J, [[3.0, 2.0], [4.0, 0.0]])
    assert np.max(np.abs(J - fd_jacobian(m, x, 1e-5))) < 1e-8


def test_fd_quadratic_hand_value():
    m = SmoothMap(1, 1, lambda x: x[0] ** 2)
    est = fd_jacobian(m, np.array([1.0]), 1e-4)[0, 0]
    assert abs(est - 2.0) < 1e-7


def test_fd_rejects_bad_step():
    m = SmoothMap(1, 1, lambda x: x[0])
    with pytest.raises(ValueError):
        fd_jacobian(m, np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        fd_jacobian(m, np.array([1.0]), -1e-5)


def _random_composition(rng, n_in, n_out):
    """A smooth polynomial/trig composition with random coefficients."""
    A = rng.normal(size=(n_out, n_in))
    B = rng.normal(size=(n_out, n_in))
    c = rng.normal(size=n_out)
    p = rng.integers(1, 4, size=n_out)

    def body(x):
        lin = [sum(A[i, j] * x[j] for j in range(n_in)) for i in range(n_out)]
        aux = [sum(B[i, j] * x[j] for j in range(n_in)) for i in range(n_out)]
        return np.array(
            [
                _dual.sin(lin[i]) * _dual.cos(aux[i]) + c[i] * lin[i] ** int(p[i])
                for i in range(n_out)
            ],
            dtype=object,
        )

    return SmoothMap(n_in, n_out, body)


def test_jacobian_vs_fd_on_200_random_maps():
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        n_in = int(rng.integers(1, 4))
        n_out = int(rng.integers(1, 4))
        m = _random_composition(rng, n_in, n_out)
        x = rng.uniform(-1.5, 1.5, size=n_in)
        J = jacobian(m, x)
        Jfd = fd_jacobian(m, x, 1e-5)
        scale = 1.0 + np.max(np.abs(J))
        assert np.max(np.abs(J - Jfd)) <= 1e-6 * scale


@st.composite
def polynomial_tables(draw):
    """A cli.polynomial_map table of degree <= 2 in n <= 2 variables with at
    most 4 outputs, and a point in [-2, 2]^n."""
    n = draw(st.integers(0, 2))
    shape = draw(st.sampled_from([[], [1], [3], [4], [2, 2]]))
    monomials = [p for p in np.ndindex(*[3] * n) if sum(p) <= 2]
    term = st.fixed_dictionaries(
        {
            "powers": st.sampled_from(monomials).map(list),
            "coeff": st.floats(-2.0, 2.0),
            "index": st.tuples(*[st.integers(0, e - 1) for e in shape]).map(list),
        }
    )
    terms = draw(st.lists(term, max_size=6))
    x = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    return polynomial_map(n, shape, terms, "table"), x


# no shrink phase: a failing table is reported as drawn
@settings(max_examples=60, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(polynomial_tables())
def test_jacobian_matches_fd_on_generated_polynomial_tables(case):
    """On a table of degree <= 2 the central difference is exact up to
    rounding, so the AD Jacobian must match it to rounding."""
    m, x = case
    J = jacobian(m, x)
    assert J.dtype == float and J.shape == (m.out_dim, m.in_dim)
    assert np.max(np.abs(J - fd_jacobian(m, x)), initial=0.0) <= 1e-8


def test_leibniz_rule_bitwise_on_rationals():
    # with dyadic rationals every product rule term is exact in binary
    lev = fresh_level()
    vals = [fractions.Fraction(3, 8), fractions.Fraction(-7, 4), fractions.Fraction(5, 2)]
    ders = [fractions.Fraction(1, 2), fractions.Fraction(9, 8), fractions.Fraction(-3, 16)]
    for a, da in zip(vals, ders):
        for b, db in zip(vals[::-1], ders[::-1]):
            x = Dual(float(a), float(da), lev)
            y = Dual(float(b), float(db), lev)
            z = x * y
            assert z.re == float(a * b)
            assert z.im == float(a * db + da * b)


def test_division_and_power_rules():
    lev = fresh_level()
    x = Dual(2.0, 1.0, lev)
    y = Dual(4.0, 3.0, lev)
    q = x / y
    assert abs(q.re - 0.5) < 1e-16
    assert abs(q.im - (1.0 * 4.0 - 2.0 * 3.0) / 16.0) < 1e-16
    p = x**3
    assert p.re == 8.0 and p.im == 12.0
    r = 1.0 / x
    assert r.re == 0.5 and r.im == -0.25


def test_second_derivative_by_nesting():
    # d2/dx2 x^3 = 6x, via jacobian of a jacobian-valued closure
    cube = SmoothMap(1, 1, lambda x: x[0] ** 3)
    outer = SmoothMap(1, 1, lambda x: jacobian(cube, x)[0, 0])
    assert abs(jacobian(outer, np.array([1.5]))[0, 0] - 9.0) < 1e-13


def test_nested_levels_avoid_perturbation_confusion():
    # g(x) = x * (d/dy x*y at y=1) = x^2, so g'(x) must be 2x, not x
    def g_body(x):
        inner = SmoothMap(1, 1, lambda y: x[0] * y[0])
        return x[0] * jacobian(inner, np.array([1.0], dtype=object))[0, 0]

    g = SmoothMap(1, 1, g_body)
    assert abs(jacobian(g, np.array([3.0]))[0, 0] - 6.0) < 1e-14


def test_gradient_and_hessian_single_pass():
    def f(x):
        return x[0] ** 2 * x[1] + _dual.sin(x[2]) + x[1] * x[2]

    x = np.array([1.2, -0.7, 0.4])
    val, grad, hess = _dual.grad_hess(f, x)
    assert abs(val - (1.2**2 * -0.7 + np.sin(0.4) + -0.7 * 0.4)) < 1e-15
    assert np.allclose(grad, [2 * 1.2 * -0.7, 1.2**2 + 0.4, np.cos(0.4) - 0.7])
    expected_h = np.array(
        [
            [2 * -0.7, 2 * 1.2, 0.0],
            [2 * 1.2, 0.0, 1.0],
            [0.0, 1.0, -np.sin(0.4)],
        ]
    )
    assert np.allclose(hess, expected_h, atol=1e-14)
    assert np.allclose(hess, hess.T, atol=0.0)


def test_grad_hess_cross_checked_by_nested_jacobian():
    rng = np.random.default_rng(7)

    def f(x):
        return _dual.exp(0.3 * x[0]) * x[1] ** 2 + _dual.cos(x[0] * x[1])

    fx = SmoothMap(2, 1, lambda x: f(x))
    x = rng.uniform(-1, 1, size=2)
    _, grad, hess = _dual.grad_hess(f, x)
    assert np.allclose(grad, jacobian(fx, x)[0], atol=1e-13)
    for i in range(2):
        gi = SmoothMap(2, 1, lambda z, i=i: jacobian(fx, z)[0, i])
        assert np.allclose(hess[i], jacobian(gi, x)[0], atol=1e-12)


def test_gradient_on_dual_inputs_falls_back_safely():
    # outer derivative of x -> ||grad_y f(x, y)||^2 style nesting
    def inner_grad_norm(x):
        def f(y):
            return x[0] * y[0] * y[1]

        g = _dual.gradient(f, np.array([2.0, 3.0], dtype=object))
        return g[0] * g[0] + g[1] * g[1]

    m = SmoothMap(1, 1, lambda x: inner_grad_norm(x))
    # inner gradient = x*(3, 2); norm^2 = 13 x^2; derivative = 26 x
    assert abs(jacobian(m, np.array([1.5]))[0, 0] - 39.0) < 1e-12


def test_out_shape_tensor_maps():
    m = SmoothMap(2, 8, lambda x: np.array(
        [[x[0], 0.0, 0.0, x[1]], [1.0, x[0] * x[1], 0.0, 0.0]]
    ).reshape(2, 2, 2), out_shape=(2, 2, 2))
    v = eval_map(m, np.array([2.0, 5.0]))
    assert v.shape == (2, 2, 2)
    J = jacobian(m, np.array([2.0, 5.0]))
    assert J.shape == (8, 2)
    assert J[5, 0] == 5.0 and J[5, 1] == 2.0


# f(x, y) = x . (A (y * roll(y)) + B y), with roll(y)_j = y_{j+1 mod dy}.
# The (2, 2) corner is f = x0 y0 y1 + x1 y1 at y = (2, 3), x = (0.7, -0.4).
_A = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, -1.0], [1.0, 3.0, 0.0]])
_B = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [2.0, 0.0, -1.0]])
_Y = np.array([2.0, 3.0, -1.5])
_X = np.array([0.7, -0.4, 1.3])


@pytest.mark.parametrize("dx, dy", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_outer_derivative_of_an_inner_gradient_closing_over_outer_duals(dx, dy):
    """h(x) = |grad_y f(x, y)|^2 at a fixed float y: the inner gradient's
    function closes over the duals of the outer pass.  grad_y f = N x with
    N = (A D + B)^T and D = d(y * roll(y))/dy, so h has gradient
    2 N^T N x and Hessian 2 N^T N."""
    A, B, y, x = _A[:dx, :dy], _B[:dx, :dy], _Y[:dy], _X[:dx]
    R = np.roll(np.eye(dy), -1, axis=0)  # R @ y == roll(y)
    N = (A @ (np.diag(R @ y) + np.diag(y) @ R) + B).T

    def h(xx):
        g = _dual.gradient(lambda z: xx @ (A @ (z * np.roll(z, -1)) + B @ z), y)
        return np.dot(g, g)

    want_grad, want_hess = 2.0 * N.T @ N @ x, 2.0 * N.T @ N
    got = {
        "gradient": _dual.gradient(h, x),
        "jacobian": jacobian(SmoothMap(dx, 1, h), x)[0],
    }
    val, got["grad_hess"], hess = _dual.grad_hess(h, x)
    for name, grad in got.items():
        np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12, err_msg=name)
    np.testing.assert_allclose(hess, want_hess, rtol=1e-12, atol=1e-12)
    assert val == pytest.approx(np.sum((N @ x) ** 2), rel=1e-12)


def _count_directional(monkeypatch):
    calls = []
    inner = _dual.directional

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(_dual, "directional", counted)
    return calls


def test_each_jacobian_pass_seeds_only_its_own_input(monkeypatch):
    """The identity on 3 inputs: one pass per direction, and each pass
    constructs one dual, its seed; the other inputs go in as floats."""
    calls = _count_directional(monkeypatch)
    built = []
    init = Dual.__init__

    def counted_init(self, re, im, level):
        built.append(1)
        init(self, re, im, level)

    monkeypatch.setattr(Dual, "__init__", counted_init)
    J = jacobian(SmoothMap(3, 3, lambda x: x), np.array([0.5, -1.0, 2.0]))
    assert J.dtype == float and J.tobytes() == np.eye(3).tobytes()
    assert len(calls) == 3 and len(built) == 3


def test_top_level_gradient_is_one_array_pass(monkeypatch):
    calls = _count_directional(monkeypatch)
    evals = []

    def f(x):
        evals.append(1)
        return x[0] * x[1] + x[2] ** 2

    g = _dual.gradient(f, np.array([2.0, 3.0, 4.0]))
    assert g.dtype == float and list(g) == [3.0, 2.0, 8.0]
    assert len(evals) == 1 and not calls


def test_gradient_inside_another_pass_seeds_one_direction_at_a_time(monkeypatch):
    calls = _count_directional(monkeypatch)
    y = np.array([1.0, 2.0, 3.0])

    def outer(x):
        inner = _dual.gradient(lambda z: x[0] * (z[0] * z[1] + z[2] ** 2), y)
        return np.sum(inner)

    # the outer pass takes array seeds, the inner one three scalar-seeded passes
    assert list(_dual.gradient(outer, np.array([0.5]))) == [2.0 + 1.0 + 6.0]
    assert len(calls) == 3


@pytest.mark.parametrize(
    "run",
    [
        lambda f: _dual.gradient(f, np.array([1.0, 2.0])),
        lambda f: _dual.directional(f, np.array([1.0]), np.array([1.0])),
        lambda f: _dual.grad_hess(f, np.array([1.0, 2.0])),
    ],
    ids=["gradient", "directional", "grad_hess"],
)
def test_a_raising_body_leaves_no_pass_open(run, monkeypatch):
    def boom(x):
        raise ZeroDivisionError("body failed")

    with pytest.raises(ZeroDivisionError):
        run(boom)
    calls = _count_directional(monkeypatch)
    evals = []

    def f(x):
        evals.append(1)
        return x[0] * x[1]

    assert list(_dual.gradient(f, np.array([2.0, 5.0]))) == [5.0, 2.0]
    assert len(evals) == 1 and not calls


def test_gradient_of_a_constant_is_a_float_zero_vector():
    g = _dual.gradient(lambda x: 3.0, np.array([1.0, 2.0, 3.0]))
    assert g.dtype == float and g.shape == (3,) and not g.any()


# ---------------------------------------------------------------------------
# bitwise oracles: the constant-map Jacobian and the compiled polynomial body


def _tree(v):
    """Kind, level, shape and the bytes of every float in v, zero signs included."""
    if isinstance(v, Dual):
        return ("dual", v.level, _tree(v.re), _tree(v.im))
    if isinstance(v, _dual._Jet):
        return ("jet", _tree(v.re), _tree(v.g), None if v.h is None else _tree(v.h))
    if isinstance(v, np.ndarray):
        return ("array", v.dtype.kind, v.shape, [_tree(e) for e in v.ravel()])
    return (type(v).__name__, np.float64(v).tobytes())


_special = st.sampled_from([0.0, -0.0, 1.5, -2.25, np.inf, -np.inf, np.nan, 5e-324])


@st.composite
def constant_tables(draw):
    """A constant_map on 0 to 3 inputs with special float entries, a point,
    and a direction for an outer pass."""
    n = draw(st.integers(0, 3))
    shape = draw(st.sampled_from([(), (0,), (2,), (2, 3), (1, 2, 2)]))
    size = int(np.prod(shape, dtype=int))
    table = np.array(draw(st.lists(_special, min_size=size, max_size=size))).reshape(shape)
    coords = st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n).map(np.array)
    return constant_map(n, table, "table"), draw(coords), draw(coords)


# no shrink phase: a failing table is reported as drawn
@settings(max_examples=80, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(constant_tables())
def test_constant_map_jacobian_takes_no_pass_and_keeps_the_bits_of_the_passes(case):
    """jacobian of a constant_map is the matrix its per-direction passes give
    (the same body without the constant mark), bit for bit, at a float point
    and at the dual point of an outer pass, and it runs no pass."""
    m, x, dx = case
    plain = SmoothMap(m.in_dim, m.out_dim, lambda z: m.body(z), out_shape=m.out_shape)
    calls = []

    def compare(z):
        inner = _dual.directional
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_dual, "directional", lambda *a: calls.append(1) or inner(*a))
            got = jacobian(m, z)
        assert not calls
        want = jacobian(plain, z)
        assert _tree(got) == _tree(want) and got.dtype == float
        return z

    compare(x)
    _dual.directional(compare, x, dx)


def _powers_body(n_vars, shape, terms):
    """polynomial_map's body written over every power, the zero ones skipped
    inside the loop: the form that compiled factors replace."""
    total = int(np.prod(shape, dtype=int))
    compiled = [
        (int(np.ravel_multi_index(t["index"], shape)) if shape else 0, t["powers"], t["coeff"])
        for t in terms
    ]

    def body(x):
        vals = [0.0] * total
        for flat, powers, coeff in compiled:
            term = coeff
            for i, p in enumerate(powers):
                if p:
                    term = term * x[i] ** p
            vals[flat] = vals[flat] + term
        arr = np.array(vals)
        return arr.reshape(shape) if shape else arr

    return body


@st.composite
def polynomial_terms(draw):
    """Terms in n <= 3 variables, each power 0 to 3, zero ones frequent, with
    signed-zero coefficients, and a point with signed zeros."""
    n = draw(st.integers(0, 3))
    shape = draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    term = st.fixed_dictionaries(
        {
            "powers": st.lists(st.sampled_from([0, 0, 1, 2, 3]), min_size=n, max_size=n),
            "coeff": st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-2.0, 2.0)),
            "index": st.tuples(*[st.integers(0, e - 1) for e in shape]).map(list),
        }
    )
    terms = draw(st.lists(term, max_size=6))
    point = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))
    x = np.array(draw(st.lists(point, min_size=n, max_size=n)))
    return n, shape, terms, x


def _polynomial_inputs(x):
    """x as floats, as one-level duals, as duals nested two levels deep in
    turn, and as grad_hess seeds."""
    lev, inner, outer = fresh_level(), fresh_level(), fresh_level()
    nested = np.empty(x.size, dtype=object)
    for i, xi in enumerate(x):
        nested[i] = Dual(xi, 1.0 - i, inner) if i % 3 < 2 else xi
        if i % 3 != 1:
            nested[i] = Dual(nested[i], 0.5 * i - 1.0, outer)
    return [
        x,
        np.array([Dual(xi, -0.5 * i, lev) for i, xi in enumerate(x)], dtype=object),
        nested,
        np.array([_dual._Jet(xi, row) for xi, row in zip(x, np.eye(x.size))], dtype=object),
    ]


# no shrink phase: a failing polynomial is reported as drawn
@settings(max_examples=150, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(polynomial_terms())
def test_polynomial_body_keeps_the_bits_of_the_every_power_loop(case):
    """polynomial_map's body multiplies over each term's nonzero powers only;
    on float, Dual, nested-dual and _Jet inputs it gives the bits of the loop
    over every power, zero powers and signed zeros included."""
    n, shape, terms, x = case
    body = polynomial_map(n, list(shape), terms, "table").body
    oracle = _powers_body(n, shape, terms)
    for z in _polynomial_inputs(x):
        assert _tree(body(z)) == _tree(oracle(z))
