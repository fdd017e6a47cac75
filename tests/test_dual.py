"""grad_hess against the two-level nested-dual evaluation it replaces.

The oracle seeds each input as Dual(Dual(x_i, e_i), e_i[:, None]): a
gradient level inside a Hessian level, whose axis-separated array tangents
broadcast into the (d, d) Hessian.  grad_hess must return the same value,
gradient and Hessian bit for bit, signs of zero included.  The first-order
passes, which seed only the inputs whose direction is nonzero, are checked
the same way against a ``directional`` that seeds every input, and the
``Dual`` arithmetic rules against the rules they replaced, kept here.
"""

import itertools

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from lpmech import _dual
from lpmech._dual import Dual
from lpmech.smoothmap import SmoothMap, jacobian


def nested_grad_hess(f, x):
    """Value, gradient and Hessian of f through two nested dual levels."""
    x = np.asarray(x, dtype=float)
    d = x.size
    inner_lev = _dual.fresh_level()
    outer_lev = _dual.fresh_level()
    eye = np.eye(d)
    seeded = np.empty(d, dtype=object)
    for i in range(d):
        seeded[i] = Dual(Dual(x[i], eye[i], inner_lev), eye[i][:, None], outer_lev)
    y = _dual._as_scalar(f(seeded))
    y1 = _dual.primal_part(y, outer_lev)
    grad = np.full(d, _dual.tangent_part(y1, inner_lev), dtype=float)
    h = _dual.tangent_part(_dual.tangent_part(y, outer_lev), inner_lev)
    return float(_dual.real_part(y1)), grad, np.full((d, d), h, dtype=float)


def assert_same_bits(f, x):
    got = _dual.grad_hess(f, x)
    want = nested_grad_hess(f, x)
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    for g, w in zip(got[1:], want[1:]):
        assert g.shape == w.shape and g.dtype == w.dtype == float
        assert g.tobytes() == w.tobytes(), (g, w)


def _obj(*items):
    return np.array(items, dtype=object)


# Each step reads registers a, b, c (earlier results) and a float constant k.
# Denominators, square-root and fractional-power bases are kept positive.
_STEPS = {
    "add": lambda a, b, c, k: a + b,
    "sub": lambda a, b, c, k: a - b,
    "mul": lambda a, b, c, k: a * b,
    "div": lambda a, b, c, k: a / (b * b + 0.5),
    "add_float": lambda a, b, c, k: a + k,
    "float_add": lambda a, b, c, k: k + a,
    "sub_float": lambda a, b, c, k: a - k,
    "float_sub": lambda a, b, c, k: k - a,
    "mul_float": lambda a, b, c, k: a * k,
    "float_mul": lambda a, b, c, k: k * a,
    "mul_np_float": lambda a, b, c, k: a * np.float64(k),
    "np_float_mul": lambda a, b, c, k: np.float64(k) * a,
    "sub_products": lambda a, b, c, k: a * b - c * a,
    "div_float": lambda a, b, c, k: a / (k + 3.0),
    "float_div": lambda a, b, c, k: k / (a * a + 0.25),
    "neg": lambda a, b, c, k: -a,
    "pow_int": lambda a, b, c, k: a**2,
    "pow_cube": lambda a, b, c, k: a**3,
    "pow_zero": lambda a, b, c, k: a**0,
    "pow_frac": lambda a, b, c, k: (a * a + 0.25) ** 1.5,
    "sin": lambda a, b, c, k: _dual.sin(a),
    "cos": lambda a, b, c, k: _dual.cos(a),
    "exp": lambda a, b, c, k: _dual.exp(_dual.sin(a)),
    "sqrt": lambda a, b, c, k: _dual.sqrt(a * a + 0.25),
    "float_array": lambda a, b, c, k: np.sum(_obj(a, b, c) * np.array([k, 0.5, -0.0])),
    "float_matmul": lambda a, b, c, k: (np.array([[k, -1.0], [0.0, 2.0]]) @ _obj(a, b))[1],
    "object_array": lambda a, b, c, k: (a * _obj(b, c))[1] + (_obj(c, b) + a)[0],
    "object_matmul": lambda a, b, c, k: (_obj(_obj(a, b), _obj(c, k)) @ _obj(b, a))[0],
}
_CONSTANTS = [0.0, -0.0, 1.0, -1.5, 0.3, 2.0]


@st.composite
def programs(draw):
    d = draw(st.integers(1, 3))
    entry = st.sampled_from([0.0, -0.0, 0.7, -1.3, 2.0]) | st.floats(-2.0, 2.0)
    x = draw(st.lists(entry, min_size=d, max_size=d))
    steps = []
    for n in range(d, d + draw(st.integers(1, 8))):
        reg = st.integers(0, n - 1)
        name = draw(st.sampled_from(sorted(_STEPS)))
        steps.append((name, draw(reg), draw(reg), draw(reg), draw(st.sampled_from(_CONSTANTS))))
    return np.array(x), steps


def run(steps, table=_STEPS):
    def f(x):
        regs = list(x)
        for name, i, j, k, c in steps:
            regs.append(table[name](regs[i], regs[j], regs[k], c))
        return regs[-1]

    return f


# no shrink phase: a failing program is reported as drawn
@settings(max_examples=300, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(programs())
def test_grad_hess_matches_nested_duals_bit_for_bit(case):
    x, steps = case
    assert_same_bits(run(steps), x)


def test_each_step_alone_at_a_signed_zero():
    """Each step with each constant, on the seeds and on a product of them."""
    x = np.array([0.7, -0.0, -1.3])
    for name in _STEPS:
        for c in _CONSTANTS:
            assert_same_bits(run([(name, 0, 1, 2, c)]), x)
            assert_same_bits(run([(name, 1, 2, 0, c), ("mul", 3, 0, 1, c)]), x)


@pytest.mark.parametrize(
    "body",
    [lambda x: 2.5, lambda x: np.float64(-0.0), lambda x: 2.0 * x[0] - x[1] + 0.5],
    ids=["constant", "constant-zero", "linear"],
)
def test_constant_and_linear_bodies_have_a_plus_zero_hessian(body):
    x = np.array([1.0, -2.0])
    assert_same_bits(body, x)
    _, _, hess = _dual.grad_hess(body, x)
    assert hess.tobytes() == np.zeros((2, 2)).tobytes()


def test_a_dual_of_an_enclosing_pass_is_a_type_error():
    """f closes over a dual seeded before grad_hess started: the nested
    evaluation fails on it with a TypeError, and so does grad_hess."""
    outer = Dual(2.0, 1.0, _dual.fresh_level())

    def f(x):
        return x[0] * outer + x[1]

    with pytest.raises(TypeError):
        nested_grad_hess(f, np.array([1.0, 3.0]))
    with pytest.raises(TypeError):
        _dual.grad_hess(f, np.array([1.0, 3.0]))


# ---------------------------------------------------------------------------
# first-order passes seed only the inputs whose direction is nonzero


def dense_directional(f, x, dx):
    """directional with every input seeded, a zero direction too."""
    x = np.asarray(x, dtype=object)
    dx = np.asarray(dx, dtype=object)
    lev = _dual.fresh_level()
    seeded = np.array([Dual(x[i], dx[i], lev) for i in range(x.size)], dtype=object)
    y = _dual._evaluate(f, seeded)
    return _dual.primal_part(y, lev), _dual.tangent_part(y, lev)


def _bits(v):
    return np.float64(v).tobytes()


def assert_same_tangent(got, want):
    """Equal under ==, and bit for bit unless the oracle's tangent is a
    zero, whose sign may differ."""
    assert got == want, (got, want)
    if want != 0:
        assert _bits(got) == _bits(want), (got, want)


# Every quotient written as a product with a reciprocal.  The dual rules
# divide that way, so on duals this table computes _STEPS bit for bit; on
# floats it differs from the IEEE quotient a / b in the last bits.
_RECIPROCAL_FORM = dict(
    _STEPS,
    div=lambda a, b, c, k: a * (1.0 / (b * b + 0.5)),
    div_float=lambda a, b, c, k: a * (1.0 / (k + 3.0)),
    float_div=lambda a, b, c, k: k * (1.0 / (a * a + 0.25)),
)


# no shrink phase: a failing program is reported as drawn
@settings(max_examples=300, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(programs())
def test_unit_passes_match_dense_seeding(case):
    """Every step, quotients included.  The dense pass divides every value
    through the dual rules, as the reciprocal form does; a unit pass of the
    reciprocal form then matches it bit for bit, signs of zero aside.  A
    unit pass of the program itself differs only where a quotient meets no
    seed and is the IEEE a / b (see the test below), which stays within
    1e-12 of the dense result here."""
    x, steps = case
    f, f_rec = run(steps), run(steps, _RECIPROCAL_FORM)
    for e in np.eye(x.size):
        want = dense_directional(f, x, e)
        # a zero seed times an infinite coefficient is NaN, not zero
        assume(np.isfinite(float(want[0])))
        want_rec = dense_directional(f_rec, x, e)
        assert [_bits(v) for v in want_rec] == [_bits(v) for v in want]
        got = _dual.directional(f_rec, x, e)
        assert _bits(got[0]) == _bits(want[0])
        assert_same_tangent(got[1], want[1])
        got = _dual.directional(f, x, e)
        assert float(got[0]) == pytest.approx(float(want[0]), rel=1e-12, abs=1e-12)
        assert float(got[1]) == pytest.approx(float(want[1]), rel=1e-12, abs=1e-12)


def test_a_quotient_of_unseeded_values_is_a_float_quotient():
    """Along x1, 0.3 / (x0 * x0 + 0.25) meets no seed: it is the IEEE
    quotient, where the dense pass took 0.3 * (1 / den) on zero-tangent
    duals.  Here the two differ in the last bit, and so does the tangent."""
    def f(x):
        return x[1] * (0.3 / (x[0] * x[0] + 0.25))

    x = np.array([-0.99999, -1.3])
    den = x[0] * x[0] + 0.25
    _, got = _dual.directional(f, x, [0.0, 1.0])
    _, want = dense_directional(f, x, [0.0, 1.0])
    assert got == 0.3 / den and want == (1.0 / den) * 0.3
    assert abs(got - want) == np.spacing(want)


@settings(max_examples=100, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(programs())
def test_nested_gradient_matches_dense_seeding(case):
    """The Poisson-Jacobi shape: an outer array-seeded gradient around an
    inner per-direction gradient.  Every inner input carries an outer dual,
    so quotients too run through the dual rules."""
    x, steps = case
    inner = run(steps)
    coef = [-1.5, 0.3, 2.0][: x.size]

    def outer(z):
        g = _dual.gradient(inner, z)
        return sum(c * (g[i] * z[i - 1]) for i, c in enumerate(coef))

    got = _dual.gradient(outer, x)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_dual, "directional", dense_directional)
        want = _dual.gradient(outer, x)
    assume(np.isfinite(want).all())
    for g, w in zip(got, want):
        assert_same_tangent(g, w)


def _spread_product(x):
    return x[0] * np.array([x[1], x[2]])


def test_a_float_array_built_from_unseeded_inputs_is_spread():
    """Along x0, np.array([x1, x2]) holds two unseeded floats: the seeded
    x0 times that float array is an array of duals, as it is when every
    input carries a seed, and the Jacobian is the one dense seeding gave."""
    x = np.array([1.0, 2.0, 3.0])
    J = jacobian(SmoothMap(3, 2, _spread_product), x)
    assert J.tobytes() == np.array([[2.0, 1.0, 0.0], [3.0, 0.0, 1.0]]).tobytes()
    val, tan = _dual.directional(_spread_product, x, [1.0, 0.0, 0.0])
    assert val.tolist() == [2.0, 3.0] and tan.tolist() == [2.0, 3.0]


def test_a_nested_gradient_spreads_a_float_array_of_unseeded_inputs():
    """The same body under a gradient nested in a Jacobian, whose passes
    seed one input each, and under a gradient nested in an array-seeded
    gradient: both give the Hessian of x0 * (x1 + x2)."""
    def inner(y):
        return np.sum(_spread_product(y))

    x = np.array([1.0, 2.0, 3.0])
    hess = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    H = jacobian(SmoothMap(3, 3, lambda y: _dual.gradient(inner, y)), x)
    assert (H == hess).all()
    for k in range(3):
        row = _dual.gradient(lambda y: _dual.gradient(inner, y)[k], x)
        assert (row == hess[k]).all()


# ---------------------------------------------------------------------------
# the arithmetic rules against the rules they replaced


def _ref_add(self, other):
    if isinstance(other, Dual):
        if other.level == self.level:
            return Dual(self.re + other.re, self.im + other.im, self.level)
        if other.level > self.level:
            return Dual(self + other.re, other.im, other.level)
    elif isinstance(other, np.ndarray) and (
        other.dtype == object or not isinstance(self.im, np.ndarray)
    ):
        return _dual._distribute(lambda v: self + v, other)
    return Dual(self.re + other, self.im, self.level)


def _ref_mul(self, other):
    if isinstance(other, Dual):
        if other.level == self.level:
            return Dual(
                self.re * other.re, self.re * other.im + self.im * other.re, self.level
            )
        if other.level > self.level:
            return Dual(self * other.re, self * other.im, other.level)
    elif isinstance(other, np.ndarray) and (
        other.dtype == object or not isinstance(self.im, np.ndarray)
    ):
        return _dual._distribute(lambda v: self * v, other)
    return Dual(self.re * other, self.im * other, self.level)


# Reference rules: every result built through __init__, and a - b as a + (-b).
_REFERENCE_RULES = {
    "__add__": _ref_add,
    "__radd__": _ref_add,
    "__mul__": _ref_mul,
    "__rmul__": _ref_mul,
    "__neg__": lambda self: Dual(-self.re, -self.im, self.level),
    "__sub__": lambda self, other: self + (-other),
}


def _tree(v):
    """Levels, shapes and the bytes of every float in v, zero signs included."""
    if isinstance(v, Dual):
        return ("dual", v.level, _tree(v.re), _tree(v.im))
    if isinstance(v, np.ndarray):
        return ("array", v.shape, [_tree(e) for e in v.ravel()])
    return np.float64(v).tobytes()


def _seeded(x, nested):
    """x as duals: all at one level, or cycling through both of two nested
    levels, the inner level alone and the outer level alone, so that duals
    of different levels meet."""
    inner, outer = _dual.fresh_level(), _dual.fresh_level()
    out = np.empty(x.size, dtype=object)
    for i, (xi, t, u) in enumerate(zip(x, [1.0, -0.0, -0.5], [0.0, 2.0, -1.5])):
        kind = i % 3 if nested else 1
        out[i] = Dual(xi, t, inner) if kind < 2 else xi
        if kind != 1:
            out[i] = Dual(out[i], u, outer)
    return out


def assert_same_as_reference(f, x):
    for nested in (False, True):
        seeded = _seeded(x, nested)
        got = _tree(f(seeded))
        with pytest.MonkeyPatch.context() as m:
            for name, rule in _REFERENCE_RULES.items():
                m.setattr(Dual, name, rule)
            want = _tree(f(seeded))
        assert got == want


# no shrink phase: a failing program is reported as drawn
@settings(max_examples=300, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(programs())
def test_dual_rules_match_the_reference_rules_bit_for_bit(case):
    x, steps = case
    assert_same_as_reference(run(steps), x)


def test_each_step_alone_matches_the_reference_rules():
    """Each step on every ordered pair of seeds, so each level meets each."""
    x = np.array([0.7, -0.0, -1.3])
    for name in _STEPS:
        for c in _CONSTANTS:
            for i, j in itertools.permutations(range(3), 2):
                assert_same_as_reference(run([(name, i, j, 3 - i - j, c)]), x)


# ---------------------------------------------------------------------------
# the elementary functions against the bodies they replaced


def _ref_reciprocal(x):
    if isinstance(x, Dual):
        inv = _ref_reciprocal(x.re)
        return Dual(inv, -(x.im * inv) * inv, x.level)
    if isinstance(x, _dual._Jet):
        return x._nested(_ref_reciprocal)
    return 1.0 / x


def _ref_sin(x):
    if isinstance(x, Dual):
        return Dual(_ref_sin(x.re), x.im * _ref_cos(x.re), x.level)
    if isinstance(x, _dual._Jet):
        return x._nested(_ref_sin)
    return np.sin(x)


def _ref_cos(x):
    if isinstance(x, Dual):
        return Dual(_ref_cos(x.re), -(x.im * _ref_sin(x.re)), x.level)
    if isinstance(x, _dual._Jet):
        return x._nested(_ref_cos)
    return np.cos(x)


def _ref_exp(x):
    if isinstance(x, Dual):
        e = _ref_exp(x.re)
        return Dual(e, x.im * e, x.level)
    if isinstance(x, _dual._Jet):
        return x._nested(_ref_exp)
    return np.exp(x)


def _ref_sqrt(x):
    if isinstance(x, Dual):
        r = _ref_sqrt(x.re)
        return Dual(r, x.im * (0.5 * _ref_reciprocal(r)), x.level)
    if isinstance(x, _dual._Jet):
        return x._nested(_ref_sqrt)
    return np.sqrt(x)


_SPECIAL = [0.7, -1.3, 0.0, -0.0, np.inf, -np.inf, np.nan]


def _typed_tree(v):
    """Type, level and shape of every layer and the bytes of every float,
    zero signs and NaNs included."""
    if isinstance(v, Dual):
        return ("dual", v.level, _typed_tree(v.re), _typed_tree(v.im))
    if isinstance(v, _dual._Jet):
        return ("jet", _typed_tree(v.re), _typed_tree(v.g), _typed_tree(v.h))
    if isinstance(v, np.ndarray):
        return ("array", v.dtype.str, v.shape, [_typed_tree(e) for e in v.ravel()])
    if v is None:
        return None
    return (type(v).__name__, np.float64(v).tobytes())


def _outcome(f, x):
    try:
        return _typed_tree(f(x))
    except ArithmeticError as exc:  # 1.0 / 0.0 on a Python float
        return type(exc).__name__


def _elementary_inputs():
    """Python and numpy floats, one- and two-level duals and jets, with
    signed zeros, infinities and NaN in every slot."""
    lev, inner, outer = (_dual.fresh_level() for _ in range(3))
    for v in _SPECIAL:
        yield v
        yield np.float64(v)
        for t in _SPECIAL:
            yield Dual(v, t, lev)
            yield Dual(Dual(v, t, inner), -0.5, outer)
            yield Dual(Dual(v, 1.5, inner), Dual(t, -0.0, inner), outer)
            g = np.array([t, -0.0, 2.0])
            yield _dual._Jet(v, g)
            yield _dual._Jet(v, g, np.outer(g, [1.0, t, -0.0]))


@pytest.mark.parametrize(
    "rule, reference",
    [
        (_dual._reciprocal, _ref_reciprocal),
        (_dual.sin, _ref_sin),
        (_dual.cos, _ref_cos),
        (_dual.exp, _ref_exp),
        (_dual.sqrt, _ref_sqrt),
    ],
    ids=["reciprocal", "sin", "cos", "exp", "sqrt"],
)
def test_elementary_rules_match_the_bodies_they_replaced(rule, reference):
    with np.errstate(all="ignore"):
        for x in _elementary_inputs():
            assert _outcome(rule, x) == _outcome(reference, x), repr(x)
