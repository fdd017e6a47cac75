"""grad_hess against the two-level nested-dual evaluation it replaces.

The oracle seeds each input as Dual(Dual(x_i, e_i), e_i[:, None]): a
gradient level inside a Hessian level, whose axis-separated array tangents
broadcast into the (d, d) Hessian.  grad_hess must return the same value,
gradient and Hessian bit for bit, signs of zero included.
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from lpmech import _dual
from lpmech._dual import Dual


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


def run(steps):
    def f(x):
        regs = list(x)
        for name, i, j, k, c in steps:
            regs.append(_STEPS[name](regs[i], regs[j], regs[k], c))
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
