"""Dual numbers for forward-mode differentiation.

A ``Dual`` carries a value ``re``, an infinitesimal part ``im`` and an integer
``level`` tag.  Independent differentiation passes draw fresh levels from a
global counter, so nested derivatives never confuse their perturbations: each
arithmetic rule only combines infinitesimals that share a tag and treats any
lower-tagged dual as an ordinary coefficient.

``im`` is usually a scalar; ``gradient`` seeds ndarray infinitesimals of shape
(d,), at a negative level, so that one evaluation gives every direction.
Array tangents of two nested passes would broadcast into each other, so a
first-order pass seeds arrays only when no other pass is evaluating and its
input holds no dual; otherwise it takes one scalar seed per direction.  A pass
seeds only the inputs whose direction is a dual or nonzero; the others go into
``f`` as they are, so a unit pass carries one tangent, not d.  An array that
``f`` builds from unseeded floats is a float array, and a ``Dual`` spreads
over it as over an object array of duals, with a scalar tangent and with the
array tangent of ``gradient``'s array pass alike.  The derivatives are those
of seeding every input, with a zero tangent where ``dx`` is zero, except in
the last bits: an exact zero may change its sign (``c * x_j`` with
``c < 0``, along ``k != j``, gives +0.0 where a zero seed on ``x_j`` gave
-0.0), and a quotient of two unseeded values is the float ``a / b`` where
zero-tangent duals took ``a * (1 / b)``, so a derivative it scales may move
by an ulp.

The arithmetic rules of ``Dual`` and ``_Jet`` build their results with
``object.__new__`` and three slot stores, not through ``__init__``, which
costs more than the arithmetic of a scalar product.

``grad_hess`` evaluates on ``_Jet`` values instead: value, gradient and
Hessian of one quantity, the second-order truncation of two nested duals.
Any ``Dual`` met inside treats the jet as a coefficient.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

_level_counter = itertools.count(1)
_new = object.__new__
# Number of derivative passes whose function is being evaluated right now.
_active_passes = 0


def fresh_level():
    """Return a new, globally unique differentiation level."""
    return next(_level_counter)


class Dual:
    __slots__ = ("re", "im", "level")

    # Keep numpy from consuming us in ufuncs; reflected dunders then apply,
    # and arrays built from Dual entries stay dtype=object (no __float__).
    __array_ufunc__ = None

    def __init__(self, re, im, level):
        self.re = re
        self.im = im
        self.level = level

    def __repr__(self):
        return f"Dual({self.re!r}, {self.im!r}, level={self.level})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        out = _new(Dual)
        if isinstance(other, Dual):
            if other.level == self.level:
                out.re, out.im, out.level = self.re + other.re, self.im + other.im, self.level
                return out
            if other.level > self.level:
                out.re, out.im, out.level = self + other.re, other.im, other.level
                return out
        elif isinstance(other, np.ndarray) and (
            other.dtype == object
            or not isinstance(self.im, np.ndarray)
            or self.level < 0
        ):
            return _distribute(lambda v: self + v, other)
        out.re, out.im, out.level = self.re + other, self.im, self.level
        return out

    __radd__ = __add__

    def __neg__(self):
        out = _new(Dual)
        out.re, out.im, out.level = -self.re, -self.im, self.level
        return out

    def __sub__(self, other):
        # a - b is a + (-b) in IEEE arithmetic, so this is the sum's bits
        if isinstance(other, Dual) and other.level == self.level:
            out = _new(Dual)
            out.re, out.im, out.level = self.re - other.re, self.im - other.im, self.level
            return out
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        out = _new(Dual)
        if isinstance(other, Dual):
            if other.level == self.level:
                re, im = self.re, self.im
                out.re, out.im, out.level = re * other.re, re * other.im + im * other.re, self.level
                return out
            if other.level > self.level:
                out.re, out.im, out.level = self * other.re, self * other.im, other.level
                return out
        elif isinstance(other, np.ndarray) and (
            other.dtype == object
            or not isinstance(self.im, np.ndarray)
            or self.level < 0
        ):
            return _distribute(lambda v: self * v, other)
        out.re, out.im, out.level = self.re * other, self.im * other, self.level
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * _reciprocal(other)

    def __rtruediv__(self, other):
        return _reciprocal(self) * other

    def __pow__(self, n):
        if isinstance(n, (Dual, _Jet)):
            raise TypeError("dual exponents are not supported")
        if n == 0:
            return Dual(self.re * 0 + 1.0, self.im * 0.0, self.level)
        return Dual(self.re**n, (n * self.re ** (n - 1)) * self.im, self.level)


class _Jet:
    """Value ``re``, gradient ``g`` (d,) and Hessian ``h`` (d, d) of one
    quantity in a ``grad_hess`` pass.

    Each rule does the floating-point operations of two nested duals (a
    gradient level inside a Hessian level) in their order, so results match
    them bit for bit; a jet - jet is one rule with the bits of a + (-b).
    ``h`` is None until an operation forms a Hessian term:
    the nested form adds no term there, and adding 0.0 could turn a -0.0
    into +0.0.  The rare rules (reciprocal, ``**``, sin, cos, exp, sqrt) run
    through the nested form itself.
    """

    __slots__ = ("re", "g", "h")

    __array_ufunc__ = None

    def __init__(self, re, g, h=None):
        self.re = re
        self.g = g
        self.h = h

    def __repr__(self):
        return f"_Jet({self.re!r}, {self.g!r}, {self.h!r})"

    def __add__(self, other):
        out = _new(_Jet)
        if type(other) is _Jet:
            h = other.h if self.h is None else self.h if other.h is None else self.h + other.h
            out.re, out.g, out.h = self.re + other.re, self.g + other.g, h
            return out
        if isinstance(other, Dual):
            return NotImplemented  # a dual of an inner pass takes us as a coefficient
        if isinstance(other, np.ndarray):
            return _distribute(lambda v: self + v, other)
        out.re, out.g, out.h = self.re + other, self.g, self.h
        return out

    __radd__ = __add__

    def __neg__(self):
        out = _new(_Jet)
        out.re, out.g, out.h = -self.re, -self.g, None if self.h is None else -self.h
        return out

    def __sub__(self, other):
        if type(other) is not _Jet:
            return self + (-other)
        a, b, out = self.h, other.h, _new(_Jet)  # the bits of self + (-other)
        out.re, out.g = self.re - other.re, self.g - other.g
        out.h = (None if b is None else -b) if a is None else a if b is None else a - b
        return out

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        out = _new(_Jet)
        if type(other) is _Jet:
            # h = (a h_b + g_b (x) g_a) + (g_a (x) g_b + h_a b), the nested order
            a, ga, b, gb = self.re, self.g, other.re, other.g
            t = gb[:, None] * ga  # its transpose is g_a (x) g_b
            left = t if other.h is None else a * other.h + t
            right = t.T if self.h is None else t.T + self.h * b
            out.re, out.g, out.h = a * b, a * gb + ga * b, left + right
            return out
        if isinstance(other, Dual):
            return NotImplemented
        if isinstance(other, np.ndarray):
            return _distribute(lambda v: self * v, other)
        out.re, out.g = self.re * other, self.g * other
        out.h = None if self.h is None else self.h * other
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * _reciprocal(other)

    def __rtruediv__(self, other):
        return _reciprocal(self) * other

    def __pow__(self, n):
        return self._nested(lambda y: y**n)

    def _nested(self, op):
        """``op`` applied to the two nested duals that this jet truncates.
        They meet no other dual, so any two levels serve."""
        inner = Dual(self.re, self.g, 1)
        col = self.g[:, None]
        y = op(Dual(inner, col if self.h is None else Dual(col, self.h, 1), 2))
        return _Jet(y.re.re, y.re.im, y.im.im if isinstance(y.im, Dual) else None)


def _distribute(op, arr):
    """Apply a scalar-dual operation across an ndarray operand.

    Scalar times object array must produce an array of duals, never a dual
    wrapping the array: object arrays can hold same-level duals, and burying
    those inside ``re`` breaks the level bookkeeping.  A float array is
    spread too, over a scalar tangent and over the (d,) tangent of
    ``gradient``'s array pass (a negative level), but not over another array
    tangent: there the plain branch takes it as a tangent coefficient, which
    builds the outer products of two nested duals such as ``_Jet._nested``'s.
    """
    out = np.empty(arr.shape, dtype=object)
    for idx in np.ndindex(arr.shape):
        out[idx] = op(arr[idx])
    return out


def real_part(x):
    """Strip every infinitesimal layer and return the underlying value."""
    while isinstance(x, (Dual, _Jet)):
        x = x.re
    return x


def tangent_part(y, level):
    """Infinitesimal part of ``y`` at ``level`` (0.0 when absent)."""
    if isinstance(y, Dual) and y.level == level:
        return y.im
    return 0.0


def primal_part(y, level):
    """``y`` with the ``level`` infinitesimal removed."""
    if isinstance(y, Dual) and y.level == level:
        return y.re
    return y


# -- elementary functions --------------------------------------------------


def _elementary(on_float, tangent):
    """The rule of an elementary function f: ``on_float`` on a plain value,
    the nested rule on a ``_Jet``, and on a ``Dual`` the value f(re) with
    the tangent ``tangent(im, re, f(re))``."""

    def rule(x):
        if isinstance(x, Dual):
            value = rule(x.re)
            return Dual(value, tangent(x.im, x.re, value), x.level)
        if isinstance(x, _Jet):
            return x._nested(rule)
        return on_float(x)

    return rule


_reciprocal = _elementary(lambda x: 1.0 / x, lambda im, re, inv: -(im * inv) * inv)
sin = _elementary(np.sin, lambda im, re, s: im * cos(re))
cos = _elementary(np.cos, lambda im, re, c: -(im * sin(re)))
exp = _elementary(np.exp, lambda im, re, e: im * e)
sqrt = _elementary(np.sqrt, lambda im, re, r: im * (0.5 * _reciprocal(r)))


# -- seeding and extraction helpers ----------------------------------------


def contains_dual(x):
    return any(isinstance(e, (Dual, _Jet)) for e in np.asarray(x, dtype=object).ravel())


def _evaluate(f, seeded):
    """``f(seeded)``, counted as an active pass while it runs."""
    global _active_passes
    _active_passes += 1
    try:
        return f(seeded)
    finally:
        _active_passes -= 1


def _as_scalar(y):
    if isinstance(y, np.ndarray):
        if y.size != 1:
            raise ValueError(f"expected a scalar result, got shape {y.shape}")
        return y.reshape(())[()]
    return y


def directional(f, x, dx):
    """Directional derivative of ``f`` at ``x`` along ``dx``.

    Returns (value, derivative); both may contain lower-level duals when the
    inputs do.  ``f`` takes one object-array argument and returns a scalar or
    an array.  Only the entries whose ``dx`` is a dual or nonzero are seeded;
    an entry with an exact-zero direction goes in unchanged.  The result may
    differ from seeding it with a zero tangent in the sign of an exact zero
    and, through quotients of unseeded values, in the last bit (see the
    module docstring).
    """
    x = np.asarray(x, dtype=object)
    dx = np.asarray(dx, dtype=object)
    lev = fresh_level()
    seeded = x.copy()
    for i in range(x.size):
        if isinstance(dx[i], (Dual, _Jet)) or dx[i] != 0:
            seeded[i] = Dual(x[i], dx[i], lev)
    y = _evaluate(f, seeded)
    if isinstance(y, np.ndarray):
        vals, tans = [], []
        for e in y.ravel():
            if isinstance(e, Dual) and e.level == lev:
                vals.append(e.re)
                tans.append(e.im)
            else:
                vals.append(e)
                tans.append(0.0)
        vals, tans = np.array(vals, dtype=object), np.array(tans, dtype=object)
        return vals.reshape(y.shape), tans.reshape(y.shape)
    return primal_part(y, lev), tangent_part(y, lev)


def _tangents(f, x):
    """Tangents of ``f`` at ``x`` along each unit direction, in order."""
    out = np.empty(x.size, dtype=object)
    for j, dx in enumerate(_unit_rows(x.size)):
        _, out[j] = directional(f, x, dx)
    return out


@functools.cache
def _unit_rows(d):
    """Read-only rows of the d x d identity, the directions every pass shares."""
    eye = np.eye(d)
    eye.setflags(write=False)
    return tuple(eye)


def gradient(f, x):
    """Gradient of a scalar-valued ``f`` at ``x``.

    One evaluation with array seeds when no other pass is evaluating and
    ``x`` holds no dual; otherwise one scalar-seeded pass per direction, and
    an object array whose entries may themselves be duals.
    """
    x = np.asarray(x)
    d = x.size
    if d == 0:
        return np.zeros(0)
    if _active_passes or (x.dtype == object and contains_dual(x)):
        return _tangents(f, x)
    # a negative level marks the array tangents: a float array is spread
    # over them, not taken as a tangent coefficient (see _distribute); it is
    # below the level of every pass that f starts
    lev = -fresh_level()
    rows = _unit_rows(d)
    seeded = np.array([Dual(float(x[i]), rows[i], lev) for i in range(d)], dtype=object)
    y = _as_scalar(_evaluate(f, seeded))
    # np.full copies an array tangent, or spreads the scalar zero of an f
    # that ignored its input
    return np.full(d, tangent_part(y, lev), dtype=float)


def grad_hess(f, x):
    """Value, gradient and Hessian of scalar ``f`` at float ``x``.

    One evaluation of ``f`` on ``_Jet`` seeds (value x_i, gradient e_i, no
    Hessian); the result equals, bit for bit, the derivatives of two nested
    dual passes, and a Hessian that no operation formed is +0.0.  ``f`` may
    run inner derivative passes on the jets.  A result that still holds a
    dual of another pass, such as one that ``f`` closes over, is a TypeError.
    """
    x = np.asarray(x, dtype=float)
    d = x.size
    if d == 0:
        y = _as_scalar(f(np.zeros(0, dtype=object)))
        return float(real_part(y)), np.zeros(0), np.zeros((0, 0))
    seeded = np.array([_Jet(x[i], row) for i, row in enumerate(_unit_rows(d))], dtype=object)
    y = _as_scalar(_evaluate(f, seeded))
    if isinstance(y, Dual):
        raise TypeError("grad_hess: f returned a dual number of another pass")
    if not isinstance(y, _Jet):  # f ignored its input
        y = _Jet(y, np.zeros(d))
    h = np.zeros((d, d)) if y.h is None else y.h
    return float(y.re), np.array(y.g, dtype=float), np.array(h, dtype=float)
