"""Level-tagged dual numbers for forward-mode differentiation.

A ``Dual`` carries a value ``re``, an infinitesimal part ``im`` and an integer
``level`` tag.  Independent differentiation passes draw fresh levels from a
global counter, so nested derivatives never confuse their perturbations: each
arithmetic rule only combines infinitesimals that share a tag and treats any
lower-tagged dual as an ordinary coefficient.

``im`` is usually a scalar.  ``gradient`` seeds ndarray infinitesimals of
shape (d,), ``grad_hess`` of shapes (d,) and (d, 1); the axis-separated shapes
make numpy broadcasting assemble the full Hessian in a single evaluation.
Array tangents of two nested passes would broadcast into each other, so a
first-order pass seeds arrays only when no other pass is evaluating and its
input holds no dual; otherwise it takes one scalar seed per direction.
"""

from __future__ import annotations

import itertools

import numpy as np

_level_counter = itertools.count(1)
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
        if isinstance(other, Dual):
            if other.level == self.level:
                return Dual(self.re + other.re, self.im + other.im, self.level)
            if other.level > self.level:
                return Dual(self + other.re, other.im, other.level)
        elif isinstance(other, np.ndarray) and other.dtype == object:
            return _distribute(lambda v: self + v, other)
        return Dual(self.re + other, self.im, self.level)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.re, -self.im, self.level)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Dual):
            if other.level == self.level:
                return Dual(
                    self.re * other.re,
                    self.re * other.im + self.im * other.re,
                    self.level,
                )
            if other.level > self.level:
                return Dual(self * other.re, self * other.im, other.level)
        elif isinstance(other, np.ndarray) and other.dtype == object:
            return _distribute(lambda v: self * v, other)
        return Dual(self.re * other, self.im * other, self.level)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * _reciprocal(other)

    def __rtruediv__(self, other):
        return _reciprocal(self) * other

    def __pow__(self, n):
        if isinstance(n, Dual):
            raise TypeError("dual exponents are not supported")
        if n == 0:
            return Dual(self.re * 0 + 1.0, self.im * 0.0, self.level)
        return Dual(self.re**n, (n * self.re ** (n - 1)) * self.im, self.level)


def _distribute(op, arr):
    """Apply a scalar-dual operation across an object-dtype ndarray operand.

    Scalar times object array must produce an array of duals, never a dual
    wrapping the array: object arrays can hold same-level duals, and burying
    those inside ``re`` breaks the level bookkeeping.  Float arrays are left
    to the plain branch; wrapping them keeps the broadcasting trick that lets
    ``grad_hess`` assemble a Hessian from axis-separated array seeds.
    """
    out = np.empty(arr.shape, dtype=object)
    for idx in np.ndindex(arr.shape):
        out[idx] = op(arr[idx])
    return out


def _reciprocal(x):
    if isinstance(x, Dual):
        inv = _reciprocal(x.re)
        return Dual(inv, -(x.im * inv) * inv, x.level)
    return 1.0 / x


def real_part(x):
    """Strip every infinitesimal layer and return the underlying value."""
    while isinstance(x, Dual):
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


def sin(x):
    if isinstance(x, Dual):
        return Dual(sin(x.re), x.im * cos(x.re), x.level)
    return np.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(cos(x.re), -(x.im * sin(x.re)), x.level)
    return np.cos(x)


def exp(x):
    if isinstance(x, Dual):
        e = exp(x.re)
        return Dual(e, x.im * e, x.level)
    return np.exp(x)


def sqrt(x):
    if isinstance(x, Dual):
        r = sqrt(x.re)
        return Dual(r, x.im * (0.5 * _reciprocal(r)), x.level)
    return np.sqrt(x)


# -- seeding and extraction helpers ----------------------------------------


def contains_dual(x):
    return any(isinstance(e, Dual) for e in np.asarray(x, dtype=object).ravel())


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
    an array.
    """
    x = np.asarray(x, dtype=object)
    dx = np.asarray(dx, dtype=object)
    lev = fresh_level()
    seeded = np.array(
        [Dual(x[i], dx[i], lev) for i in range(x.size)], dtype=object
    )
    y = _evaluate(f, seeded)
    if isinstance(y, np.ndarray):
        vals = np.array([primal_part(e, lev) for e in y.ravel()], dtype=object)
        tans = np.array([tangent_part(e, lev) for e in y.ravel()], dtype=object)
        return vals.reshape(y.shape), tans.reshape(y.shape)
    return primal_part(y, lev), tangent_part(y, lev)


def _tangents(f, x):
    """Tangents of ``f`` at ``x`` along each unit direction, in order."""
    d = x.size
    out = np.empty(d, dtype=object)
    for j in range(d):
        dx = np.zeros(d, dtype=object)
        dx[j] = 1.0
        _, out[j] = directional(f, x, dx)
    return out


def gradient(f, x):
    """Gradient of a scalar-valued ``f`` at ``x``.

    One evaluation with array seeds when no other pass is evaluating and
    ``x`` holds no dual; otherwise one scalar-seeded pass per direction, and
    an object array whose entries may themselves be duals.
    """
    x = np.asarray(x, dtype=object)
    d = x.size
    if d == 0:
        return np.zeros(0)
    if _active_passes or contains_dual(x):
        return _tangents(f, x)
    lev = fresh_level()
    eye = np.eye(d)
    seeded = np.array(
        [Dual(float(x[i]), eye[i], lev) for i in range(d)], dtype=object
    )
    y = _as_scalar(_evaluate(f, seeded))
    # np.full copies an array tangent, or spreads the scalar zero of an f
    # that ignored its input
    return np.full(d, tangent_part(y, lev), dtype=float)


def grad_hess(f, x):
    """Value, gradient and Hessian of scalar ``f`` in one nested evaluation.

    Two fresh levels with seed shapes (d,) and (d, 1); the broadcast of the
    two seed axes in mixed products yields the (d, d) Hessian directly.
    Inputs must be plain floats (this helper is never nested under other
    array-mode seeds).
    """
    x = np.asarray(x, dtype=float)
    d = x.size
    if d == 0:
        y = _as_scalar(f(np.zeros(0, dtype=object)))
        return float(real_part(y)), np.zeros(0), np.zeros((0, 0))
    inner_lev = fresh_level()
    outer_lev = fresh_level()
    eye = np.eye(d)
    seeded = np.empty(d, dtype=object)
    for i in range(d):
        inner = Dual(x[i], eye[i], inner_lev)
        seeded[i] = Dual(inner, eye[i][:, None], outer_lev)
    y = _as_scalar(_evaluate(f, seeded))

    y1 = primal_part(y, outer_lev)
    val = real_part(y1)
    grad = np.full(d, tangent_part(y1, inner_lev), dtype=float)

    t2 = tangent_part(y, outer_lev)
    h = tangent_part(t2, inner_lev)
    return float(val), grad, np.full((d, d), h, dtype=float)
