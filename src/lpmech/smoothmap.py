"""Smooth maps between coordinate spaces with exact forward-mode derivatives.

A :class:`SmoothMap` wraps a pure Python body that must accept both plain
float arrays and object arrays of dual numbers (see :mod:`lpmech._dual`).
Derivatives computed by :func:`jacobian` are exact up to rounding; the
independent check is :func:`fd_jacobian`, a central-difference estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _dual
from .errors import DimensionMismatch

__all__ = ["SmoothMap", "as_map", "constant_map", "eval_map", "jacobian", "fd_jacobian"]


@dataclass(frozen=True)
class SmoothMap:
    """A smooth map from R^in_dim to R^out_dim.

    ``body`` receives a length-``in_dim`` array and returns a scalar (when
    ``out_dim == 1``), a length-``out_dim`` vector, or an array of shape
    ``out_shape`` when one was given (used for matrix- and tensor-valued
    coefficient functions; ``out_dim`` is then the product of the shape).
    Bodies must be pure and evaluable on dual-number object arrays.
    """

    in_dim: int
    out_dim: int
    body: Callable
    out_shape: tuple = field(default=None)
    name: str = ""

    def __post_init__(self):
        if self.in_dim < 0 or self.out_dim < 0:
            raise ValueError("dimensions must be nonnegative")
        if self.out_shape is None:
            object.__setattr__(self, "out_shape", (self.out_dim,))
        elif int(np.prod(self.out_shape)) != self.out_dim:
            raise ValueError(
                f"out_shape {self.out_shape} is incompatible with out_dim {self.out_dim}"
            )


class _ConstantBody:
    """The body of a constant_map; its type marks the map as constant."""

    def __init__(self, table):
        self.table = table

    def __call__(self, x):
        return self.table


def constant_map(in_dim, table, name=""):
    """The constant map from R^in_dim to a read-only float copy of ``table``."""
    const = np.array(table, dtype=float)
    const.setflags(write=False)
    return SmoothMap(
        in_dim, const.size, _ConstantBody(const), out_shape=const.shape, name=name
    )


def as_map(val, in_dim, shape, name):
    """``val`` as a map from R^in_dim to ``shape``: a map of that input
    dimension and shape passes through, a table of that size becomes its
    ``constant_map`` and None the zero map.  Anything else raises
    DimensionMismatch, naming the table ``name``."""
    if isinstance(val, SmoothMap):
        if (val.in_dim, val.out_shape) != (in_dim, shape):
            raise DimensionMismatch(
                f"{name} must map R^{in_dim} to shape {shape}, got "
                f"R^{val.in_dim} to {val.out_shape}"
            )
        return val
    table = np.zeros(shape) if val is None else val
    if np.size(table) != math.prod(shape):
        raise DimensionMismatch(
            f"{name} must be a table of shape {shape}, got {np.size(table)} entries"
        )
    return constant_map(in_dim, np.reshape(table, shape), name)


def _check_input(m, x):
    x = np.asarray(x)
    if x.shape != (m.in_dim,):
        raise DimensionMismatch(
            f"map {m.name or '<anonymous>'} expects input of length {m.in_dim}, "
            f"got shape {x.shape}"
        )
    return x


def _shape_output(m, y):
    y = np.asarray(y)
    if y.size != m.out_dim:
        raise DimensionMismatch(
            f"map {m.name or '<anonymous>'} returned {y.size} values, "
            f"expected {m.out_dim}"
        )
    return y.reshape(m.out_shape)


def eval_map(m: SmoothMap, x) -> np.ndarray:
    """Evaluate ``m`` at ``x``; the result has shape ``m.out_shape``."""
    x = _check_input(m, x)
    return _shape_output(m, m.body(x))


def jacobian(m: SmoothMap, x) -> np.ndarray:
    """Exact Jacobian of ``m`` at ``x``, shape (out_dim, in_dim).

    One dual-number pass per input direction, each with a scalar seed, so the
    result stays right when ``x`` holds duals or the body closes over the
    duals of an enclosing pass; its entries then carry the outer
    perturbations.  Each pass seeds only its own input (see
    ``_dual.directional``): an exact-zero entry may be +0.0 where seeding
    every input, with zero tangents, gave -0.0, and an entry scaled by a
    quotient of the other inputs may differ from it in the last bit.  Rows
    follow the C-order flattening of ``out_shape``.  A ``constant_map`` takes
    no pass: its Jacobian is the float +0.0 matrix the passes would give.
    """
    x = _check_input(m, np.asarray(x, dtype=object))
    if isinstance(m.body, _ConstantBody):
        return np.zeros((m.out_dim, m.in_dim))
    J = np.empty((m.out_dim, m.in_dim), dtype=object)
    for j, tan in enumerate(_dual._tangents(lambda z: _shape_output(m, m.body(z)), x)):
        J[:, j] = tan.reshape(m.out_dim)
    if _dual.contains_dual(J):
        return J
    return J.astype(float)


def fd_jacobian(m: SmoothMap, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian estimate, the derivative oracle.

    The step for direction j is ``h * (1 + |x_j|)``.  Accurate to O(h^2) on
    smooth bodies and exact (up to rounding) on affine ones.
    """
    if h <= 0:
        raise ValueError("finite-difference step must be positive")
    x = np.asarray(_check_input(m, x), dtype=float)
    J = np.zeros((m.out_dim, m.in_dim))
    for j in range(m.in_dim):
        step = h * (1.0 + abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += step
        xm[j] -= step
        fp = eval_map(m, xp).reshape(m.out_dim)
        fm = eval_map(m, xm).reshape(m.out_dim)
        J[:, j] = (fp.astype(float) - fm.astype(float)) / (2.0 * step)
    return J
