"""Matrix Lie groups with a fixed algebra basis.

A group is described by its matrix size, a basis of the algebra as matrices,
an exponential map, an inverse, and structure constants in the layout
c[g, a, b] = coefficient of basis[g] in [basis[a], basis[b]].  The
exponential maps and the catalog's inverses accept dual-number entries so
group-valued expressions can be differentiated.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from . import _dual
from .errors import DimensionMismatch


@dataclass(frozen=True)
class MatrixLieGroup:
    """A matrix group with chosen algebra basis.

    ``exp_body`` takes algebra coefficients to a group matrix, and
    ``inverse_body`` a group matrix to its inverse (LAPACK's when a group
    gives none, which takes float input only).

    On dual (object) input, ``hat`` and ``unhat`` sum only over the exact
    nonzero pattern of ``basis`` and of its pseudo-inverse, in the order of
    numpy's dense object product.  On finite input each entry equals the
    dense sum, up to the sign of an exact zero.  Float input takes the dense
    product.
    """

    name: str
    mat_dim: int
    basis: np.ndarray  # (dim, mat_dim, mat_dim)
    exp_body: callable
    check_body: callable = None
    inverse_body: callable = np.linalg.inv

    def __post_init__(self):
        # derived once: unhat is a product with the basis pseudo-inverse,
        # and dual input skips the exact zeros of both matrices
        flat_basis = self.basis.reshape(self.dim, -1).T
        object.__setattr__(self, "_pinv", np.linalg.pinv(flat_basis))
        object.__setattr__(self, "_hat_terms", _nonzero_terms(flat_basis))
        object.__setattr__(self, "_unhat_terms", _nonzero_terms(self._pinv))

    @property
    def dim(self):
        return self.basis.shape[0]

    def hat(self, xi):
        """Coefficients to algebra matrix: sum_a xi[a] basis[a]."""
        xi = np.asarray(xi)
        if xi.shape != (self.dim,):
            raise DimensionMismatch(
                f"{self.name}: expected {self.dim} coefficients, got {xi.shape}"
            )
        if xi.dtype != object:
            return np.tensordot(xi, self.basis, axes=1)
        out = _sparse_sum(self._hat_terms, xi.tolist())
        return out.reshape(self.basis.shape[1:])

    def unhat(self, M):
        """Algebra matrix back to coefficients (least squares in the basis).

        The solve is linear, so dual-valued matrices keep their dual parts.
        """
        M = np.asarray(M).ravel()
        if M.size != self._pinv.shape[1]:
            raise DimensionMismatch(f"{self.name}: expected a {self.mat_dim}x{self.mat_dim} matrix")
        if M.dtype != object:
            return self._pinv @ M
        return _sparse_sum(self._unhat_terms, M.tolist())

    def unhat_product(self, a, b, idx):
        """``unhat(a @ b)[idx]``, forming on dual input only the entries of
        the product that the coordinates ``idx`` read; each is numpy's ordered
        object dot product, as in ``a @ b``."""
        if np.result_type(a, b) != object:
            return self.unhat(a @ b)[list(idx)]
        n, terms = self.mat_dim, [self._unhat_terms[i] for i in idx]
        rows = sorted({j // n for row in terms for j, _ in row})
        cols = sorted({j % n for row in terms for j, _ in row})
        block = (a[rows] @ b[:, cols]).tolist()
        prod = {r * n + c: v for r, line in zip(rows, block) for c, v in zip(cols, line)}
        return _sparse_sum(terms, prod)

    def exp(self, xi):
        """Group element from algebra coefficients; dual entries pass through."""
        xi = np.asarray(xi)
        if xi.shape != (self.dim,):
            raise DimensionMismatch(
                f"{self.name}: expected {self.dim} coefficients, got {xi.shape}"
            )
        return self.exp_body(xi)

    def is_element(self, g):
        """Whether g is a group matrix, up to a tolerance of 1e-8."""
        g = np.asarray(g, dtype=float)
        if g.shape != (self.mat_dim, self.mat_dim):
            return False
        if self.check_body is None:
            return True
        return bool(self.check_body(g, 1e-8))

    def inverse(self, g):
        """g^-1; dual entries pass through where the group gives its inverse."""
        return self.inverse_body(np.asarray(g))

    def inverse_times(self, g, M):
        """g^-1 M as an object array.

        At the identity, float or object without duals, M comes back as is:
        the product would only add 1.0 * M[i, j] to zero products, and
        1.0 * x is x bit for bit.  A g with a dual entry never equals the
        identity, since Dual defines no __eq__.
        """
        M = np.asarray(M, dtype=object)
        g = np.asarray(g)
        if np.array_equal(g, np.eye(len(g))):
            return M
        return self.inverse(g) @ M


def _nonzero_terms(coeffs):
    """Per row of ``coeffs``, its (column, value) pairs with value != 0: exact,
    so tiny entries such as so(3)'s 6.3e-17 in the pseudo-inverse stay."""
    return [[(j, v) for j, v in enumerate(row) if v != 0] for row in coeffs.tolist()]


def _sparse_sum(terms, xs):
    """Object vector of sum_j xs[j] * v over each row's (j, v) terms.

    The first product starts the sum and the rest are added in column
    order, as numpy's object dot does; a row without terms gives 0.0.
    """
    out = np.empty(len(terms), dtype=object)
    for o, row in enumerate(terms):
        prods = [xs[j] * v for j, v in row]
        out[o] = functools.reduce(operator.add, prods) if prods else 0.0
    return out


def structure_constants(group: MatrixLieGroup):
    """c[g, a, b] with [basis[a], basis[b]] = sum_g c[g,a,b] basis[g].

    Raises ValueError when a commutator leaves the basis span by more
    than 1e-10.
    """
    k = group.dim
    flat_basis = group.basis.reshape(k, -1).T  # (mat^2, k)
    c = np.zeros((k, k, k))
    for a in range(k):
        for b in range(k):
            comm = group.basis[a] @ group.basis[b] - group.basis[b] @ group.basis[a]
            coeff, res, *_ = np.linalg.lstsq(flat_basis, comm.ravel(), rcond=None)
            recon = flat_basis @ coeff
            if np.max(np.abs(recon - comm.ravel())) > 1e-10:
                raise ValueError(
                    f"{group.name}: commutator of basis {a},{b} leaves the span"
                )
            c[:, a, b] = coeff
    return c


def Ad(group: MatrixLieGroup, g, ginv, idx):
    """The ``(idx, idx)`` block of the adjoint action matrix: column j holds
    the coefficients ``idx`` of g basis[idx[j]] g^-1, formed only where they
    read it.  The caller passes g^-1, so g may hold dual entries."""
    return np.array([group.unhat_product(g @ group.basis[q], ginv, idx) for q in idx]).T


# ---------------------------------------------------------------------------
# rotation group


def _so3_hat(v):
    dt = object if np.asarray(v).dtype == object else float
    out = np.zeros((3, 3), dtype=dt)
    out[0, 1], out[0, 2] = -v[2], v[1]
    out[1, 0], out[1, 2] = v[2], -v[0]
    out[2, 0], out[2, 1] = -v[1], v[0]
    return out


def _so3_exp(xi):
    th2 = xi[0] * xi[0] + xi[1] * xi[1] + xi[2] * xi[2]
    K = _so3_hat(xi)
    K2 = K @ K
    if _dual.real_part(th2) < 1e-8:
        # series in theta^2; keeps full accuracy (and dual parts) near zero
        A = 1.0 - th2 / 6.0 + th2 * th2 / 120.0
        B = 0.5 - th2 / 24.0 + th2 * th2 / 720.0
    else:
        th = _dual.sqrt(th2)
        A = _dual.sin(th) / th
        B = (1.0 - _dual.cos(th)) / th2
    return np.eye(3) + A * K + B * K2


def _so3_check(g, tol):
    return (
        np.max(np.abs(g.T @ g - np.eye(3))) <= tol
        and abs(np.linalg.det(g) - 1.0) <= tol
    )


def so3():
    basis = np.array([_so3_hat(e) for e in np.eye(3)])
    return MatrixLieGroup("so3", 3, basis, _so3_exp, _so3_check, np.transpose)


# ---------------------------------------------------------------------------
# unitriangular groups: Heisenberg family and translations


def _unitriangular_inverse(g):
    """Inverse of I + N with N nilpotent, as a finite Neumann sum."""
    n = g.shape[0]
    eye = np.eye(n, dtype=object)
    N = np.asarray(g, dtype=object) - eye
    out = eye.copy()
    power = eye.copy()
    sign = -1.0
    for _ in range(n - 1):
        power = power @ N
        out = out + sign * power
        sign = -sign
    return out


# 4x4 upper unitriangular matrices carrying coordinates (x, y, z) in slots
# (0,1) = coupling*x, (1,2) = y, (0,2) = z (plus the exp correction), and a
# spare decoupled slot (0,3) = x that keeps the representation faithful when
# coupling = 0.  The only bracket is [e_x, e_y] = coupling * e_z, so the
# coupling knob interpolates between the Heisenberg group and plain R^3.


def heisenberg3(coupling=1.0):
    s = float(coupling)

    def E(i, j, v=1.0):
        M = np.zeros((4, 4))
        M[i, j] = v
        return M

    basis = np.array([E(0, 1, s) + E(0, 3), E(1, 2), E(0, 2)])

    def exp_body(xi):
        x, y, z = xi[0], xi[1], xi[2]
        dt = object if np.asarray(xi).dtype == object else float
        g = np.eye(4, dtype=dt)
        g[0, 1] = s * x
        g[1, 2] = y
        g[0, 2] = z + s * x * y / 2.0
        g[0, 3] = x
        return g

    def check_body(g, tol):
        x = g[0, 3]
        y = g[1, 2]
        z = g[0, 2] - s * x * y / 2.0
        return np.max(np.abs(g - exp_body(np.array([x, y, z])))) <= tol

    return MatrixLieGroup(
        f"heisenberg3(c={s:g})", 4, basis, exp_body, check_body, _unitriangular_inverse
    )


def abelian(k):
    """R^k as (k+1)x(k+1) upper unitriangular translation matrices."""
    basis = np.zeros((k, k + 1, k + 1))
    for a in range(k):
        basis[a, a, k] = 1.0

    def exp_body(xi):
        dt = object if np.asarray(xi).dtype == object else float
        g = np.eye(k + 1, dtype=dt)
        for a in range(k):
            g[a, k] = xi[a]
        return g

    def check_body(g, tol):
        expect = np.eye(k + 1)
        mask = np.ones((k + 1, k + 1), dtype=bool)
        mask[:k, k] = False
        return np.max(np.abs((g - expect)[mask])) <= tol

    return MatrixLieGroup(
        f"abelian({k})", k + 1, basis, exp_body, check_body, _unitriangular_inverse
    )
