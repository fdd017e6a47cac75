"""Coordinate charts for bundles TQ + V with a Lie-algebra fiber.

The bundle data over a chart are three coefficient maps:

    Gamma(q)[i, a, b]   coefficient of e_a in the covariant derivative of
                        e_b along the i-th coordinate direction,
    c(q)[g, a, b]       coefficient of e_g in the fiber bracket [e_a, e_b],
    omega(q)[a, i, j]   coefficient of e_a in the two-form on the pair of
                        coordinate directions (i, j).

Derived operators (covariant derivative, curvature, the covariant exterior
derivative of the two-form, the section bracket) and a sampled checker for
the closure conditions that make the section bracket a Lie bracket live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ChartExit
from .smoothmap import SmoothMap, constant_map, eval_map, jacobian

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class ChartDomain:
    """A box chart; periodic coordinates identify their interval endpoints."""

    n: int
    bounds: np.ndarray = None
    periodic: np.ndarray = None

    def __post_init__(self):
        b = self.bounds
        if b is None:
            b = np.tile([-1.0, 1.0], (self.n, 1))
        b = np.asarray(b, dtype=float).reshape(self.n, 2)
        p = self.periodic
        if p is None:
            p = np.zeros(self.n, dtype=bool)
        p = np.asarray(p, dtype=bool).reshape(self.n)
        if self.n and np.any(b[:, 1] <= b[:, 0]):
            raise ValueError("each coordinate needs a nonempty interval")
        if np.any(p & ~np.isfinite(b).all(axis=1)):
            raise ValueError("periodic coordinates need finite bounds")
        object.__setattr__(self, "bounds", b)
        object.__setattr__(self, "periodic", p)

    def wrap(self, q):
        """Send periodic coordinates back into their fundamental interval."""
        q = np.array(q, dtype=float)
        p = self.periodic
        lo, hi = self.bounds[p].T
        q[p] = lo + np.mod(q[p] - lo, hi - lo)
        return q

    def contains(self, q):
        """Whether q lies in the box, up to a slack of 1e-12.  Periodic
        coordinates always count as inside, so q is not wrapped first."""
        q = np.asarray(q, dtype=float)
        lo, hi = self.bounds.T
        return not np.any(~self.periodic & ((q < lo - 1e-12) | (q > hi + 1e-12)))

    def require_inside(self, q, t=None):
        if not self.contains(q):
            # a list prints on one line, however long q is
            raise ChartExit(f"state left the chart at q={np.asarray(q, float).tolist()}", q=q, t=t)

    def sample(self, rng):
        """Uniform interior point; non-periodic coordinates keep a margin of
        5% of their interval at each end."""
        lo, hi = self.bounds.T
        pad = 0.05 * (hi - lo)
        p = self.periodic
        return rng.uniform(np.where(p, lo, lo + pad), np.where(p, hi, hi - pad), self.n)


@dataclass(frozen=True)
class LPBundleChart:
    """Bundle structure data over a chart.

    Any of the three coefficient maps may be passed as ``None`` (zero map) or
    as a constant ndarray of the right shape.
    """

    base: ChartDomain
    m: int
    Gamma: SmoothMap = None
    c: SmoothMap = None
    omega: SmoothMap = None

    def __post_init__(self):
        n, m = self.base.n, self.m
        for attr, shape in (
            ("Gamma", (n, m, m)),
            ("c", (m, m, m)),
            ("omega", (m, n, n)),
        ):
            val = getattr(self, attr)
            if val is None:
                val = constant_map(n, np.zeros(shape), attr)
            elif isinstance(val, np.ndarray):
                val = constant_map(n, np.reshape(val, shape), attr)
            elif val.out_shape != shape or val.in_dim != n:
                raise ValueError(
                    f"{attr} must map R^{n} to shape {shape}, got "
                    f"R^{val.in_dim} to {val.out_shape}"
                )
            object.__setattr__(self, attr, val)

    @property
    def n(self):
        return self.base.n

    def tables(self, q):
        """(Gamma, c, omega) evaluated at q: float arrays at a float point,
        object arrays at an object point, which may carry dual numbers.

        Over a point base (n = 0) the float tables are constants: they are
        evaluated once, on the first float read, and every float read returns
        the same read-only arrays.  Object points, and every base of
        dimension above 0, evaluate the maps at each read.
        """
        q = np.asarray(q)
        if self.n == 0 and q.shape == (0,) and q.dtype != object:
            return self._point_tables
        dtype = object if q.dtype == object else float
        return tuple(np.asarray(eval_map(M, q), dtype) for M in (self.Gamma, self.c, self.omega))

    @cached_property
    def _point_tables(self):
        # cached_property writes the instance __dict__, so it works on a
        # frozen dataclass and stays out of its fields, eq and hash
        out = tuple(
            np.array(eval_map(M, np.zeros(0)), float) for M in (self.Gamma, self.c, self.omega)
        )
        for arr in out:
            arr.setflags(write=False)
        return out


@dataclass(frozen=True)
class Section:
    """A section of the bundle: tangent part X and fiber part w."""

    X: SmoothMap
    w: SmoothMap

    @staticmethod
    def constant(bundle: LPBundleChart, X0, w0):
        n, m = bundle.n, bundle.m
        return Section(
            constant_map(n, np.reshape(X0, n), "X"),
            constant_map(n, np.reshape(w0, m), "w"),
        )


def covariant_derivative(b: LPBundleChart, X, w: Section, q):
    """(grad_X w)^a = X^i (d_i w^a + Gamma^a_{ib} w^b), evaluated at q.

    Dual-safe: both q and X may carry dual numbers.
    """
    q = np.asarray(q, dtype=object).reshape(b.n)
    return _covariant_derivative(b.tables(q)[0], X, eval_map(w.w, q), jacobian(w.w, q))


def _covariant_derivative(G, X, wv, Jw):
    """grad_X w from the value wv and the Jacobian Jw (m, n) of w."""
    X = np.asarray(X, dtype=object).reshape(len(G))
    out = Jw @ X
    for i in range(len(G)):
        out = out + X[i] * (G[i] @ wv)
    return out


def curvature(b: LPBundleChart, q):
    """Curvature tensor k[i, j, a, b] of the fiber connection, shape (n,n,m,m).

    k = dGamma skew part plus the commutator of the connection matrices;
    antisymmetric in (i, j).
    """
    n, m = b.n, b.m
    q = np.asarray(q, dtype=float)
    G = b.tables(q)[0]
    dG = np.asarray(jacobian(b.Gamma, q), dtype=float).reshape(n, m, m, n)
    return _curvature(G, dG)


def _curvature(G, dG):
    # dG[j,a,b,i] = d_i Gamma[j,a,b]
    t1 = np.einsum("jabi->ijab", dG)
    t2 = np.einsum("iabj->ijab", dG)
    t3 = np.einsum("iae,jeb->ijab", G, G)
    t4 = np.einsum("jae,ieb->ijab", G, G)
    # grouped so the (i, j) antisymmetry is exact in floating point
    return (t1 - t2) + (t3 - t4)


def ext_cov_derivative_omega(b: LPBundleChart, q):
    """Covariant exterior derivative of the two-form, shape (m, n, n, n).

    T[a, i, j, k] is the cyclic sum over (i, j, k) of
    d_i omega[a, j, k] + Gamma[i, a, b] omega[b, j, k]; coordinate fields
    commute, so no bracket terms appear.
    """
    n, m = b.n, b.m
    q = np.asarray(q, dtype=float)
    G, _, Om = b.tables(q)
    dOm = np.asarray(jacobian(b.omega, q), dtype=float).reshape(m, n, n, n)
    return _ext_cov_derivative_omega(G, Om, dOm)


def _ext_cov_derivative_omega(G, Om, dOm):
    # dOm[a,j,k,i] = d_i omega[a,j,k]
    term = np.einsum("ajki->aijk", dOm) + np.einsum("iab,bjk->aijk", G, Om)
    return (
        term
        + np.einsum("ajki->aijk", term)
        + np.einsum("akij->aijk", term)
    )


def _section_jet(Z: Section, q):
    """(X, dX, w, dw) of the section Z at q: values and Jacobians."""
    return eval_map(Z.X, q), jacobian(Z.X, q), eval_map(Z.w, q), jacobian(Z.w, q)


def _bracket(G, C, Om, Z1, Z2):
    """The section bracket at one point, from the tables there and each
    section's (X, dX, w, dw) there."""
    X1, J1, w1, Jw1 = Z1
    X2, J2, w2, Jw2 = Z2
    base = J2 @ X1 - J1 @ X2
    fiber = _covariant_derivative(G, X1, w2, Jw2) - _covariant_derivative(G, X2, w1, Jw1)
    for a in range(len(fiber)):
        fiber[a] = fiber[a] - np.dot(X1, np.dot(Om[a], X2)) + np.dot(w1, np.dot(C[a], w2))
    return base, fiber


def section_bracket(b: LPBundleChart, Z1: Section, Z2: Section, q):
    """Bracket of two sections at q: (tangent part, fiber part).

    Tangent part is the Jacobi-Lie bracket of the X fields; fiber part is
    grad_{X1} w2 - grad_{X2} w1 - omega(X1, X2) + [w1, w2].  Dual-safe.
    """
    q = np.asarray(q, dtype=object).reshape(b.n)
    G, C, Om = b.tables(q)  # object tables: a float-matrix/dual-vector dot is unsafe
    return _bracket(G, C, Om, _section_jet(Z1, q), _section_jet(Z2, q))


def bracket_section(b: LPBundleChart, Z1: Section, Z2: Section) -> Section:
    """The bracket of two sections, packaged as a section (for nesting)."""

    def x_body(q):
        return section_bracket(b, Z1, Z2, q)[0]

    def w_body(q):
        return section_bracket(b, Z1, Z2, q)[1]

    n, m = b.n, b.m
    return Section(
        SmoothMap(n, n, x_body, out_shape=(n,)),
        SmoothMap(n, m, w_body, out_shape=(m,)),
    )


def jacobi_residual(b: LPBundleChart, Z1, Z2, Z3, q):
    """Norm of the cyclic sum of nested section brackets at q.

    The inner bracket of each cyclic term goes through one fused map, so
    a single jacobian sweep serves both its tangent and fiber parts; the
    outer bracket is the section bracket's formula on that value and
    Jacobian.
    """
    n, m = b.n, b.m
    qf = np.asarray(q, dtype=float).reshape(n)
    G, C, Om = b.tables(qf)

    total = np.zeros(n + m)
    for A, B_, C_ in ((Z1, Z2, Z3), (Z2, Z3, Z1), (Z3, Z1, Z2)):

        def fused(qq, ZB=B_, ZC=C_):
            return np.concatenate(section_bracket(b, ZB, ZC, qq))

        fm = SmoothMap(n, n + m, fused, out_shape=(n + m,))
        val = np.asarray(eval_map(fm, qf), dtype=float)
        Jin = np.asarray(jacobian(fm, qf), dtype=float)
        inner = (val[:n], Jin[:n], val[n:], Jin[n:])
        outer = _bracket(G, C, Om, _section_jet(A, qf), inner)
        total += np.concatenate(outer).astype(float)
    return float(np.linalg.norm(total))


@dataclass
class ConditionResult:
    name: str
    max_residual: float
    worst_point: np.ndarray
    scale: float
    passed: bool


@dataclass
class AxiomReport:
    conditions: list
    tol: float
    n_samples: int
    seed: int

    @property
    def passed(self):
        return all(c.passed for c in self.conditions)

    def condition(self, name):
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def as_text(self):
        lines = [
            f"closure check: {self.n_samples} samples, seed {self.seed}, tol {self.tol:g}",
            f"{'condition':<24}{'max residual':>14}{'scale':>12}  worst point",
        ]
        for c in self.conditions:
            pt = "[" + ", ".join(f"{v:.4g}" for v in np.atleast_1d(c.worst_point)) + "]"
            lines.append(
                f"{c.name:<24}{c.max_residual:>14.3e}{c.scale:>12.3e}  {pt}"
                + ("" if c.passed else "  FAIL")
            )
        lines.append("result: " + ("pass" if self.passed else "FAIL"))
        return "\n".join(lines)

    def as_dict(self):
        return {
            "tol": self.tol,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "passed": bool(self.passed),
            "conditions": [
                {
                    "name": c.name,
                    "max_residual": float(c.max_residual),
                    "scale": float(c.scale),
                    "worst_point": [float(v) for v in np.atleast_1d(c.worst_point)],
                    "passed": bool(c.passed),
                }
                for c in self.conditions
            ],
        }


def _max_abs(*tensors):
    """Largest absolute entry over all tensors; NaN if any entry is NaN."""
    vals = [np.max(np.abs(t)) if np.size(t) else 0.0 for t in tensors]
    # max() drops a NaN that is not first; the values are nonnegative, so
    # their sum is NaN exactly when one of them is
    if len(vals) > 1 and math.isnan(sum(vals)):
        return math.nan
    return float(max(vals)) if vals else 0.0


def _algebra_defects(c):
    """(skew, jacobi, cyc) of bracket constants c[g, a, b]: the antisymmetry
    defect, the Jacobi defect, and the cyclic term the Jacobi defect sums."""
    cyc = np.einsum("deg,eab->dabg", c, c)
    jac = cyc + np.einsum("dabg->dbga", cyc) + np.einsum("dabg->dgab", cyc)
    return c + np.einsum("gab->gba", c), jac, cyc


def check_axioms(
    b: LPBundleChart, n_samples: int = 100, seed: int = 0, tol: float = DEFAULT_TOL
) -> AxiomReport:
    """Sampled check of the conditions making the section bracket a Lie bracket.

    Conditions reported:
        c_skew                  fiber bracket antisymmetry
        c_jacobi                fiberwise Jacobi identity
        omega_skew              two-form antisymmetry
        d_two_form_closed       covariant exterior derivative of omega vanishes
        e_bracket_parallel      covariant derivative is a bracket derivation
        f_curvature_coupling    connection curvature equals -c(omega, .)

    Residuals are compared against tol * (1 + scale) with scale the largest
    magnitude among the terms entering each identity.  The worst point is
    the last sample attaining the largest residual.  A non-finite residual
    or scale fails its condition and is reported with the first sample
    giving one, and that sample's residual and scale.  Deterministic
    for a fixed seed.  On a point base the one point is evaluated once and
    stands for all n_samples.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample point")
    rng = np.random.default_rng(seed)
    n, m = b.n, b.m
    rows, points = [], []  # per sample, each condition's (residual, scale)

    # a point base (n = 0) has one point, and every sample would repeat it
    for _ in range(n_samples if n else 1):
        q = b.base.sample(rng)
        G, C, Om = b.tables(q)
        skew, jac, cyc = _algebra_defects(C)

        dOm = np.asarray(jacobian(b.omega, q), dtype=float).reshape(m, n, n, n)

        dC = np.asarray(jacobian(b.c, q), dtype=float).reshape(m, m, m, n)
        # dC[g,a,b,i] = d_i c[g,a,b]
        tGc = np.einsum("ige,eab->giab", G, C)
        tcG1 = np.einsum("geb,iea->giab", C, G)
        tcG2 = np.einsum("gae,ieb->giab", C, G)
        eres = np.einsum("gabi->giab", dC) + tGc - tcG1 - tcG2

        dG = np.asarray(jacobian(b.Gamma, q), dtype=float).reshape(n, m, m, n)
        k = _curvature(G, dG)
        rhs = -np.einsum("agb,gij->ijab", C, Om)

        rows.append(
            {
                "c_skew": (_max_abs(skew), _max_abs(C)),
                "c_jacobi": (_max_abs(jac), _max_abs(cyc)),
                "omega_skew": (_max_abs(Om + np.einsum("aij->aji", Om)), _max_abs(Om)),
                "d_two_form_closed": (
                    _max_abs(_ext_cov_derivative_omega(G, Om, dOm)),
                    _max_abs(dOm, np.einsum("iab,bjk->aijk", G, Om)),
                ),
                "e_bracket_parallel": (_max_abs(eres), _max_abs(dC, tGc, tcG1, tcG2)),
                "f_curvature_coupling": (_max_abs(k - rhs), _max_abs(k, rhs)),
            }
        )
        points.append(q)

    conditions = []
    for name in rows[0]:
        resid, scale = np.array([row[name] for row in rows]).T
        bad = ~(np.isfinite(resid) & np.isfinite(scale))
        if bad.any():
            i = int(np.argmax(bad))
            r, s = float(resid[i]), float(scale[i])
        else:
            i = len(resid) - 1 - int(np.argmax(resid[::-1]))
            r, s = float(resid[i]), float(np.max(scale))
        passed = math.isfinite(r) and math.isfinite(s) and r <= tol * (1.0 + s)
        conditions.append(ConditionResult(name, r, points[i], s, passed))
    return AxiomReport(conditions, tol, n_samples, seed)
