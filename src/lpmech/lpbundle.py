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

from .errors import ChartExit, DimensionMismatch
from .smoothmap import SmoothMap, _ConstantBody, as_map, constant_map, eval_map, jacobian

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
        lo, hi = b.T
        if not (lo < hi).all():  # a NaN bound fails too
            raise ValueError("each coordinate needs a nonempty interval")
        if np.any(p & ~np.isfinite(b).all(axis=1)):
            raise ValueError("periodic coordinates need finite bounds")
        object.__setattr__(self, "bounds", b)
        object.__setattr__(self, "periodic", p)
        # the slack box of contains, open on periodic coordinates; the index,
        # lower bound and span that wrap reads; the box that sample draws from
        box = (np.where(p, -np.inf, lo - 1e-12), np.where(p, np.inf, hi + 1e-12))
        pad = 0.05 * (hi - lo)
        inner = (np.where(p, lo, lo + pad), np.where(p, hi, hi - pad))
        object.__setattr__(self, "_box", box)
        object.__setattr__(self, "_wrap", (p.nonzero()[0], lo[p], hi[p] - lo[p]))
        object.__setattr__(self, "_interior", inner)

    def wrap(self, q):
        """Send periodic coordinates back into their fundamental interval."""
        q = np.array(q, dtype=float)
        idx, lo, span = self._wrap
        q[idx] = lo + np.mod(q[idx] - lo, span)
        return q

    def contains(self, q):
        """Whether q lies in the box, up to a slack of 1e-12.  Periodic
        coordinates always count as inside, so q is not wrapped first.  A q
        whose length is not n raises DimensionMismatch."""
        q = np.asarray(q, dtype=float)
        if q.shape != (self.n,):
            raise DimensionMismatch(
                f"chart point must have length {self.n}, got shape {q.shape}"
            )
        lo, hi = self._box
        return not ((q < lo) | (q > hi)).any()

    def require_inside(self, q, t=None):
        if not self.contains(q):
            q = np.array(q, dtype=float)  # a copy: callers may pass a view
            # a list prints on one line, however long q is
            raise ChartExit(f"state left the chart at q={q.tolist()}", q=q, t=t)

    def sample(self, rng):
        """Uniform interior point; non-periodic coordinates keep a margin of
        5% of their interval at each end."""
        return rng.uniform(*self._interior, self.n)


def table_shapes(n, m):
    """(name, shape) of each structure table over n base and m fiber dimensions."""
    return (("Gamma", (n, m, m)), ("c", (m, m, m)), ("omega", (m, n, n)))


def _table_jacobian(M: SmoothMap, q):
    """Float Jacobian of a table map at q, the derivative direction last."""
    return np.asarray(jacobian(M, q), dtype=float).reshape(M.out_shape + (M.in_dim,))


@dataclass(frozen=True)
class LPBundleChart:
    """Bundle structure data over a chart.

    Any of the three coefficient maps may be passed as ``None`` (zero map) or
    as a constant table of the right size; a table or map of another size,
    shape or input dimension is a DimensionMismatch (``smoothmap.as_map``).
    """

    base: ChartDomain
    m: int
    Gamma: SmoothMap = None
    c: SmoothMap = None
    omega: SmoothMap = None

    def __post_init__(self):
        for attr, shape in table_shapes(self.base.n, self.m):
            object.__setattr__(self, attr, as_map(getattr(self, attr), self.base.n, shape, attr))

    @property
    def n(self):
        return self.base.n

    def tables(self, q):
        """(Gamma, c, omega) evaluated at q: float arrays at a float point,
        object arrays at an object point, which may carry dual numbers.

        Each map from ``constant_map``, and over a point base (n = 0) every
        map, is evaluated once, on the first float read; every float read
        returns that same read-only array for it and evaluates only the
        other maps.  Object points evaluate all three maps at each read.
        """
        q = np.asarray(q)
        maps = (self.Gamma, self.c, self.omega)
        if q.dtype != object and q.shape == (self.n,):
            fixed, complete = self._fixed_tables
            if complete:
                return fixed
            return tuple(
                np.asarray(eval_map(M, q), float) if T is None else T
                for M, T in zip(maps, fixed)
            )
        dtype = object if q.dtype == object else float
        return tuple(np.asarray(eval_map(M, q), dtype) for M in maps)

    @cached_property
    def _fixed_tables(self):
        # per map, its read-only float table if it does not depend on q, else
        # None, and whether every map has one; kept in the instance __dict__,
        # out of the frozen fields, eq and hash
        fixed = []
        for M in (self.Gamma, self.c, self.omega):
            T = None
            if not self.n or isinstance(M.body, _ConstantBody):
                T = np.array(eval_map(M, np.zeros(self.n)), float)
                T.setflags(write=False)
            fixed.append(T)
        return tuple(fixed), all(T is not None for T in fixed)


def transport(b: LPBundleChart, T, Tinv) -> LPBundleChart:
    """The chart of b in the fiber coordinates w', where w = T(q) w':
    Gamma'_i = Tinv (Gamma_i T + d_i T), omega' = Tinv omega, c'[p, a, b] =
    Tinv[p, r] c[r, s, t] T[s, a] T[t, b].  T and Tinv are (m, m) arrays or
    maps from R^n to (m, m); Tinv is not computed, so a dual q passes."""
    n, m = b.n, b.m
    T, Tinv = as_map(T, n, (m, m), "T"), as_map(Tinv, n, (m, m), "Tinv")

    def gamma(q):
        dT = np.moveaxis(np.reshape(jacobian(T, q), (m, m, n)), -1, 0)
        return eval_map(Tinv, q) @ (eval_map(b.Gamma, q) @ eval_map(T, q) + dT)

    def c(q):
        Tq = eval_map(T, q)
        return np.einsum("pr,rst,sa,tb->pab", eval_map(Tinv, q), eval_map(b.c, q), Tq, Tq)

    def omega(q):
        return np.einsum("pa,aij->pij", eval_map(Tinv, q), eval_map(b.omega, q))

    bodies = zip((gamma, c, omega), table_shapes(n, m))
    return LPBundleChart(b.base, m, *(SmoothMap(n, math.prod(s), f, s, k) for f, (k, s) in bodies))


def shift(b: LPBundleChart, S) -> LPBundleChart:
    """The chart of b in the fiber coordinates v', where v = v' + S(q) qdot
    for S an (m, n) table or a map from R^n to (m, n), with columns S_i:
    Gamma'_i = Gamma_i + c(., S_i, .), c' = c and omega'_ij = omega_ij
    - (d_i S_j - d_j S_i + Gamma_i S_j - Gamma_j S_i) - c(S_i, S_j).  The
    sums run over the rows of S in order and skip each term with a factor
    that holds no nonzero or dual entry; the c(S_i, S_j) terms go one row
    pair (g, h) at a time."""
    n, m = b.n, b.m
    S = as_map(S, n, (m, n), "S")

    def live(T, axis):  # a dual is != 0
        return np.asarray(T != 0).any(axis=axis)

    def gamma(q):
        Sq, C, out = eval_map(S, q), eval_map(b.c, q), eval_map(b.Gamma, q)
        for s in np.flatnonzero(live(Sq, 1) & live(C, (0, 2))):
            out = out + C[:, s, :] * Sq[s][:, None, None]
        return out

    def omega(q):
        Sq, G, C = eval_map(S, q), eval_map(b.Gamma, q), eval_map(b.c, q)
        dS = np.reshape(jacobian(S, q), (m, n, n))  # dS[a, j, i] = d_i S[a, j]
        rows = live(Sq, 1)
        K = dS.transpose(0, 2, 1)  # K[a, i, j] = d_i S[a, j] + (Gamma_i S_j)^a
        for s in np.flatnonzero(rows & live(G, (0, 1))):
            K = K + G[:, :, s].T[:, :, None] * Sq[s]
        out = eval_map(b.omega, q) - (K - K.transpose(0, 2, 1))
        for g, h in np.argwhere(rows[:, None] & rows & live(C, 0)):
            out = out - C[:, g, h][:, None, None] * Sq[g][:, None] * Sq[h]
        return out

    Gamma = SmoothMap(n, n * m * m, gamma, (n, m, m), "Gamma")
    return LPBundleChart(b.base, m, Gamma, b.c, SmoothMap(n, m * n * n, omega, (m, n, n), "omega"))


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
    q = np.asarray(q, dtype=float)
    return _curvature(b.tables(q)[0], _table_jacobian(b.Gamma, q))


def _curvature(G, dG):
    # dG[j,a,b,i] = d_i Gamma[j,a,b]; leading axes, if any, index samples
    t1 = np.einsum("...jabi->...ijab", dG)
    t2 = np.einsum("...iabj->...ijab", dG)
    t3 = np.einsum("...iae,...jeb->...ijab", G, G)
    t4 = np.einsum("...jae,...ieb->...ijab", G, G)
    # grouped so the (i, j) antisymmetry is exact in floating point
    return (t1 - t2) + (t3 - t4)


def ext_cov_derivative_omega(b: LPBundleChart, q):
    """Covariant exterior derivative of the two-form, shape (m, n, n, n).

    T[a, i, j, k] is the cyclic sum over (i, j, k) of
    d_i omega[a, j, k] + Gamma[i, a, b] omega[b, j, k]; coordinate fields
    commute, so no bracket terms appear.
    """
    q = np.asarray(q, dtype=float)
    G, _, Om = b.tables(q)
    return _ext_cov_derivative_omega(G, Om, _table_jacobian(b.omega, q))[0]


def _ext_cov_derivative_omega(G, Om, dOm):
    # dOm[a,j,k,i] = d_i omega[a,j,k]; leading axes, if any, index samples;
    # returns the derivative and its term Gamma[i,a,b] omega[b,j,k]
    conn = np.einsum("...iab,...bjk->...aijk", G, Om)
    term = np.einsum("...ajki->...aijk", dOm) + conn
    return (
        term
        + np.einsum("...ajki->...aijk", term)
        + np.einsum("...akij->...aijk", term)
    ), conn


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


def _max_abs_rows(*tensors):
    """Largest absolute entry per sample (the leading axis) over all tensors:
    NaN where any entry is NaN (max and np.maximum keep it), 0.0 where none."""
    out = 0.0
    for t in tensors:
        out = np.maximum(out, np.abs(t).reshape(len(t), -1).max(axis=1, initial=0.0))
    return out


def _max_abs(*tensors):
    """Largest absolute entry over all tensors; NaN if any entry is NaN."""
    return float(np.max(_max_abs_rows(*(np.reshape(t, (1, -1)) for t in tensors))))


def _algebra_defects(c):
    """(skew, jacobi, cyc) of bracket constants c[g, a, b]: the antisymmetry
    defect, the Jacobi defect, and the cyclic term the Jacobi defect sums.
    Leading axes of c, if any, index samples."""
    cyc = np.einsum("...deg,...eab->...dabg", c, c)
    jac = cyc + np.einsum("...dabg->...dbga", cyc) + np.einsum("...dabg->...dgab", cyc)
    return c + np.einsum("...gab->...gba", c), jac, cyc


def _block_size(n, m):
    # samples per block of check_axioms, at least one: about 1 MB of
    # temporaries at eight float tensors of each condition's size per sample
    # (five to seven at the measured peak)
    return max(1, 2**20 // max(1, 64 * (m**4 + n * m**3 + n * n * m * m + m * n**3)))


def _condition_rows(G, C, Om, dG, dC, dOm):
    """Each condition's (residual, scale) per sample, from the tables and
    table Jacobians of a block of samples, stacked along a leading axis."""
    skew, jac, cyc = _algebra_defects(C)
    # dC[g,a,b,i] = d_i c[g,a,b]
    tGc = np.einsum("...ige,...eab->...giab", G, C)
    tcG1 = np.einsum("...geb,...iea->...giab", C, G)
    tcG2 = np.einsum("...gae,...ieb->...giab", C, G)
    eres = np.einsum("...gabi->...giab", dC) + tGc - tcG1 - tcG2
    dtf, conn = _ext_cov_derivative_omega(G, Om, dOm)
    k = _curvature(G, dG)
    rhs = -np.einsum("...agb,...gij->...ijab", C, Om)
    return {
        "c_skew": (_max_abs_rows(skew), _max_abs_rows(C)),
        "c_jacobi": (_max_abs_rows(jac), _max_abs_rows(cyc)),
        "omega_skew": (_max_abs_rows(Om + np.einsum("...aij->...aji", Om)), _max_abs_rows(Om)),
        "d_two_form_closed": (_max_abs_rows(dtf), _max_abs_rows(dOm, conn)),
        "e_bracket_parallel": (_max_abs_rows(eres), _max_abs_rows(dC, tGc, tcG1, tcG2)),
        "f_curvature_coupling": (_max_abs_rows(k - rhs), _max_abs_rows(k, rhs)),
    }


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

    The tables and their Jacobians are read one sample at a time, and the
    conditions are evaluated per block of samples, as many as fit a fixed
    memory budget at the chart's n and m: memory does not grow with n_samples.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample point")
    rng = np.random.default_rng(seed)
    # a point base (n = 0) has one point, and every sample would repeat it
    count = n_samples if b.n else 1
    block = _block_size(b.n, b.m)
    points, blocks = [], []  # per block, each condition's (residual, scale) rows
    for start in range(0, count, block):
        tensors = []
        for _ in range(min(block, count - start)):
            q = b.base.sample(rng)
            jacs = tuple(_table_jacobian(M, q) for M in (b.Gamma, b.c, b.omega))
            tensors.append(b.tables(q) + jacs)
            points.append(q)
        blocks.append(_condition_rows(*map(np.stack, zip(*tensors))))

    conditions = []
    for name in blocks[0]:
        resid, scale = (np.concatenate(part) for part in zip(*(rows[name] for rows in blocks)))
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
