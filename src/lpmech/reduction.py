"""Reduction of trivialized principal-bundle systems to bundle charts.

A scenario is a trivialized bundle Q = B x G with a local connection form,
a linear G-action on a vector fiber W and the W-valued two-form of W as a
bundle over B x G; W is empty and the forms are zero unless given.  From
this the module builds the reduced bundle chart over B with fiber
(algebra + W), reduces invariant Lagrangians, projects trajectories, and
performs two-stage reduction through an abelian normal subgroup N with
abelian quotient K.  One construction serves both stages: stage 1 reduces
by N itself, in G's matrices, and stage 2 the stage-1 bundle by K.

Conventions: the group acts on the left, h.(x, g) = (x, h g); reduced
fiber coordinates are the body values xi = coords(g^-1 gdot) + A(x) xdot
and a = rho(g^-1) w.  The reduced chart of a connection A is the chart of
the zero connection in the fiber coordinates xi, by ``lpbundle.shift``
with S = -[A^T; 0], which states the law once; the axiom checker runs on
every build as a hard gate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import _dual
from .errors import (
    AxiomViolation,
    DimensionMismatch,
    InvarianceViolation,
    NotNormal,
    NotSupported,
)
from .dynamics import (
    LPLagrangian,
    LPState,
    Trajectory,
    _jet,
)
from .lpbundle import (
    ChartDomain, LPBundleChart, _max_abs, check_axioms, shift, table_shapes, transport
)
from .liegroups import Ad, MatrixLieGroup, _embed, abelian, restrict, structure_constants
from .smoothmap import SmoothMap, _ConstantBody, as_map, eval_map, jacobian

# invariance sampling in reduce_lagrangian
INVARIANCE_SAMPLES = 25
INVARIANCE_TOL = 1e-10
# sample points comparing the two-stage and direct structure in stages_reduce
STAGES_SAMPLES = 40


@dataclass(frozen=True)
class RepW:
    """Linear G-action on an auxiliary fiber W.

    ``gen[a]`` is the infinitesimal generator of the a-th algebra basis
    vector; ``rho`` maps a group matrix to the W-matrix it acts by.
    """

    dim_w: int
    gen: np.ndarray
    rho: callable

    def __post_init__(self):
        g = np.asarray(self.gen, dtype=float)
        if g.ndim != 3 or g.shape[1:] != (self.dim_w, self.dim_w):
            raise DimensionMismatch("generator stack must be (k, w, w)")
        object.__setattr__(self, "gen", g)


def defining_representation(G: MatrixLieGroup) -> RepW:
    """The group acting on column vectors by its own matrices."""
    return RepW(G.mat_dim, np.stack([np.asarray(b, float) for b in G.basis]), lambda g: g)


def trivial_representation(G: MatrixLieGroup, dim_w: int) -> RepW:
    k = len(G.basis)
    return RepW(dim_w, np.zeros((k, dim_w, dim_w)), lambda g: np.eye(dim_w))


@dataclass(frozen=True)
class PrincipalScenario:
    """Trivialized bundle data: base chart, group, connection, fiber W and
    its two-form.

    ``A`` maps a base point to the (d, k) table of algebra coordinates of
    the local connection form; row i is the value on the i-th coordinate
    direction.  ``repW`` is the G-action on W; ``two_form`` maps (x, group
    coordinates) to the W-valued two-form, shape (w, d + k, d + k), of W as
    an LP bundle over B x G with zero bracket and connection.  ``A`` and
    ``two_form`` may also be constant tables (``smoothmap.as_map``); None
    means the zero form, and for ``repW`` the 0-dimensional fiber.
    """

    baseB: ChartDomain
    G: MatrixLieGroup
    A: SmoothMap = None
    repW: RepW = None
    two_form: SmoothMap = None

    def __post_init__(self):
        d, k = self.baseB.n, self.G.dim
        object.__setattr__(self, "A", as_map(self.A, d, (d, k), "connection table"))
        if self.repW is None:
            object.__setattr__(self, "repW", trivial_representation(self.G, 0))
        shape = (self.dim_w, d + k, d + k)
        object.__setattr__(self, "two_form", as_map(self.two_form, d + k, shape, "two-form table"))
        c = structure_constants(self.G)
        object.__setattr__(self, "_c", c)
        gen = self.repW.gen
        if gen.shape[0] != k:
            raise DimensionMismatch("one generator per algebra basis vector")
        prod = np.einsum("apq,bqr->abpr", gen, gen)
        comm = prod - prod.transpose(1, 0, 2, 3)
        worst = _max_abs(comm - np.einsum("gab,gpq->abpq", c, gen))
        if not worst <= 1e-10:
            raise ValueError(
                f"representation generators do not close (residual {worst:.2e})"
            )

    @property
    def k(self):
        return self.G.dim

    @property
    def dim_w(self):
        return self.repW.dim_w


def curvature_form(sc: PrincipalScenario, x):
    """B_ij = dA_ij + [A_i, A_j] at x, shape (d, d, k); skew in (i, j)."""
    x = np.asarray(x, dtype=float)
    sc.baseB.require_inside(x)
    A = np.asarray(eval_map(sc.A, x), dtype=float)
    J = np.asarray(jacobian(sc.A, x), dtype=float).reshape(A.shape + A.shape[:1])
    dA = J.transpose(2, 0, 1) - J.transpose(0, 2, 1)  # [i, j, g]: d_i A[j, g] - d_j A[i, g]
    return dA + np.einsum("gab,ia,jb->ijg", sc._c, A, A)


@dataclass(frozen=True)
class ReducedBundleHandle:
    bundle: LPBundleChart
    scenario: PrincipalScenario
    axioms: dict  # the axiom report of the reduced bundle, as a dict


def require_axioms(report, what):
    """Pass ``report`` through, or raise AxiomViolation carrying it when a
    closure condition failed; ``what`` names the bundle in the message."""
    if not report.passed:
        raise AxiomViolation(
            f"{what} failed the structure axioms:\n" + report.as_text(), report=report
        )
    return report


def build_reduced_bundle(sc: PrincipalScenario, n_samples=100, seed=0):
    """Reduced bundle chart over the scenario base; must pass the axioms.

    Its fiber is algebra + W.  The chart is that of the zero connection, with
    the adjoint/representation bracket and the scenario's two-form Omega at
    group coordinate 0 in c[W, alg, alg] -= Omega[:, d:, d:], Gamma[:, W,
    alg] = -Omega[:, :d, d:] and omega[W] = Omega[:, :d, :d], moved by
    ``lpbundle.shift`` with S = -[A^T; 0] to the fiber coordinates
    xi = coords(g^-1 gdot) + A^T xdot; A enters the tables only there, as the
    connection blocks -ad_A and -rho'(A) and the two-form dA - [A, A] on the
    algebra rows.
    """
    d, k, w = sc.baseB.n, sc.k, sc.dim_w
    shapes = dict(table_shapes(d, k + w))
    gen = sc.repW.gen
    c_red = np.zeros(shapes["c"])
    c_red[:k, :k, :k] = sc._c
    c_red[k:, :k, k:] = gen.transpose(1, 0, 2)
    c_red[k:, k:, :k] = -gen.transpose(1, 2, 0)

    def flat(x):  # the tables of the zero connection at x
        O = eval_map(sc.two_form, np.concatenate([np.asarray(x, dtype=object), np.zeros(k)]))
        G, Om = (np.zeros(shapes[name]).astype(O.dtype) for name in ("Gamma", "omega"))
        C = c_red.astype(O.dtype)
        # a zero two-form subtracts exact +0.0, so c keeps its bits
        C[k:, :k, :k] -= O[:, d:, d:]
        G[:, k:, :k] -= O[:, :d, d:].transpose(1, 0, 2)
        Om[k:] = O[:, :d, :d]
        return {"Gamma": G, "c": C, "omega": Om}

    def s_body(x):
        return np.concatenate([-eval_map(sc.A, x).T, np.zeros((w, d))])

    S = SmoothMap(d, (k + w) * d, s_body, (k + w, d), "S")
    maps = flat(np.zeros(d)) if isinstance(sc.two_form.body, _ConstantBody) else {
        name: SmoothMap(d, int(np.prod(s)), lambda x, name=name: flat(x)[name], s, name)
        for name, s in shapes.items()
    }
    bundle = shift(LPBundleChart(sc.baseB, k + w, **maps), S)
    report = require_axioms(
        check_axioms(bundle, n_samples=n_samples, seed=seed), "reduced bundle"
    )
    return ReducedBundleHandle(bundle, sc, report.as_dict())


# ---------------------------------------------------------------------------
# the fiberwise isomorphism and trajectory projection


def alpha_map(sc: PrincipalScenario, x, xdot, g, gdot, w=()):
    """Unreduced velocity data to reduced coordinates (x, xdot, xi, a)."""
    x = np.asarray(x, dtype=float)
    xdot = np.asarray(xdot, dtype=float)
    if not sc.G.is_element(g):
        raise ValueError("not a valid group element")
    ginv = np.asarray(sc.G.inverse(g), dtype=float)
    xi = sc.G.unhat(ginv @ np.asarray(gdot, dtype=float))
    A = np.asarray(eval_map(sc.A, x), dtype=float)
    xi = xi + A.T @ xdot
    a = np.asarray(sc.repW.rho(ginv), dtype=float) @ np.asarray(w, dtype=float)
    return x, xdot, xi, a


def project_trajectory(sc: PrincipalScenario, times, samples):
    """Pointwise alpha_map over a grid of (x, xdot, g, gdot, w) samples."""
    states = []
    for x, xdot, g, gdot, w in samples:
        x, xdot, xi, a = alpha_map(sc, x, xdot, g, gdot, w)
        states.append(LPState(x, xdot, np.concatenate([xi, a])))
    return Trajectory(np.asarray(times, dtype=float), states)


# ---------------------------------------------------------------------------
# Lagrangian reduction


def _sample_invariance(sc, L):
    rng = np.random.default_rng(0)
    d, k, w = sc.baseB.n, sc.k, sc.dim_w
    eye = np.eye(sc.G.mat_dim)
    worst, worst_pt = 0.0, None
    for _ in range(INVARIANCE_SAMPLES):
        x = sc.baseB.sample(rng)
        xdot = rng.normal(size=d)
        xi = rng.normal(size=k)
        a = rng.normal(size=w)
        eta = 0.5 * rng.normal(size=k)
        h = np.asarray(sc.G.exp(eta), dtype=float)
        ximat = np.asarray(sc.G.hat(xi), dtype=float)
        base = L(x, xdot, eye, ximat, a)
        moved = L(x, xdot, h, h @ ximat, np.asarray(sc.repW.rho(h), dtype=float) @ a)
        resid = abs(moved - base) / (1.0 + abs(base))
        # the first non-finite residual is the worst one and stays reported
        if np.isfinite(worst) and not resid <= worst:
            worst, worst_pt = resid, (x, xi, eta)
    if not worst <= INVARIANCE_TOL:
        x, xi, eta = worst_pt
        raise InvarianceViolation(
            f"Lagrangian not invariant: relative residual {worst:.3e} at "
            f"x={x}, xi={xi}, eta={eta}",
            worst_sample={"x": x, "xi": xi, "eta": eta},
            residual=worst,
        )


def _body_velocity(A, xdot, va):
    """va[g] - sum_i A[i, g] xdot[i] for each column g of the (d, r) table A."""
    d, r = np.shape(A)
    body = [va[g] - sum(A[i, g] * xdot[i] for i in range(d)) for g in range(r)]
    return np.array(body, dtype=object)


def reduce_lagrangian(handle: ReducedBundleHandle, L):
    """Quotient an invariant Lagrangian L(x, xdot, g, gdot, w) to the chart
    of ``handle``, the reduced bundle of its scenario.

    Invariance is sampled before reducing (INVARIANCE_SAMPLES seeded points,
    relative tolerance INVARIANCE_TOL); violations, a non-finite residual
    among them, raise with the worst sample.  The reduced value at
    (x, xdot, xi + a) is L evaluated at the identity with the
    connection-corrected body velocity.
    """
    sc = handle.scenario
    _sample_invariance(sc, L)
    k = sc.k
    eye = np.eye(sc.G.mat_dim)

    def f(x, xdot, va):
        gdot = sc.G.hat(_body_velocity(eval_map(sc.A, x), xdot, va))
        return L(x, xdot, eye, gdot, va[k:])

    return LPLagrangian.from_callable(handle.bundle, f, name="reduced")


# ---------------------------------------------------------------------------
# unreduced-side chart integration (comparison route)


def group_chart_lagrangian(sc: PrincipalScenario, L, radius=1.0):
    """The unreduced Lagrangian in exponential coordinates around identity.

    Only point-base, W-free scenarios; the chart covers ``|q_i| < radius``
    in algebra coordinates.  Differentiable through the exponential, so the
    generic integrator runs the unreduced dynamics without any reduction.
    """
    if sc.baseB.n or sc.dim_w:
        raise NotSupported("chart form needs a point base and no auxiliary fiber")
    k = sc.k
    chart = ChartDomain(k, np.tile([-radius, radius], (k, 1)))
    bundle = LPBundleChart(chart, 0)
    empty = np.zeros(0)

    def f(q, qd, v):
        g, gdot = _dual.directional(sc.G.exp, np.asarray(q, dtype=object), qd)
        return L(empty, empty, np.asarray(g), np.asarray(gdot), empty)

    return LPLagrangian.from_callable(bundle, f, name="chart")


def exp_chart_samples(sc: PrincipalScenario, traj: Trajectory):
    """Convert an exponential-chart trajectory to alpha_map input tuples."""
    empty = np.zeros(0)
    out = []
    for s in traj.states:
        g, gdot = _dual.directional(
            sc.G.exp, np.asarray(s.q, dtype=object), s.qdot
        )
        out.append(
            (empty, empty, np.asarray(g, dtype=float), np.asarray(gdot, dtype=float), empty)
        )
    return out


# ---------------------------------------------------------------------------
# two-stage reduction


@dataclass(frozen=True)
class StagesResult:
    stage1: ReducedBundleHandle
    stage2: ReducedBundleHandle
    beta: np.ndarray
    nidx: tuple
    kidx: tuple
    structure_deviation: float
    compatibility_deviation: float
    scenario: PrincipalScenario


def subgroup_indices(nidx, k):
    """``nidx`` as a tuple of 1 to k-1 distinct basis indices in 0..k-1."""
    nidx = tuple(int(i) for i in nidx)
    if not (0 < len(set(nidx)) == len(nidx) < k and set(nidx) <= set(range(k))):
        raise ValueError(
            f"expected 1 to {k - 1} distinct indices in 0..{k - 1} "
            f"(a proper subgroup), got {list(nidx)}"
        )
    return nidx


def stages_reduce(direct: ReducedBundleHandle, nidx, override_A_N=None, seed=0):
    """Reduce by an abelian normal subgroup N, then by the abelian K = G/N.

    ``direct`` is the caller's build_reduced_bundle handle: its scenario is
    staged and its tables are the reference.  Each stage is one
    build_reduced_bundle call, so two axiom checks.  Stage 1 reduces by N
    itself, ``restrict(G, nidx)`` with basis ``G.basis[nidx]``, over B x K,
    with g = n s(kc) and the section s(kc) = exp(kc) of ``restrict(G,
    kidx)``.  Stage 2 reduces the stage-1 bundle by K, which translates kc
    and acts on the fiber n by Ad_s(kc); that bundle's bracket and
    connection are zero, so the stage-2 scenario carries its fiber n and its
    two-form.  Returns both stage handles, each rebuilt by
    build_reduced_bundle from its scenario, and the fiber reshuffle beta
    identifying the direct reduction with the composition.  The canonical
    intermediate connection is the N-projection of the scenario form
    dressed by the section of K; overriding it, by a map or a constant table
    of shape (d + s, r), skips the exactness guarantee and reports the
    deviation instead.  Both deviations are sampled at STAGES_SAMPLES seeded
    points (the structure one once on a point base); a NaN one fails the
    gate.
    """
    sc = direct.scenario
    d, k = sc.baseB.n, sc.k
    c = sc._c
    nidx = subgroup_indices(nidx, k)
    kidx = tuple(i for i in range(k) if i not in nidx)
    r, s_dim = len(nidx), len(kidx)

    if sc.dim_w:
        raise NotSupported("two-stage reduction with an auxiliary fiber")
    K, N = list(kidx), list(nidx)
    worst = _max_abs(c[np.ix_(K, range(k), N)])
    if not worst <= 1e-12:
        raise NotNormal(
            f"span of basis indices {nidx} is not an ideal (residual {worst:.2e})"
        )
    if not _max_abs(c[np.ix_(N, N, N)]) <= 1e-12:
        raise NotSupported("the normal subgroup must be abelian")
    if not _max_abs(c[np.ix_(K, K, K)]) <= 1e-12:
        raise NotSupported("quotient by the subgroup must be abelian")

    G = sc.G
    section = restrict(G, kidx).exp  # s(kc) = exp(kc) on the quotient indices
    gen = c[np.ix_(N, K, N)].transpose(1, 0, 2)  # gen[j][p, q] = c[N_p, K_j, N_q]

    def a_n_body(xk):
        """N-block of s(kc)^-1 (A_G(x) dx + ds), carried to the stage-1
        fiber by Ad_s(kc), in the coordinates (x, kc)."""
        x, kc = xk[:d], xk[d:]
        # negated after embedding: the other slots hold -0.0, which keeps the
        # zero signs of the stage-1 Jacobians
        sinv = G.exp(-_embed(kc, kidx, k))
        jets = [_dual.directional(section, np.asarray(kc, dtype=object), e) for e in np.eye(s_dim)]
        rows = np.concatenate(
            [eval_map(sc.A, x)[:, N], [G.unhat_product(sinv, ds, N) for _, ds in jets]]
        )
        if gen.any():  # K acts on n; on a central n, Ad_s(kc) is the identity
            rows = rows @ Ad(G, jets[0][0], sinv, N).T
        # through a list, so the table is a float array when no entry is a dual
        return np.array(rows.tolist())

    canonical = SmoothMap(d + s_dim, (d + s_dim) * r, a_n_body, out_shape=(d + s_dim, r))
    A_N, compat_dev = canonical, 0.0
    if override_A_N is not None:
        A_N = as_map(override_A_N, d + s_dim, (d + s_dim, r), "override connection table")
        rng = np.random.default_rng(seed)
        for _ in range(STAGES_SAMPLES):
            pt = np.concatenate([sc.baseB.sample(rng), rng.uniform(-1.5, 1.5, s_dim)])
            compat_dev = _max_abs(
                compat_dev,
                np.asarray(eval_map(A_N, pt), float) - np.asarray(eval_map(canonical, pt), float),
            )
        warnings.warn(
            f"overriding the canonical intermediate connection "
            f"(max deviation {compat_dev:.3e}); exactness of the stage "
            f"composition is no longer guaranteed"
        )

    base1 = ChartDomain(
        d + s_dim,
        np.vstack([sc.baseB.bounds, np.tile([-2.0, 2.0], (s_dim, 1))]),
        list(sc.baseB.periodic) + [False] * s_dim,
    )
    stage1 = build_reduced_bundle(PrincipalScenario(base1, restrict(G, N), A_N))

    A_K = SmoothMap(d, d * s_dim, lambda x: eval_map(sc.A, x)[:, K], out_shape=(d, s_dim))
    rep = RepW(r, gen, lambda h: Ad(G, section(h[:s_dim, -1]), section(-h[:s_dim, -1]), N))
    stage2 = build_reduced_bundle(
        PrincipalScenario(sc.baseB, abelian(s_dim), A_K, rep, stage1.bundle.omega)
    )

    beta = np.eye(k)[K + N]

    # the direct-reduction structure in stage 2's fiber coordinates beta w
    moved = transport(direct.bundle, beta.T, beta)
    rng = np.random.default_rng(seed + 1)
    sdev = 0.0
    # a point base (d = 0) has one point, and every sample would repeat it
    for _ in range(STAGES_SAMPLES if d else 1):
        x = sc.baseB.sample(rng)
        sdev = _max_abs(sdev, *map(np.subtract, moved.tables(x), stage2.bundle.tables(x)))
    if override_A_N is None and not sdev <= 1e-8:
        raise AxiomViolation(
            f"two-stage structure disagrees with the direct reduction "
            f"through beta (deviation {sdev:.3e})"
        )

    return StagesResult(stage1, stage2, beta, nidx, kidx, sdev, compat_dev, sc)


def two_stage_lagrangian(res: StagesResult, L):
    """(L reduced by N) reduced by K, on the stage-2 bundle.

    L lives on the scenario that ``res`` staged, ``res.scenario``.  Built
    through the honest composition: the stage-1 reduction runs the generic
    quotient machinery over base B x K on L(x, n s(kc), ndot s(kc) + n sdot)
    with n in N, and the K-stage applies the same connection-corrected body
    velocity.  Nothing here looks at the direct reduction, so comparing the
    two is a real consistency test.
    """
    sc = res.scenario
    d, s_dim = sc.baseB.n, len(res.kidx)
    section = restrict(sc.G, res.kidx).exp

    def L1(xk, xkdot, n, ndot, w):  # n and ndot are matrices of G
        s, sdot = _dual.directional(section, np.asarray(xk[d:], dtype=object), xkdot[d:])
        return L(xk[:d], xkdot[:d], n @ s, ndot @ s + n @ sdot, w)

    l1 = reduce_lagrangian(res.stage1, L1)

    def f2(x, xdot, va):
        kdot = _body_velocity(eval_map(res.stage2.scenario.A, x), xdot, va)
        xk = np.concatenate([np.asarray(x, dtype=object), np.zeros(s_dim, dtype=object)])
        xkdot = np.concatenate([np.asarray(xdot, dtype=object), kdot])
        return l1.value(xk, xkdot, va[s_dim:])

    return LPLagrangian.from_callable(res.stage2.bundle, f2, name="two-stage")


# ---------------------------------------------------------------------------
# reduced currents


def reduced_noether(sys: LPLagrangian, s: LPState, etabar):
    """j = <dL/dxi, etabar> over the algebra block of the fiber."""
    etabar = np.asarray(etabar, dtype=float)
    n, m = sys.n, sys.m
    if len(etabar) > m:
        raise DimensionMismatch("more symmetry coefficients than fiber slots")
    grad = _jet(sys, s)[1]
    return float(grad[2 * n : 2 * n + len(etabar)] @ etabar)
