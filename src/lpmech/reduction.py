"""Reduction of trivialized principal-bundle systems to bundle charts.

A scenario is a trivialized bundle Q = B x G with a local connection form
and, optionally, a linear G-action on an auxiliary vector fiber W.  From
this the module builds the reduced bundle chart over B with fiber
(algebra + W), reduces invariant Lagrangians, projects trajectories, and
performs two-stage reduction through a central normal subgroup.

Conventions: the group acts on the left, h.(x, g) = (x, h g); reduced
fiber coordinates are the body values xi = coords(g^-1 gdot) + A(x) xdot
and a = rho(g^-1) w.  The reduced two-form is dA - [A, A]; with the
adjoint-type connection block -ad_A this is the unique sign for which the
reduced chart satisfies the structure axioms, and the axiom checker runs
on every build as a hard gate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

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
    LPState2,
    Trajectory,
    _pack,
    _scalar_body,
    lp_operator,
)
from .lpbundle import ChartDomain, LPBundleChart, check_axioms
from .liegroups import MatrixLieGroup, abelian, structure_constants
from .smoothmap import SmoothMap, constant_map, eval_map, jacobian

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
    """Trivialized principal-bundle data: base chart, group, connection, rep.

    ``A`` maps a base point to the (d, k) table of algebra coordinates of
    the local connection form; row i is the value on the i-th coordinate
    direction.  None means the zero form.
    """

    baseB: ChartDomain
    G: MatrixLieGroup
    A: SmoothMap = None
    repW: RepW = None

    def __post_init__(self):
        d, k = self.baseB.n, self.G.dim
        if self.A is None:
            object.__setattr__(self, "A", constant_map(d, np.zeros((d, k)), "A"))
        if self.A.in_dim != d or self.A.out_shape != (d, k):
            raise DimensionMismatch(
                f"connection table must map R^{d} to shape {(d, k)}"
            )
        c = structure_constants(self.G)
        object.__setattr__(self, "_c", c)
        if self.repW is not None:
            gen = self.repW.gen
            if gen.shape[0] != k:
                raise DimensionMismatch("one generator per algebra basis vector")
            worst = 0.0
            for a in range(k):
                for b in range(k):
                    comm = gen[a] @ gen[b] - gen[b] @ gen[a]
                    expect = np.einsum("g,gpq->pq", c[:, a, b], gen)
                    worst = max(worst, np.max(np.abs(comm - expect)))
            if worst > 1e-10:
                raise ValueError(
                    f"representation generators do not close (residual {worst:.2e})"
                )

    @property
    def k(self):
        return self.G.dim

    @property
    def dim_w(self):
        return 0 if self.repW is None else self.repW.dim_w


def curvature_form(sc: PrincipalScenario, x):
    """B_ij = dA_ij + [A_i, A_j] at x, shape (d, d, k); skew in (i, j)."""
    x = np.asarray(x, dtype=float)
    sc.baseB.require_inside(x)
    d, k = sc.baseB.n, sc.k
    A = np.asarray(eval_map(sc.A, x), dtype=float)
    J = np.asarray(jacobian(sc.A, x), dtype=float).reshape(d, k, d)
    c = sc._c
    B = np.empty((d, d, k))
    for i in range(d):
        for j in range(d):
            dA = J[j, :, i] - J[i, :, j]
            B[i, j] = dA + np.einsum("gab,a,b->g", c, A[i], A[j])
    return B


@dataclass(frozen=True)
class ReducedBundleHandle:
    bundle: LPBundleChart
    scenario: PrincipalScenario
    k: int
    dim_w: int
    provenance: dict = field(default_factory=dict)


def _reduced_structure_maps(sc: PrincipalScenario):
    d, k, w = sc.baseB.n, sc.k, sc.dim_w
    m = k + w
    c = sc._c
    gen = None if sc.repW is None else sc.repW.gen

    c_red = np.zeros((m, m, m))
    c_red[:k, :k, :k] = c
    if w:
        for a in range(k):
            c_red[k:, a, k:] = gen[a]
            c_red[k:, k:, a] = -gen[a]

    def gamma_body(x):
        A = eval_map(sc.A, x)
        ent = []
        for i in range(d):
            for aa in range(m):
                for bb in range(m):
                    if aa < k and bb < k:
                        val = 0.0
                        for g_ in range(k):
                            val = val - c[aa, g_, bb] * A[i, g_]
                    elif aa >= k and bb >= k:
                        val = 0.0
                        for g_ in range(k):
                            val = val - A[i, g_] * gen[g_][aa - k, bb - k]
                    else:
                        val = 0.0
                    ent.append(val)
        return np.array(ent).reshape(d, m, m)

    def omega_body(x):
        A = eval_map(sc.A, x)
        J = jacobian(sc.A, x)
        J = np.asarray(J).reshape(d, k, d)
        ent = []
        for aa in range(m):
            for i in range(d):
                for j in range(d):
                    if aa < k:
                        val = J[j, aa, i] - J[i, aa, j]
                        for g_ in range(k):
                            for h_ in range(k):
                                val = val - c[aa, g_, h_] * A[i, g_] * A[j, h_]
                    else:
                        val = 0.0
                    ent.append(val)
        return np.array(ent).reshape(m, d, d)

    Gamma = SmoothMap(d, d * m * m, gamma_body, out_shape=(d, m, m), name="Gamma_red")
    Omega = SmoothMap(d, m * d * d, omega_body, out_shape=(m, d, d), name="omega_red")
    return Gamma, c_red, Omega


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

    The fiber is algebra + W with the adjoint/representation connection
    blocks and the reduced two-form dA - [A, A] on the algebra rows.
    """
    Gamma, c_red, Omega = _reduced_structure_maps(sc)
    bundle = LPBundleChart(sc.baseB, sc.k + sc.dim_w, Gamma=Gamma, c=c_red, omega=Omega)
    report = require_axioms(
        check_axioms(bundle, n_samples=n_samples, seed=seed), "reduced bundle"
    )
    return ReducedBundleHandle(
        bundle,
        sc,
        sc.k,
        sc.dim_w,
        {"construction": "adjoint/representation blocks", "axioms": report.as_dict()},
    )


# ---------------------------------------------------------------------------
# the fiberwise isomorphism and trajectory projection


def alpha_map(sc: PrincipalScenario, x, xdot, g, gdot, w=None):
    """Unreduced velocity data to reduced coordinates (x, xdot, xi, a)."""
    x = np.asarray(x, dtype=float)
    xdot = np.asarray(xdot, dtype=float)
    if not sc.G.is_element(g):
        raise ValueError("not a valid group element")
    ginv = sc.G.inverse(g)
    xi = sc.G.unhat(ginv @ np.asarray(gdot, dtype=float))
    A = np.asarray(eval_map(sc.A, x), dtype=float)
    xi = xi + A.T @ xdot
    if sc.repW is None:
        a = np.zeros(0)
    else:
        a = np.asarray(sc.repW.rho(ginv), dtype=float) @ np.asarray(w, dtype=float)
    return x, xdot, xi, a


def alpha_inverse(sc: PrincipalScenario, x, xdot, xi, a, g):
    """Reconstruct (gdot, w) over the group element g."""
    x = np.asarray(x, dtype=float)
    xdot = np.asarray(xdot, dtype=float)
    if not sc.G.is_element(g):
        raise ValueError("not a valid group element")
    A = np.asarray(eval_map(sc.A, x), dtype=float)
    body = np.asarray(xi, dtype=float) - A.T @ xdot
    gdot = np.asarray(g, dtype=float) @ np.asarray(sc.G.hat(body), dtype=float)
    if sc.repW is None:
        w = np.zeros(0)
    else:
        w = np.asarray(sc.repW.rho(np.asarray(g, dtype=float)), dtype=float) @ np.asarray(
            a, dtype=float
        )
    return gdot, w


def project_trajectory(sc: PrincipalScenario, times, samples):
    """Pointwise alpha_map over a grid of (x, xdot, g, gdot, w) samples."""
    states = []
    for x, xdot, g, gdot, w in samples:
        x, xdot, xi, a = alpha_map(sc, x, xdot, g, gdot, w)
        states.append(LPState(x, xdot, np.concatenate([xi, a])))
    meta = {"integrator": "projected", "h": None, "seed": None}
    return Trajectory(np.asarray(times, dtype=float), states, meta)


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
        if sc.repW is None:
            wa = a
        else:
            wa = np.asarray(sc.repW.rho(h), dtype=float) @ a
        moved = L(x, xdot, h, h @ ximat, wa)
        resid = abs(moved - base) / (1.0 + abs(base))
        if resid > worst:
            worst, worst_pt = resid, (x, xi, eta)
    if worst > INVARIANCE_TOL:
        x, xi, eta = worst_pt
        raise InvarianceViolation(
            f"Lagrangian not invariant: relative residual {worst:.3e} at "
            f"x={x}, xi={xi}, eta={eta}",
            worst_sample={"x": x, "xi": xi, "eta": eta},
            residual=worst,
        )


def reduce_lagrangian(sc: PrincipalScenario, L, handle=None):
    """Quotient an invariant Lagrangian L(x, xdot, g, gdot, w) to the chart.

    Invariance is sampled before reducing (INVARIANCE_SAMPLES seeded points,
    relative tolerance INVARIANCE_TOL); violations raise with the worst
    sample.  The reduced value at (x, xdot, xi + a) is L evaluated at the
    identity with the connection-corrected body velocity.
    """
    _sample_invariance(sc, L)
    if handle is None:
        handle = build_reduced_bundle(sc)
    d, k = sc.baseB.n, sc.k
    eye = np.eye(sc.G.mat_dim)

    def f(x, xdot, va):
        A = eval_map(sc.A, x)
        body = [va[g_] - sum(A[i, g_] * xdot[i] for i in range(d)) for g_ in range(k)]
        gdot = sc.G.hat(np.array(body, dtype=object))
        return L(x, xdot, eye, gdot, va[k:])

    return LPLagrangian.from_callable(handle.bundle, f, name="reduced")


# ---------------------------------------------------------------------------
# the diamond pairing


def diamond(b, a, rep: RepW):
    """The algebra covector pairing <diamond(b, a), eta> = <a, rho'(eta) b>."""
    b = np.asarray(b, dtype=float)
    a = np.asarray(a, dtype=float)
    return np.array([a @ (gen @ b) for gen in rep.gen])


# ---------------------------------------------------------------------------
# unreduced-side chart integration (comparison route)


def group_chart_lagrangian(sc: PrincipalScenario, L, radius=1.0):
    """The unreduced Lagrangian in exponential coordinates around identity.

    Only point-base, W-free scenarios; the chart covers ``|q_i| < radius``
    in algebra coordinates.  Differentiable through the exponential, so the
    generic integrator runs the unreduced dynamics without any reduction.
    """
    if sc.baseB.n != 0 or sc.repW is not None:
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
    A_K: SmoothMap


def _embed(coords, idx, k):
    out = [0.0] * k
    for j, i in enumerate(idx):
        out[i] = coords[j]
    return np.array(out, dtype=object)


def stages_reduce(sc: PrincipalScenario, nidx, override_A_N=None, seed=0):
    """Reduce by a central normal subgroup N, then by the abelian K = G/N.

    Returns both stage handles and the fiber reshuffle beta identifying the
    direct reduction with the composition.  The canonical intermediate
    connection is the N-projection of the scenario form dressed by the
    section of K; overriding it skips the exactness guarantee and reports
    the deviation instead.  Both deviations are sampled at STAGES_SAMPLES
    seeded points.
    """
    d, k = sc.baseB.n, sc.k
    c = sc._c
    nidx = tuple(int(i) for i in nidx)
    if not nidx or len(set(nidx)) != len(nidx) or any(i < 0 or i >= k for i in nidx):
        raise ValueError("subgroup must be named by distinct basis indices")
    if len(nidx) == k:
        raise ValueError("subgroup must be proper")
    kidx = tuple(i for i in range(k) if i not in nidx)
    r, s_dim = len(nidx), len(kidx)

    if sc.repW is not None:
        raise NotSupported("two-stage reduction with an auxiliary fiber")
    worst = max(
        (abs(c[g_, a, b]) for b in nidx for a in range(k) for g_ in kidx),
        default=0.0,
    )
    if worst > 1e-12:
        raise NotNormal(
            f"span of basis indices {nidx} is not an ideal (residual {worst:.2e})"
        )
    central = max(
        (abs(c[g_, a, b]) for b in nidx for a in range(k) for g_ in range(k)),
        default=0.0,
    )
    if central > 1e-12:
        raise NotSupported("only central normal subgroups are supported")
    quot = max(
        (abs(c[g_, a, b]) for a in kidx for b in kidx for g_ in kidx), default=0.0
    )
    if quot > 1e-12:
        raise NotSupported("quotient by the subgroup must be abelian")

    G = sc.G

    def section(kc):
        return G.exp(_embed(kc, kidx, k))

    def body_form(x, kc):
        """Full-algebra coordinates of s(k)^-1 (A_G(x) dx + ds)."""
        A = eval_map(sc.A, x)
        sinv = G.exp(-_embed(kc, kidx, k))
        rows = []
        for i in range(d):
            rows.append(np.asarray(A[i]))
        for j in range(s_dim):
            e = np.zeros(s_dim)
            e[j] = 1.0
            _, ds = _dual.directional(section, np.asarray(kc, dtype=object), e)
            mat = sinv @ ds
            rows.append(np.asarray(G.unhat(mat)))
        return rows

    def a_n_body(xk):
        x, kc = xk[:d], xk[d:]
        rows = body_form(x, kc)
        ent = []
        for row in rows:
            for p in nidx:
                ent.append(row[p])
        return np.array(ent).reshape(d + s_dim, r)

    canonical = SmoothMap(d + s_dim, (d + s_dim) * r, a_n_body, out_shape=(d + s_dim, r))
    if override_A_N is not None:
        if override_A_N.in_dim != d + s_dim or override_A_N.out_shape != (d + s_dim, r):
            raise DimensionMismatch("override connection table has the wrong shape")
        rng = np.random.default_rng(seed)
        dev = 0.0
        for _ in range(STAGES_SAMPLES):
            pt = np.concatenate([sc.baseB.sample(rng), rng.uniform(-1.5, 1.5, s_dim)])
            dev = max(
                dev,
                float(
                    np.max(
                        np.abs(
                            np.asarray(eval_map(override_A_N, pt), float)
                            - np.asarray(eval_map(canonical, pt), float)
                        )
                    )
                ),
            )
        warnings.warn(
            f"overriding the canonical intermediate connection "
            f"(max deviation {dev:.3e}); exactness of the stage "
            f"composition is no longer guaranteed"
        )
        A_N = override_A_N
        compat_dev = dev
    else:
        A_N = canonical
        compat_dev = 0.0

    base1 = ChartDomain(
        d + s_dim,
        np.vstack([sc.baseB.bounds, np.tile([-2.0, 2.0], (s_dim, 1))]),
        list(sc.baseB.periodic) + [False] * s_dim,
    )
    stage1 = build_reduced_bundle(PrincipalScenario(base1, abelian(r), A_N))

    def a_k_body(x):
        A = eval_map(sc.A, x)
        ent = []
        for i in range(d):
            for j, g_ in enumerate(kidx):
                ent.append(A[i, g_])
        return np.array(ent).reshape(d, s_dim)

    A_K = SmoothMap(d, d * s_dim, a_k_body, out_shape=(d, s_dim))

    # stage-2 chart over B: fiber = quotient algebra + residual N-block,
    # with the stage-1 two-form pulled back along the A_K horizontal lift
    m2 = s_dim + r

    def om1_at(x, kc_zero=np.zeros(s_dim)):
        pt = np.concatenate([np.asarray(x, dtype=object), kc_zero.astype(object)])
        return eval_map(stage1.bundle.omega, pt)

    def gamma2_body(x):
        AK = eval_map(A_K, x)
        O1 = om1_at(x)
        ent = []
        for i in range(d):
            for aa in range(m2):
                for bb in range(m2):
                    if aa >= s_dim and bb < s_dim:
                        p = aa - s_dim
                        val = -O1[p, i, d + bb]
                        for b2 in range(s_dim):
                            val = val + AK[i, b2] * O1[p, d + b2, d + bb]
                    else:
                        val = 0.0
                    ent.append(val)
        return np.array(ent).reshape(d, m2, m2)

    def omega2_body(x):
        AK = eval_map(A_K, x)
        JK = np.asarray(jacobian(A_K, x)).reshape(d, s_dim, d)
        O1 = om1_at(x)
        ent = []
        for aa in range(m2):
            for i in range(d):
                for j in range(d):
                    if aa < s_dim:
                        val = JK[j, aa, i] - JK[i, aa, j]
                    else:
                        p = aa - s_dim
                        val = O1[p, i, j]
                        for b2 in range(s_dim):
                            val = val - AK[i, b2] * O1[p, d + b2, j]
                            val = val - O1[p, i, d + b2] * AK[j, b2]
                            for b3 in range(s_dim):
                                val = val + AK[i, b2] * AK[j, b3] * O1[p, d + b2, d + b3]
                    ent.append(val)
        return np.array(ent).reshape(m2, d, d)

    def c2_body(x):
        O1 = om1_at(x)
        ent = []
        for g_ in range(m2):
            for aa in range(m2):
                for bb in range(m2):
                    if g_ >= s_dim and aa < s_dim and bb < s_dim:
                        ent.append(-O1[g_ - s_dim, d + aa, d + bb])
                    else:
                        ent.append(0.0)
        return np.array(ent).reshape(m2, m2, m2)

    Gamma2 = SmoothMap(d, d * m2 * m2, gamma2_body, out_shape=(d, m2, m2))
    Omega2 = SmoothMap(d, m2 * d * d, omega2_body, out_shape=(m2, d, d))
    C2 = SmoothMap(d, m2**3, c2_body, out_shape=(m2, m2, m2))
    bundle2 = LPBundleChart(sc.baseB, m2, Gamma=Gamma2, c=C2, omega=Omega2)
    report2 = require_axioms(check_axioms(bundle2), "two-stage bundle")
    stage2 = ReducedBundleHandle(
        bundle2, sc, s_dim, r, {"construction": "two-stage slice", "axioms": report2.as_dict()}
    )

    beta = np.zeros((k, k))
    for j, g_ in enumerate(kidx):
        beta[j, g_] = 1.0
    for p, g_ in enumerate(nidx):
        beta[s_dim + p, g_] = 1.0

    # transport the direct-reduction structure through beta and compare
    direct = build_reduced_bundle(sc)
    rng = np.random.default_rng(seed + 1)
    sdev = 0.0
    for _ in range(STAGES_SAMPLES):
        x = sc.baseB.sample(rng)
        Gd, Cd, Od = direct.bundle.tables(x)
        G2v, C2v, O2v = bundle2.tables(x)
        sdev = max(
            sdev,
            float(np.max(np.abs(np.einsum("pa,iab,qb->ipq", beta, Gd, beta) - G2v)))
            if Gd.size
            else 0.0,
            float(
                np.max(
                    np.abs(
                        np.einsum("pg,gab,qa,rb->pqr", beta, Cd, beta, beta) - C2v
                    )
                )
            ),
            float(np.max(np.abs(np.einsum("pa,aij->pij", beta, Od) - O2v)))
            if Od.size
            else 0.0,
        )
    if override_A_N is None and sdev > 1e-8:
        raise AxiomViolation(
            f"two-stage structure disagrees with the direct reduction "
            f"through beta (deviation {sdev:.3e})"
        )

    return StagesResult(stage1, stage2, beta, nidx, kidx, sdev, compat_dev, A_K)


def two_stage_lagrangian(res: StagesResult, sc: PrincipalScenario, L):
    """(L reduced by N) reduced by K, on the stage-2 bundle.

    Built through the honest composition: the stage-1 reduction runs the
    generic quotient machinery over base B x K, and the K-stage applies the
    same connection-corrected slice formula.  Nothing here looks at the
    direct reduction, so comparing the two is a real consistency test.
    """
    d, k = sc.baseB.n, sc.k
    r, s_dim = len(res.nidx), len(res.kidx)
    G = sc.G
    nidx, kidx = res.nidx, res.kidx

    def section(kc):
        return G.exp(_embed(kc, kidx, k))

    def L1(xk, xkdot, n_mat, n_dot, w):
        x, kc = xk[:d], xk[d:]
        xdot, kcdot = xkdot[:d], xkdot[d:]
        nu = np.asarray([n_mat[i, -1] for i in range(r)])
        nudot = np.asarray([n_dot[i, -1] for i in range(r)])

        def n_of(nuv):
            return G.exp(_embed(nuv, nidx, k))

        nG = n_of(nu)
        _, nG_dot = _dual.directional(n_of, np.asarray(nu, dtype=object), nudot)
        s_mat = section(kc)
        _, s_dot = _dual.directional(section, np.asarray(kc, dtype=object), kcdot)
        g = s_mat @ nG
        gdot = s_dot @ nG + s_mat @ nG_dot
        return L(x, xdot, g, gdot, w)

    l1 = reduce_lagrangian(res.stage1.scenario, L1, handle=res.stage1)

    def f2(x, xdot, va):
        AK = eval_map(res.A_K, x)
        kdot = [
            va[bb] - sum(AK[i, bb] * xdot[i] for i in range(d)) for bb in range(s_dim)
        ]
        xk = np.concatenate([np.asarray(x, dtype=object), np.zeros(s_dim, dtype=object)])
        xkdot = np.concatenate([np.asarray(xdot, dtype=object), np.array(kdot, dtype=object)])
        return l1.value(xk, xkdot, va[s_dim:])

    return LPLagrangian.from_callable(res.stage2.bundle, f2, name="two-stage")


# ---------------------------------------------------------------------------
# reduced currents and the vertical split


def reduced_vertical_split(sys: LPLagrangian, s2: LPState2, k: int):
    """Fiber equation residual split into (algebra block, W block): the fiber
    covector of lp_operator cut after its first k entries."""
    if not 0 <= k <= sys.m:
        raise ValueError("unknown block structure")
    _, ver = lp_operator(sys, s2)
    return ver[:k], ver[k:]


def reduced_noether(sys: LPLagrangian, s: LPState, etabar):
    """j = <dL/dxi, etabar> over the algebra block of the fiber."""
    etabar = np.asarray(etabar, dtype=float)
    n, m = sys.n, sys.m
    if len(etabar) > m:
        raise DimensionMismatch("more symmetry coefficients than fiber slots")
    grad = np.asarray(_dual.gradient(_scalar_body(sys.L), _pack(s)), dtype=float)
    return float(grad[2 * n : 2 * n + len(etabar)] @ etabar)
