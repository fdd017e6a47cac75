"""Reduction of trivialized principal-bundle systems to bundle charts.

A scenario is a trivialized bundle Q = B x G with a local connection form,
a linear G-action on a vector fiber W and the W-valued two-form of W as a
bundle over B x G; W is empty and the forms are zero unless given.  From
this the module builds the reduced bundle chart over B with fiber
(algebra + W), reduces invariant Lagrangians, projects trajectories, and
performs two-stage reduction through an abelian normal subgroup N with
abelian quotient K.  One construction serves both stages: stage 2 reduces
the stage-1 bundle, its fiber and two-form, with g = n s(k).

Conventions: the group acts on the left, h.(x, g) = (x, h g); reduced
fiber coordinates are the body values xi = coords(g^-1 gdot) + A(x) xdot
and a = rho(g^-1) w.  The reduced two-form is dA - [A, A]; with the
adjoint-type connection block -ad_A this is the unique sign for which the
reduced chart satisfies the structure axioms, and the axiom checker runs
on every build as a hard gate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

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
    _lagrangian_gradient,
)
from .lpbundle import ChartDomain, LPBundleChart, _max_abs, check_axioms, table_shapes
from .liegroups import Ad, MatrixLieGroup, abelian, structure_constants
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
    """Trivialized bundle data: base chart, group, connection, fiber W and
    its two-form.

    ``A`` maps a base point to the (d, k) table of algebra coordinates of
    the local connection form; row i is the value on the i-th coordinate
    direction.  ``repW`` is the G-action on W; ``two_form`` maps (x, group
    coordinates) to the W-valued two-form, shape (w, d + k, d + k), of W as
    an LP bundle over B x G with zero bracket and connection.  None means
    the zero form, and for ``repW`` the 0-dimensional fiber.
    """

    baseB: ChartDomain
    G: MatrixLieGroup
    A: SmoothMap = None
    repW: RepW = None
    two_form: SmoothMap = None

    def __post_init__(self):
        d, k = self.baseB.n, self.G.dim
        if self.A is None:
            object.__setattr__(self, "A", constant_map(d, np.zeros((d, k)), "A"))
        if self.A.in_dim != d or self.A.out_shape != (d, k):
            raise DimensionMismatch(
                f"connection table must map R^{d} to shape {(d, k)}"
            )
        if self.repW is None:
            object.__setattr__(self, "repW", trivial_representation(self.G, 0))
        shape = (self.dim_w, d + k, d + k)
        if self.two_form is None:
            object.__setattr__(self, "two_form", constant_map(d + k, np.zeros(shape), "two_form"))
        if self.two_form.in_dim != d + k or self.two_form.out_shape != shape:
            raise DimensionMismatch(f"two-form table must map R^{d + k} to shape {shape}")
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


def _exterior_derivative(M: SmoothMap, x):
    """dA[g, i, j] = d_i A[j, g] - d_j A[i, g] for the (d, r) table map A = M."""
    d, r = M.out_shape
    J = np.asarray(jacobian(M, x)).reshape(d, r, d)  # J[i, g, j] = d_j A[i, g]
    return J.transpose(1, 2, 0) - J.transpose(1, 0, 2)


def curvature_form(sc: PrincipalScenario, x):
    """B_ij = dA_ij + [A_i, A_j] at x, shape (d, d, k); skew in (i, j)."""
    x = np.asarray(x, dtype=float)
    sc.baseB.require_inside(x)
    A = np.asarray(eval_map(sc.A, x), dtype=float)
    dA = np.asarray(_exterior_derivative(sc.A, x), dtype=float)
    return dA.transpose(1, 2, 0) + np.einsum("gab,ia,jb->ijg", sc._c, A, A)


@dataclass(frozen=True)
class ReducedBundleHandle:
    bundle: LPBundleChart
    scenario: PrincipalScenario
    axioms: dict  # the axiom report of the reduced bundle, as a dict


def _reduced_structure_maps(sc: PrincipalScenario):
    """The reduced tables over the scenario base, as maps keyed by table name."""
    d, k = sc.baseB.n, sc.k
    shapes = dict(table_shapes(d, k + sc.dim_w))
    c, gen = sc._c, sc.repW.gen
    c_red = np.zeros(shapes["c"])
    c_red[:k, :k, :k] = c
    c_red[k:, :k, k:] = gen.transpose(1, 0, 2)
    c_red[k:, k:, :k] = -gen.transpose(1, 2, 0)
    # Gamma_i = -A[i, g] T[g], with T[g] = ad(e_g) on the algebra rows and the
    # g-th generator on W; the blocks between them start as plain 0.0, and
    # only the W-alg block takes the two-form term
    blocks = [(slice(None, k), -c.transpose(1, 0, 2)), (slice(k, None), -gen)]
    bracket = c.transpose(1, 2, 0)  # bracket[g, h, a] = c[a, g, h]
    zero_k = np.zeros(k).astype(object)

    def two_form_at(x):  # at group coordinate 0, shape (w, d + k, d + k)
        return eval_map(sc.two_form, np.concatenate([np.asarray(x, dtype=object), zero_k]))

    def lift(A):  # P = [I; -A^T], base into base x group coordinates
        return np.concatenate([np.eye(d), -A.T])

    # a zero two-form subtracts exact +0.0, so float tables keep their bits
    def c_body(x):
        O = two_form_at(x)
        out = c_red.astype(O.dtype)
        out[k:, :k, :k] -= O[:, d:, d:]
        return out

    def gamma_body(x):
        A, O = eval_map(sc.A, x), two_form_at(x)
        out = np.zeros(shapes["Gamma"]).astype(np.result_type(A, O))
        for blk, negT in blocks:
            out[:, blk, blk] = np.einsum("gab,ig->iab", negT, A)
        out[:, k:, :k] -= np.einsum("vi,pvb->ipb", lift(A), O[:, :, d:])
        return out

    def omega_body(x):
        A, O = eval_map(sc.A, x), two_form_at(x)
        # terms[g, h, a, i, j] = c[a, g, h] A[i, g] A[j, h], taken off dA one
        # (g, h) pair at a time; one contraction would reorder the sum and move
        # the last bits of omega for dense connections
        At = A.T
        terms = bracket[..., None, None] * At[:, None, None, :, None] * At[None, :, None, None, :]
        alg = np.subtract.reduce(
            np.concatenate([_exterior_derivative(sc.A, x)[None], terms.reshape(k * k, k, d, d)])
        )
        P = lift(A)
        return np.concatenate([alg, np.einsum("vi,pvu,uj->pij", P, O, P)])

    bodies = {"Gamma": gamma_body, "c": c_body, "omega": omega_body}
    return {
        name: SmoothMap(d, int(np.prod(shape)), bodies[name], out_shape=shape, name=f"{name}_red")
        for name, shape in shapes.items()
    }


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
    blocks and the reduced two-form dA - [A, A] on the algebra rows.  The
    scenario's two-form Omega, read at group coordinate 0 and pulled back
    along the lift P = [I; -A^T], gives c[W, alg, alg] -= Omega,
    Gamma[:, W, alg] -= P^T Omega and the W rows P^T Omega P of the
    two-form.
    """
    bundle = LPBundleChart(sc.baseB, sc.k + sc.dim_w, **_reduced_structure_maps(sc))
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


def _embed(coords, idx, k):
    out = [0.0] * k
    for j, i in enumerate(idx):
        out[i] = coords[j]
    return np.array(out, dtype=object)


def _subgroup_exp(G: MatrixLieGroup, idx, coords):
    """exp of the algebra element with ``coords`` on the basis indices ``idx``
    and zero elsewhere; over the quotient indices this is the section
    s(k) = exp(k)."""
    return G.exp(_embed(coords, idx, G.dim))


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
    over B x K, with g = n(nu) s(kc) and the section s(kc) = exp(kc).
    Stage 2 reduces the stage-1 bundle by K, which translates kc and acts on
    the fiber n by Ad_s(kc); that bundle's bracket and connection are zero,
    so the stage-2 scenario carries its fiber n and its two-form.  Returns
    both stage handles, each rebuilt by build_reduced_bundle from its
    scenario, and the fiber reshuffle beta identifying the direct reduction
    with the composition.  The canonical intermediate connection is the
    N-projection of the scenario form dressed by the section of K;
    overriding it skips the exactness guarantee and reports the deviation
    instead.  Both deviations are sampled at STAGES_SAMPLES seeded points
    (the structure one once on a point base); a NaN one fails the gate.
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
    section = partial(_subgroup_exp, G, kidx)
    gen = c[np.ix_(N, K, N)].transpose(1, 0, 2)  # gen[j][p, q] = c[N_p, K_j, N_q]

    def a_n_body(xk):
        """N-block of s(kc)^-1 (A_G(x) dx + ds), carried to the stage-1
        fiber by Ad_s(kc), in the coordinates (x, kc)."""
        x, kc = xk[:d], xk[d:]
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
    if override_A_N is not None:
        if override_A_N.in_dim != d + s_dim or override_A_N.out_shape != (d + s_dim, r):
            raise DimensionMismatch("override connection table has the wrong shape")
        rng = np.random.default_rng(seed)
        dev = 0.0
        for _ in range(STAGES_SAMPLES):
            pt = np.concatenate([sc.baseB.sample(rng), rng.uniform(-1.5, 1.5, s_dim)])
            dev = _max_abs(
                dev,
                np.asarray(eval_map(override_A_N, pt), float)
                - np.asarray(eval_map(canonical, pt), float),
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

    A_K = SmoothMap(d, d * s_dim, lambda x: eval_map(sc.A, x)[:, K], out_shape=(d, s_dim))
    rep = RepW(r, gen, lambda h: Ad(G, section(h[:s_dim, -1]), section(-h[:s_dim, -1]), N))
    stage2 = build_reduced_bundle(
        PrincipalScenario(sc.baseB, abelian(s_dim), A_K, rep, stage1.bundle.omega)
    )

    beta = np.eye(k)[K + N]

    # transport the direct-reduction structure through beta and compare
    rng = np.random.default_rng(seed + 1)
    sdev = 0.0
    # a point base (d = 0) has one point, and every sample would repeat it
    for _ in range(STAGES_SAMPLES if d else 1):
        x = sc.baseB.sample(rng)
        Gd, Cd, Od = direct.bundle.tables(x)
        G2v, C2v, O2v = stage2.bundle.tables(x)
        sdev = _max_abs(
            sdev,
            np.einsum("pa,iab,qb->ipq", beta, Gd, beta) - G2v,
            np.einsum("pg,gab,qa,rb->pqr", beta, Cd, beta, beta) - C2v,
            np.einsum("pa,aij->pij", beta, Od) - O2v,
        )
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
    quotient machinery over base B x K at g = n(nu) s(kc), and the K-stage
    applies the same connection-corrected body velocity.  Nothing here looks
    at the direct reduction, so comparing the two is a real consistency test.
    """
    sc = res.scenario
    d = sc.baseB.n
    r, s_dim = len(res.nidx), len(res.kidx)
    section = partial(_subgroup_exp, sc.G, res.kidx)
    n_of = partial(_subgroup_exp, sc.G, res.nidx)

    def L1(xk, xkdot, n_mat, n_dot, w):
        x, kc = xk[:d], xk[d:]
        xdot, kcdot = xkdot[:d], xkdot[d:]
        nu, nudot = n_mat[:r, -1], n_dot[:r, -1]
        nG, nG_dot = _dual.directional(n_of, np.asarray(nu, dtype=object), nudot)
        s_mat, s_dot = _dual.directional(section, np.asarray(kc, dtype=object), kcdot)
        g = nG @ s_mat
        gdot = nG_dot @ s_mat + nG @ s_dot
        return L(x, xdot, g, gdot, w)

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
    grad = _lagrangian_gradient(sys, s)
    return float(grad[2 * n : 2 * n + len(etabar)] @ etabar)
