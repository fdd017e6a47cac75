"""Seeded job lists for the four benchmark workloads.

A workload is a fixed list of jobs.  The seed only picks one of
``N_VARIANTS`` input variants (``seed % N_VARIANTS``); each variant perturbs
initial states, polynomial coefficients and bracket inputs, so the stored
references in ``references.json`` cover every seed.  No perturbation changes
the amount of work: the time grids, sample counts and dimensions are fixed,
and RK4 is fixed-step.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

N_VARIANTS = 8

WORKLOADS = ("simulate-group", "simulate-point", "structure", "brackets")

# catalog systems whose construction each workload's jobs pay for; setup_s
# times a fresh interpreter building exactly these
SETUP_SYSTEMS = {
    "simulate-group": [
        ("rigid_body", {}),
        ("parameter_lagrangian", {}),
        ("heisenberg_stages", {}),
    ],
    "simulate-point": [
        ("flat_bundle_particle", {}),
        ("flat_bundle_particle", {"omega_mode": "closed"}),
        ("central_potential_particle", {}),
        ("free_particle_planar", {}),
    ],
    "structure": [
        ("rigid_body", {}),
        ("parameter_lagrangian", {}),
        ("heisenberg_stages", {}),
    ],
    "brackets": [
        ("rigid_body", {}),
        ("flat_bundle_particle", {"omega_mode": "closed"}),
    ],
}

DT = 1e-3
GROUP_T_END = 0.2  # 200 RK4 steps per simulate-group job
POINT_T_END = 0.4  # 400 RK4 steps per simulate-point job
REDUCE_T_END = 0.02  # 20 steps: reduction, not integration, dominates
STAGES_T_END = 0.01  # 10 steps on each of the direct and staged routes
HP_T_END = 1.0  # 1000 steps of the momentum-side flow per system

# closure-condition sample points behind each catalog reduced system, and
# the three further checks stages_reduce runs (stage one, stage two, direct)
CATALOG_AXIOM_SAMPLES = 100
STAGES_AXIOM_SAMPLES = 3 * 100
AXIOM_JOB_SAMPLES = 200  # per check-axioms job on an inline bundle


@dataclass(frozen=True)
class Job:
    """One unit of work, run as a CLI process or as a bracket library job.

    ``command`` is the lpmech subcommand, or ``"brackets"`` for a library
    job.  ``config`` becomes the job's YAML config (CLI) or its JSON input
    (brackets).  ``steps``, ``axiom_samples`` and ``bracket_evals`` are the
    work the job's inputs ask for at this commit; they feed the throughput
    figures.  ``expect_failed`` names the closure conditions a check-axioms
    job must report as violated.  ``oracle`` names the plain numpy RK4
    model whose final state the job's trajectory must match.
    """

    name: str
    command: str
    config: dict
    expect_exit: int = 0
    steps: int = 0
    axiom_samples: int = 0
    bracket_evals: int = 0
    expect_failed: tuple = ()
    oracle: str = None


def variant_of(seed: int) -> int:
    return int(seed) % N_VARIANTS


def _rng(variant, name):
    return np.random.default_rng([variant, zlib.crc32(name.encode())])


def _vec(x):
    return [float(v) for v in np.asarray(x, dtype=float).ravel()]


def _scaled(rng, base, rel=0.1):
    base = np.asarray(base, dtype=float)
    return _vec(base * (1.0 + rel * rng.uniform(-1.0, 1.0, base.shape)))


def _shifted(rng, base, amp):
    base = np.asarray(base, dtype=float)
    return _vec(base + amp * rng.uniform(-1.0, 1.0, base.shape))


def _signed(rng, lo, hi):
    return float(rng.choice([-1.0, 1.0]) * rng.uniform(lo, hi))


# ---------------------------------------------------------------------------
# simulate-group


def _group_jobs(variant):
    jobs = []
    spec = (
        ("rigid_body", lambda r: _scaled(r, [0.4, 0.7, -0.3]), "rigid_body"),
        (
            "parameter_lagrangian",
            lambda r: _scaled(r, [0.4, 0.7, -0.3])
            + _shifted(r, [0.0, 0.0, 1.0], 0.1)
            + _shifted(r, [0.0, 0.0, 0.0], 0.05),
            None,
        ),
        ("heisenberg_stages", lambda r: _scaled(r, [0.7, -0.4, 0.9]), None),
    )
    for system, v0, oracle in spec:
        name = f"simulate.{system}"
        rng = _rng(variant, name)
        cfg = {
            "system": system,
            "t_end": GROUP_T_END,
            "dt": DT,
            "seed": variant,
            "initial": {"q": [], "qdot": [], "v": v0(rng)},
        }
        jobs.append(
            Job(
                name,
                "simulate",
                cfg,
                steps=round(GROUP_T_END / DT),
                axiom_samples=CATALOG_AXIOM_SAMPLES,
                oracle=oracle,
            )
        )
    return jobs


# ---------------------------------------------------------------------------
# simulate-point


def _point_initial(system, rng):
    if system == "flat_bundle_particle":
        return {
            "q": _shifted(rng, [0.1, 0.3], 0.05),
            "qdot": _scaled(rng, [1.0, 0.2]),
            "v": _shifted(rng, [1.0, 0.0], 0.1),
        }
    if system == "central_potential_particle":
        return {
            "q": _shifted(rng, [1.2, 0.0], 0.05),
            "qdot": _scaled(rng, [0.1, 0.9]),
            "v": [],
        }
    return {
        "q": _shifted(rng, [1.0, 0.5], 0.1),
        "qdot": _scaled(rng, [0.3, -0.2]),
        "v": [],
    }


def _point_jobs(variant):
    spec = (
        ("simulate", "flat_bundle_particle", {}, None),
        ("simulate", "flat_bundle_particle", {"omega_mode": "closed"}, None),
        ("simulate", "central_potential_particle", {}, "central_potential"),
        ("simulate", "free_particle_planar", {}, None),
        ("noether", "flat_bundle_particle", {"omega_mode": "closed"}, None),
        ("noether", "central_potential_particle", {}, None),
        ("noether", "free_particle_planar", {}, None),
    )
    jobs = []
    for command, system, params, oracle in spec:
        name = f"{command}.{system}" + (".closed" if params else "")
        rng = _rng(variant, name)
        cfg = {
            "system": system,
            "t_end": POINT_T_END,
            "dt": DT,
            "seed": variant,
            "initial": _point_initial(system, rng),
        }
        if params:
            cfg["params"] = dict(params)
        jobs.append(
            Job(name, command, cfg, steps=round(POINT_T_END / DT), oracle=oracle)
        )
    return jobs


# ---------------------------------------------------------------------------
# structure: inline polynomial bundles with verdicts known by construction

_J = ((0, 1, -1.0), (1, 0, 1.0))  # the 2x2 rotation generator, as entries


def _box(n):
    return [[-1.0, 1.0] for _ in range(n)]


def _term(index, powers, coeff):
    return {"index": list(index), "powers": list(powers), "coeff": float(coeff)}


def _unit(n, i, p=1):
    out = [0] * n
    out[i] = p
    return out


def _gradient_connection(n, rng):
    """Gamma_i = d_i(phi) J for a cubic phi: flat, since every Gamma_i is a
    multiple of one matrix and the mixed second derivatives agree."""
    a = rng.uniform(-0.5, 0.5, n)
    B = rng.uniform(-0.5, 0.5, (n, n))
    B = B + B.T
    e = float(rng.uniform(-0.3, 0.3))
    terms = []
    for i in range(n):
        # d_i phi = a_i + sum_j B_ij x_j (+ the cubic e x0^2 x1 part)
        parts = [([0] * n, a[i])] + [(_unit(n, j), B[i, j]) for j in range(n)]
        if i == 0:
            parts.append(([1, 1] + [0] * (n - 2), 2.0 * e))
        if i == 1:
            parts.append(([2] + [0] * (n - 1), e))
        for powers, coeff in parts:
            for r, c, sign in _J:
                terms.append(_term([i, r, c], powers, sign * coeff))
    return {"polynomial": {"terms": terms}}


def _eps_entries():
    for g, a, b in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        yield (g, a, b), 1.0
        yield (g, b, a), -1.0


def _axiom_bundles(rng_for):
    """(name, bundle node, expected violated conditions)."""
    out = []

    rng = rng_for("gradient_connection_n3")
    out.append(
        (
            "gradient_connection_n3",
            {"n": 3, "m": 2, "bounds": _box(3), "gamma": _gradient_connection(3, rng)},
            (),
        )
    )

    rng = rng_for("closed_two_form_n2")
    terms = []
    for a in range(2):
        coeffs = rng.uniform(-1.0, 1.0, 4)
        for powers, coeff in zip(([0, 0], [1, 0], [0, 1], [1, 1]), coeffs):
            terms.append(_term([a, 0, 1], powers, coeff))
            terms.append(_term([a, 1, 0], powers, -coeff))
    out.append(
        (
            "closed_two_form_n2",
            {
                "n": 2,
                "m": 2,
                "bounds": _box(2),
                "gamma": _gradient_connection(2, rng),
                "omega": {"polynomial": {"terms": terms}},
            },
            (),
        )
    )

    rng = rng_for("open_two_form_n3")
    s, t = _signed(rng, 0.5, 1.5), float(rng.uniform(-0.5, 0.5))
    terms = [
        _term([0, 0, 1], [0, 0, 1], s),
        _term([0, 1, 0], [0, 0, 1], -s),
        _term([0, 0, 1], [0, 0, 0], t),
        _term([0, 1, 0], [0, 0, 0], -t),
    ]
    out.append(
        (
            "open_two_form_n3",
            {"n": 3, "m": 1, "bounds": _box(3), "omega": {"polynomial": {"terms": terms}}},
            ("d_two_form_closed",),
        )
    )

    rng = rng_for("curved_connection_n2")
    alpha = _signed(rng, 0.5, 1.5)
    terms = [_term([0, r, c], [0, 1], sign * alpha) for r, c, sign in _J]
    out.append(
        (
            "curved_connection_n2",
            {"n": 2, "m": 2, "bounds": _box(2), "gamma": {"polynomial": {"terms": terms}}},
            ("f_curvature_coupling",),
        )
    )

    rng = rng_for("varying_bracket_n2")
    lam, mu = float(rng.uniform(1.5, 2.5)), _signed(rng, 0.3, 0.6)
    terms = []
    for idx, sign in _eps_entries():
        terms.append(_term(idx, [0, 0], sign * lam))
        terms.append(_term(idx, [1, 0], sign * mu))
    out.append(
        (
            "varying_bracket_n2",
            {"n": 2, "m": 3, "bounds": _box(2), "c": {"polynomial": {"terms": terms}}},
            ("e_bracket_parallel",),
        )
    )
    return out


def _structure_jobs(variant):
    jobs = []
    for name, bundle, failed in _axiom_bundles(
        lambda tag: _rng(variant, "check-axioms." + tag)
    ):
        jobs.append(
            Job(
                f"check-axioms.{name}",
                "check-axioms",
                {"bundle": bundle, "seed": variant, "samples": AXIOM_JOB_SAMPLES},
                expect_exit=2 if failed else 0,
                axiom_samples=AXIOM_JOB_SAMPLES,
                expect_failed=failed,
            )
        )

    name = "reduce.inline_scenario"
    rng = _rng(variant, name)
    conn = [
        _term([i, g], _unit(2, j), rng.uniform(-0.5, 0.5))
        for i in range(2)
        for g in range(3)
        for j in range(2)
    ]
    scenario = {
        "base": {"n": 2, "bounds": _box(2)},
        "group": {"name": "heisenberg3", "coupling": float(rng.uniform(0.8, 1.2))},
        "connection": {"polynomial": {"terms": conn}},
    }
    jobs.append(
        Job(
            name,
            "reduce",
            {"scenario": scenario, "seed": variant, "samples": 100},
            axiom_samples=100,
        )
    )

    for system, v0 in (
        ("rigid_body", [0.4, 0.7, -0.3]),
        ("parameter_lagrangian", [0.4, 0.7, -0.3, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]),
        ("heisenberg_stages", [0.7, -0.4, 0.9]),
    ):
        name = f"reduce.{system}"
        rng = _rng(variant, name)
        cfg = {
            "system": system,
            "t_end": REDUCE_T_END,
            "dt": DT,
            "seed": variant,
            "initial": {"q": [], "qdot": [], "v": _shifted(rng, v0, 0.05)},
        }
        jobs.append(
            Job(
                name,
                "reduce",
                cfg,
                steps=round(REDUCE_T_END / DT),
                axiom_samples=CATALOG_AXIOM_SAMPLES,
            )
        )

    name = "stages.heisenberg_stages"
    rng = _rng(variant, name)
    cfg = {
        "system": "heisenberg_stages",
        "t_end": STAGES_T_END,
        "dt": DT,
        "seed": variant,
        "initial": {"q": [], "qdot": [], "v": _scaled(rng, [0.7, -0.4, 0.9])},
    }
    jobs.append(
        Job(
            name,
            "stages",
            cfg,
            steps=2 * round(STAGES_T_END / DT),
            axiom_samples=CATALOG_AXIOM_SAMPLES + STAGES_AXIOM_SAMPLES,
        )
    )
    return jobs


# ---------------------------------------------------------------------------
# brackets: five library jobs, one per section of brackets.py

BRACKET_COUNTS = {
    "jacobi_residual": 96,  # section-bracket Jacobi residuals
    "poisson_jacobi": 32,  # nested Poisson-bracket Jacobi sums
    "affine": 64,  # affine_bracket_check evaluations
    "legendre": 10,  # legendre / inverse_legendre round trips per system
}


def _brackets_jobs(variant):
    c = BRACKET_COUNTS
    d_so3 = 2 * 2 + 3
    jobs = []

    rng = _rng(variant, "brackets.jacobi")
    # linear sections (A, b, C, d) on the closed flat bundle (fiber 2) and on
    # the so3-fiber chart (fiber 3), each with a base point
    items = []
    for k in range(c["jacobi_residual"]):
        chart, m = (("flat_closed", 2), ("so3_fiber", 3))[k % 2]
        items.append(
            {
                "chart": chart,
                "sections": [
                    {
                        "A": rng.normal(size=(2, 2)).tolist(),
                        "b": rng.normal(size=2).tolist(),
                        "C": rng.normal(size=(m, 2)).tolist(),
                        "d": rng.normal(size=m).tolist(),
                    }
                    for _ in range(3)
                ],
                "q": rng.uniform(0.2, 0.8, 2).tolist(),
            }
        )
    jobs.append(
        Job("brackets.jacobi", "brackets", {"section": "jacobi", "items": items},
            bracket_evals=len(items))
    )

    rng = _rng(variant, "brackets.poisson")
    # triples of quadratic observables (c0, c1, c2) on the so3-fiber chart
    items = [
        {
            "observables": [
                {
                    "c0": float(rng.normal()),
                    "c1": rng.normal(size=d_so3).tolist(),
                    "c2": rng.normal(size=(d_so3, d_so3)).tolist(),
                }
                for _ in range(3)
            ],
            "q": rng.uniform(-1, 1, 2).tolist(),
            "p": rng.normal(size=2).tolist(),
            "nu": rng.normal(size=3).tolist(),
        }
        for _ in range(c["poisson_jacobi"])
    ]
    jobs.append(
        Job("brackets.poisson", "brackets", {"section": "poisson", "items": items},
            bracket_evals=len(items))
    )

    rng = _rng(variant, "brackets.affine")
    # pairs of polynomial sections on the six-dimensional semidirect chart
    items = [
        {
            "sections": [
                {
                    "aX": rng.normal(size=2).tolist(),
                    "bX": rng.normal(size=(2, 2)).tolist(),
                    "aw": rng.normal(size=6).tolist(),
                    "bw": rng.normal(size=(6, 2)).tolist(),
                }
                for _ in range(2)
            ],
            "q": rng.uniform(-1, 1, 2).tolist(),
            "p": rng.normal(size=2).tolist(),
            "nu": rng.normal(size=6).tolist(),
        }
        for _ in range(c["affine"])
    ]
    jobs.append(
        Job("brackets.affine", "brackets", {"section": "affine", "items": items},
            bracket_evals=len(items))
    )

    rng = _rng(variant, "brackets.hp_flows")
    cfg = {
        "section": "hp_flows",
        "rigid_body": {"v": _scaled(rng, [0.4, 0.7, -0.3])},
        "flat_closed": {
            "q": _shifted(rng, [0.1, 0.3], 0.05),
            "qdot": _scaled(rng, [1.0, 0.2]),
            "v": _shifted(rng, [1.0, 0.0], 0.1),
        },
        "t_end": HP_T_END,
        "dt": DT,
    }
    jobs.append(
        Job("brackets.hp_flows", "brackets", cfg, steps=2 * round(HP_T_END / DT),
            oracle="rigid_body_momentum")
    )

    rng = _rng(variant, "brackets.legendre")
    cfg = {
        "section": "legendre",
        "rigid_body": [rng.normal(size=3).tolist() for _ in range(c["legendre"])],
        "flat_closed": [
            {
                "q": rng.uniform(0.2, 0.8, 2).tolist(),
                "qdot": rng.normal(size=2).tolist(),
                "v": rng.normal(size=2).tolist(),
            }
            for _ in range(c["legendre"])
        ],
    }
    jobs.append(Job("brackets.legendre", "brackets", cfg))
    return jobs


_JOB_LISTS = {
    "simulate-group": _group_jobs,
    "simulate-point": _point_jobs,
    "structure": _structure_jobs,
    "brackets": _brackets_jobs,
}


def jobs_for(workload: str, seed: int) -> list:
    """The job list of ``workload`` for ``seed``; same seed, same jobs."""
    if workload not in _JOB_LISTS:
        raise KeyError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")
    return _JOB_LISTS[workload](variant_of(seed))
