"""The brackets workload's library jobs: no subcommand reaches hamiltonian.

Five sections, each one job: section-bracket Jacobi residuals, nested
Poisson-bracket Jacobi sums, affine-observable closure checks, the
momentum-side flows of the rigid body and of the closed flat bundle, and
Legendre round trips.  Every lpmech function is reached through its module
attribute, so the traced run's rebinding sees each call.  A section writes
``brackets.json`` or, for the flows, two trajectory CSVs.
"""

from __future__ import annotations

import json
import os

import numpy as np

from lpmech import dynamics, hamiltonian, lpbundle, systems
from lpmech.smoothmap import SmoothMap


def _eps():
    c = np.zeros((3, 3, 3))
    for a, b, g in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[g, a, b] = 1.0
        c[g, b, a] = -1.0
    return c


def _box2():
    return lpbundle.ChartDomain(2, np.tile([-4.0, 4.0], (2, 1)))


def so3_fiber_chart():
    return lpbundle.LPBundleChart(_box2(), 3, c=_eps())


def semidirect_chart():
    """Rotation algebra acting on vectors, fiber dimension six."""
    eps = _eps()
    c = np.zeros((6, 6, 6))
    c[:3, :3, :3] = eps
    for a in range(3):
        for j in range(3):
            for k in range(3):
                c[3 + k, a, 3 + j] = eps[a, j, k]
                c[3 + k, 3 + j, a] = -eps[a, j, k]
    return lpbundle.LPBundleChart(_box2(), 6, c=c)


def linear_section(n, m, A, b, C, d):
    A, b, C, d = (np.asarray(v, dtype=float) for v in (A, b, C, d))
    X = SmoothMap(
        n,
        n,
        lambda q: np.array(
            [sum(A[i, j] * q[j] for j in range(n)) + b[i] for i in range(n)],
            dtype=object,
        ),
        out_shape=(n,),
    )
    w = SmoothMap(
        n,
        m,
        lambda q: np.array(
            [sum(C[a, j] * q[j] for j in range(n)) + d[a] for a in range(m)],
            dtype=object,
        ),
        out_shape=(m,),
    )
    return lpbundle.Section(X, w)


def poly_section(n, m, aX, bX, aw, bw):
    aX, bX, aw, bw = (np.asarray(v, dtype=float) for v in (aX, bX, aw, bw))

    def Xb(q):
        return [aX[i] + sum(bX[i, j] * q[j] for j in range(n)) for i in range(n)]

    def wb(q):
        return [
            aw[a] + sum(bw[a, j] * q[j] for j in range(n)) + 0.3 * q[0] * q[1 % n] * aw[a]
            for a in range(m)
        ]

    return lpbundle.Section(SmoothMap(n, n, Xb), SmoothMap(n, m, wb))


def quad_observable(d, c0, c1, c2):
    c1, c2 = np.asarray(c1, dtype=float), np.asarray(c2, dtype=float)

    def fn(x):
        val = c0
        for i in range(d):
            val = val + c1[i] * x[i]
            for j in range(d):
                val = val + 0.5 * c2[i, j] * x[i] * x[j]
        return val

    return hamiltonian.DualObservable(SmoothMap(d, 1, fn))


def _rigid_body_hamiltonian(rec):
    inertia = np.asarray(rec.params["inertia"], dtype=float)
    return hamiltonian.Hamiltonian.from_callable(
        rec.bundle,
        lambda q, p, nu: 0.5 * sum(nu[a] * nu[a] / inertia[a] for a in range(3)),
    )


def _flat_hamiltonian(rec):
    gi = np.linalg.inv(np.asarray(rec.params["metric"], dtype=float))
    hi = np.linalg.inv(np.asarray(rec.params["fiber_metric"], dtype=float))

    def fn(q, p, nu):
        val = 0.0
        for i in range(2):
            for j in range(2):
                val = val + 0.25 * gi[i, j] * p[i] * p[j] + 0.25 * hi[i, j] * nu[i] * nu[j]
        return val

    return hamiltonian.Hamiltonian.from_callable(rec.bundle, fn)


def _report(out_dir, values):
    with open(os.path.join(out_dir, "brackets.json"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(values, indent=2, sort_keys=True) + "\n")


def jacobi(inputs, out_dir):
    flat = systems.build_system("flat_bundle_particle", omega_mode="closed")
    charts = {"flat_closed": flat.bundle, "so3_fiber": so3_fiber_chart()}
    worst = 0.0
    for item in inputs["items"]:
        b = charts[item["chart"]]
        Z = [linear_section(b.n, b.m, **s) for s in item["sections"]]
        worst = max(worst, lpbundle.jacobi_residual(b, Z[0], Z[1], Z[2], np.asarray(item["q"])))
    _report(out_dir, {"jacobi_residual_max": worst})


def poisson(inputs, out_dir):
    b3 = so3_fiber_chart()
    d = 2 * b3.n + b3.m
    worst = 0.0
    for item in inputs["items"]:
        fs = [quad_observable(d, **o) for o in item["observables"]]
        s = hamiltonian.HPState(item["q"], item["p"], item["nu"])
        total = 0.0
        for a, u, w in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            inner = SmoothMap(
                d,
                1,
                lambda y, fu=fs[u], fw=fs[w]: hamiltonian.poisson_bracket(b3, fu, fw, y),
            )
            total += hamiltonian.poisson_bracket(b3, fs[a], inner, s)
        worst = max(worst, abs(total))
    _report(out_dir, {"poisson_jacobi_max": worst})


def affine(inputs, out_dir):
    b6 = semidirect_chart()
    worst = 0.0
    for item in inputs["items"]:
        Z1, Z2 = (poly_section(2, 6, **s) for s in item["sections"])
        s = hamiltonian.HPState(item["q"], item["p"], item["nu"])
        worst = max(worst, hamiltonian.affine_bracket_check(b6, Z1, Z2, s))
    _report(out_dir, {"affine_bracket_max": worst})


def hp_flows(inputs, out_dir):
    rb = systems.build_system("rigid_body")
    flat = systems.build_system("flat_bundle_particle", omega_mode="closed")
    t_end, dt = inputs["t_end"], inputs["dt"]
    inertia = np.asarray(rb.params["inertia"], dtype=float)
    nu0 = inertia * np.asarray(inputs["rigid_body"]["v"], dtype=float)
    hp_rb = hamiltonian.integrate_hp(
        rb.bundle,
        _rigid_body_hamiltonian(rb),
        hamiltonian.HPState(np.zeros(0), np.zeros(0), nu0),
        0.0,
        t_end,
        dt,
    )
    fl0 = inputs["flat_closed"]
    hs0 = hamiltonian.legendre(
        flat.lagrangian, dynamics.LPState(fl0["q"], fl0["qdot"], fl0["v"])
    )
    hp_fl = hamiltonian.integrate_hp(flat.bundle, _flat_hamiltonian(flat), hs0, 0.0, t_end, dt)
    hamiltonian.write_hp_trajectory_csv(os.path.join(out_dir, "hp_rigid_body.csv"), hp_rb)
    hamiltonian.write_hp_trajectory_csv(os.path.join(out_dir, "hp_flat_closed.csv"), hp_fl)


def legendre_round_trips(inputs, out_dir):
    rb = systems.build_system("rigid_body")
    flat = systems.build_system("flat_bundle_particle", omega_mode="closed")
    worst = 0.0
    zero3 = dynamics.LPState(np.zeros(0), np.zeros(0), np.zeros(3))
    for v in inputs["rigid_body"]:
        s = dynamics.LPState(np.zeros(0), np.zeros(0), v)
        back = hamiltonian.inverse_legendre(rb.lagrangian, hamiltonian.legendre(rb.lagrangian, s), zero3)
        worst = max(worst, float(np.max(np.abs(back.v - s.v))))
    for item in inputs["flat_closed"]:
        s = dynamics.LPState(item["q"], item["qdot"], item["v"])
        guess = dynamics.LPState(s.q, np.zeros(2), np.zeros(2))
        back = hamiltonian.inverse_legendre(
            flat.lagrangian, hamiltonian.legendre(flat.lagrangian, s), guess
        )
        worst = max(
            worst,
            float(np.max(np.abs(back.qdot - s.qdot))),
            float(np.max(np.abs(back.v - s.v))),
        )
    _report(out_dir, {"legendre_roundtrip_max": worst})


SECTIONS = {
    "jacobi": jacobi,
    "poisson": poisson,
    "affine": affine,
    "hp_flows": hp_flows,
    "legendre": legendre_round_trips,
}


def run(inputs: dict, out_dir: str) -> None:
    """Run the library job named by ``inputs["section"]``."""
    SECTIONS[inputs["section"]](inputs, out_dir)
