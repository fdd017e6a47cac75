#!/usr/bin/env python3
"""Checks of the benchmark harness itself; exits non-zero on the first failure.

    python3 perfbench/selftest.py

* The gate rejects the known blow-up: ``simulate`` on ``rigid_body`` with
  ``v: [40, 70, -30]``, ``dt: 0.5`` and ``t_end: 2`` writes NaN rows and
  exits 0.
* The gate rejects a result off its reference and a changed artifact.
* The same seed gives the same inputs, and no seed changes the work.
* Traced self times add up to the root span of each job.
* BENCHMARK.json names exactly the metrics run.py reports.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import gate
import run
import tracing
import workloads


def check(cond, what):
    if not cond:
        raise AssertionError(what)
    print(f"ok: {what}")


def test_gate_rejects_nan_rows(base):
    job = workloads.Job(
        "simulate.rigid_body_blowup",
        "simulate",
        {
            "system": "rigid_body",
            "t_end": 2.0,
            "dt": 0.5,
            "initial": {"q": [], "qdot": [], "v": [40.0, 70.0, -30.0]},
        },
        steps=4,
    )
    inputs = run.write_inputs([job], base / "inputs")
    out = base / job.name
    out.mkdir()
    _, code, _ = run.run_cli_process(job, inputs[job.name], out, run.child_env())
    problems = gate.check(job, code, out, gate.extract(out))
    check(bool(problems), f"gate fails the rigid-body blow-up (exit {code}): {problems}")
    if code == 0:
        check(any("not finite" in p for p in problems), "the failure names the non-finite artifact")


def test_gate_rejects_changes(base):
    job = workloads.jobs_for("simulate-point", 0)[2]  # central potential, has an oracle
    inputs = run.write_inputs([job], base / "inputs2")
    out = base / job.name
    out.mkdir()
    _, code, _ = run.run_cli_inprocess(job, inputs[job.name], out)
    ref = gate.extract(out)
    first = gate.digest(out)
    check(gate.check(job, code, out, ref, first) == [], "an unchanged run passes")
    off = dict(ref)
    off["simulate_report.json:energy_initial"] *= 1.0 + 1e-6
    check(gate.check(job, code, out, off, first) != [], "a value off its reference fails")
    with open(out / "simulate_report.json", "a", encoding="utf-8") as fh:
        fh.write("\n")
    check(
        any("differ" in p for p in gate.check(job, code, out, ref, first)),
        "a changed artifact fails the byte-identity check",
    )


def test_inputs():
    for w in workloads.WORKLOADS:
        a, b = workloads.jobs_for(w, 5), workloads.jobs_for(w, 5)
        check(a == b, f"{w}: same seed, same jobs")
        work = {
            tuple((j.name, j.command, j.steps, j.axiom_samples, j.bracket_evals) for j in workloads.jobs_for(w, s))
            for s in range(workloads.N_VARIANTS)
        }
        check(len(work) == 1, f"{w}: every variant asks for the same work")


def test_tracer():
    tr = tracing.Tracer()

    def leaf():
        time.sleep(0.001)

    def mid():
        leaf_w()
        leaf_w()

    leaf_w = tr.wrap("leaf", leaf)
    mid_w = tr.wrap("mid", mid)
    tr.run_job(mid_w)
    tr.run_job(leaf_w)
    table = tr.table()
    check(table["leaf"][0] == 3 and table["mid"][0] == 1, "span counts")
    check(tr.self_sum_error() < 1e-9, "self times sum to each root span")
    check(sum(tr.under("mid")) == 2, "parent links reach the caller")


def test_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    check([m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS), "end_to_end names")
    check([m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.values()), "end_to_end units")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER, "per_layer names and units")
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), "workload names")


def main():
    run.import_lpmech()
    base = run.OUT / "selftest"
    if base.exists():
        shutil.rmtree(base)
    base.mkdir(parents=True)
    test_inputs()
    test_tracer()
    test_benchmark_json()
    test_gate_rejects_nan_rows(base)
    test_gate_rejects_changes(base)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
