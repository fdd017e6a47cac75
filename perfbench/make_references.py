#!/usr/bin/env python3
"""Regenerate references.json from the current lpmech sources.

Runs every job of every workload once per input variant (CLI jobs in this
process), requires each run to pass the gate's exit-code, verdict,
finiteness and oracle checks, and stores the values the gate compares.
Run it from the root of a checkout, only when a change to lpmech is meant
to change results:

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import shutil
import sys

import gate
import run
import workloads


def main():
    run.import_lpmech()
    work = run.OUT / "references"
    if work.exists():
        shutil.rmtree(work)
    refs = {}
    for workload in workloads.WORKLOADS:
        for variant in range(workloads.N_VARIANTS):
            jobs = workloads.jobs_for(workload, variant)
            base = work / workload / str(variant)
            inputs = run.write_inputs(jobs, base / "inputs")
            for job in jobs:
                out = base / job.name
                out.mkdir(parents=True)
                runner = run.run_library if job.command == "brackets" else run.run_cli_inprocess
                _, code, err = runner(job, inputs[job.name], out)
                values = gate.extract(out) if out.exists() else {}
                problems = gate.check(job, code, out, values)
                if problems:
                    print(f"{workload}/{job.name}/{variant}: {'; '.join(problems)} {err}", file=sys.stderr)
                    return 1
                refs[gate.reference_key(workload, job, variant)] = values
            print(f"{workload} variant {variant}: {len(jobs)} jobs", flush=True)
    payload = {"rtol": gate.RTOL, "atol": gate.ATOL, "variants": workloads.N_VARIANTS, "jobs": refs}
    with open(gate.REFERENCES, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("{\n")
        fh.write(f' "rtol": {gate.RTOL!r}, "atol": {gate.ATOL!r}, "variants": {workloads.N_VARIANTS},\n')
        fh.write(' "jobs": {\n')
        items = sorted(payload["jobs"].items())
        for i, (key, values) in enumerate(items):
            sep = "," if i + 1 < len(items) else ""
            fh.write(f"  {json.dumps(key)}: {json.dumps(values, sort_keys=True)}{sep}\n")
        fh.write(" }\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
