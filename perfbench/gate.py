"""Correctness gate applied to every job run.

A run of a job passes when
  * its exit code is the expected one;
  * a check-axioms job reports exactly the expected violated conditions;
  * with exit 0, no artifact holds a non-finite number;
  * the values extracted from its artifacts match ``references.json`` to
    ``RTOL``/``ATOL``;
  * a job with an oracle ends where the plain numpy RK4 model ends, to
    ``ORACLE_TOL``;
  * its artifacts are byte-identical to the first run of the same job with
    the same seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

import oracle

RTOL = 1e-8
ATOL = 1e-9
ORACLE_TOL = 1e-9

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def artifacts(out_dir):
    return sorted(
        f for f in os.listdir(out_dir) if os.path.isfile(os.path.join(out_dir, f))
    )


def digest(out_dir):
    """sha256 of every artifact, by file name."""
    out = {}
    for name in artifacts(out_dir):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


def _flatten(node, prefix, out):
    if isinstance(node, dict):
        for key, val in node.items():
            _flatten(val, f"{prefix}.{key}" if prefix else key, out)
    elif isinstance(node, list):
        for i, val in enumerate(node):
            _flatten(val, f"{prefix}[{i}]", out)
    else:
        out[prefix] = node


def extract(out_dir):
    """Report scalars and the final row of every CSV, as one flat mapping.

    JSON reports flatten to dotted paths (the per-step ``series`` lists are
    left out; the final trajectory row stands for them).  Each CSV gives its
    row count and its last row, as a list in column order.
    """
    values = {}
    for name in artifacts(out_dir):
        path = os.path.join(out_dir, name)
        if name.endswith(".json"):
            with open(path, encoding="utf-8") as fh:
                report = json.load(fh)
            flat = {}
            _flatten(report, "", flat)
            for key, val in flat.items():
                if "series" not in key:
                    values[f"{name}:{key}"] = val
        elif name.endswith(".csv"):
            _, rows = _read_csv(path)
            values[f"{name}:rows"] = len(rows)
            if rows:
                values[f"{name}:last"] = rows[-1]
    return values


def last_row(path):
    """The last CSV row by column name."""
    header, rows = _read_csv(path)
    return dict(zip(header, rows[-1]))


def nonfinite(out_dir):
    """Artifacts holding NaN or infinity, with the first offending entry."""
    bad = []
    for name in artifacts(out_dir):
        path = os.path.join(out_dir, name)
        if name.endswith(".csv"):
            _, rows = _read_csv(path)
            for i, row in enumerate(rows):
                if not all(math.isfinite(x) for x in row):
                    bad.append(f"{name} row {i + 1} is not finite")
                    break
        elif name.endswith(".json"):
            with open(path, encoding="utf-8") as fh:
                flat = {}
                _flatten(json.load(fh), "", flat)
            for key, val in flat.items():
                if isinstance(val, float) and not math.isfinite(val):
                    bad.append(f"{name}:{key} is not finite")
                    break
    return bad


def _close(got, want):
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(_close(g, w) for g, w in zip(got, want))
        )
    if isinstance(want, bool) or not isinstance(want, (int, float)):
        return got == want
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return False
    return abs(got - want) <= ATOL + RTOL * abs(want)


def compare(values, ref):
    """Mismatches between extracted values and their reference."""
    problems = []
    for key in sorted(set(values) | set(ref)):
        if key not in ref:
            problems.append(f"{key} has no reference")
        elif key not in values:
            problems.append(f"{key} is missing")
        elif not _close(values[key], ref[key]):
            problems.append(f"{key} = {values[key]!r}, reference {ref[key]!r}")
    return problems[:5]


def oracle_final(job):
    """The oracle's final state for ``job``, the CSV it checks, and columns."""
    cfg = job.config
    if job.oracle == "rigid_body":
        v = oracle.rigid_body(cfg["initial"]["v"], cfg["dt"], job.steps)
        return v, "trajectory.csv", ["v1", "v2", "v3"]
    if job.oracle == "central_potential":
        y = oracle.central_potential(
            cfg["initial"]["q"], cfg["initial"]["qdot"], cfg["dt"], job.steps
        )
        return y, "trajectory.csv", ["q1", "q2", "qd1", "qd2"]
    if job.oracle == "rigid_body_momentum":
        nu0 = oracle.RIGID_BODY_INERTIA * np.asarray(cfg["rigid_body"]["v"])
        steps = round(cfg["t_end"] / cfg["dt"])
        nu = oracle.rigid_body_momentum(nu0, cfg["dt"], steps)
        return nu, "hp_rigid_body.csv", ["nu1", "nu2", "nu3"]
    raise KeyError(job.oracle)


def load_references():
    if not os.path.exists(REFERENCES):
        return {}
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


def reference_key(workload, job, variant):
    return f"{workload}/{job.name}/{variant}"


def check(job, exit_code, out_dir, ref, first_digest=None):
    """Problems with one run of ``job``; an empty list means it passed.

    ``ref`` is the job's reference mapping (None when missing), and
    ``first_digest`` the artifact digest of the first run of this job in
    the same benchmark run, if there was one.
    """
    if exit_code != job.expect_exit:
        return [f"exit code {exit_code}, expected {job.expect_exit}"]
    problems = []
    if exit_code == 0:
        problems += nonfinite(out_dir)
        if problems:
            return problems
    values = extract(out_dir)
    if job.command == "check-axioms":
        failed = tuple(
            values[k.replace(".passed", ".name")]
            for k in sorted(values)
            if k.startswith("axiom_report.json:conditions[") and k.endswith(".passed")
            and values[k] is False
        )
        if sorted(failed) != sorted(job.expect_failed):
            problems.append(f"violated {list(failed)}, expected {list(job.expect_failed)}")
    if job.oracle:
        want, name, cols = oracle_final(job)
        path = os.path.join(out_dir, name)
        final = last_row(path) if os.path.exists(path) else {}
        got = np.array([final.get(c, math.nan) for c in cols])
        gap = float(np.max(np.abs(got - want)))
        if not gap <= ORACLE_TOL * (1.0 + float(np.max(np.abs(want)))):
            problems.append(f"final state is {gap:.3e} from the numpy RK4 oracle")
    if ref is None:
        problems.append("no stored reference for this job and variant")
    else:
        problems += compare(values, ref)
    if first_digest is not None:
        now = digest(out_dir)
        if now != first_digest:
            changed = sorted(
                k for k in set(now) | set(first_digest) if now.get(k) != first_digest.get(k)
            )
            problems.append(f"artifacts differ from the first run: {', '.join(changed)}")
    return problems
