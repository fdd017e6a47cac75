#!/usr/bin/env python3
"""End-to-end and traced benchmark for lpmech.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload simulate-group --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 0

``--trace 0`` times whole passes over the workload's jobs (CLI jobs in
fresh processes, the bracket job in this process) for ``--seconds`` seconds
and reports the end-to-end metrics.  ``--trace 1`` runs one untraced and one
traced pass in this process and reports the per-layer metrics.  Every job
run goes through the correctness gate (gate.py).  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  Detailed
results, and the spans of a traced run, go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# pinned before numpy loads here or in any child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import yaml

import gate
import oracle
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_LEAD = 2  # set-up runs before the first pass; one more follows each pass
MIN_PASSES = 2  # the byte-identity check needs a second run of every job
SELF_SUM_TOL_S = 1e-6

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "steps/s",
    "peak_rss_mb": "MB",
}
# printed and recorded for the workloads they apply to, but not part of the
# gated metric set: each is zero on some workload
INFO_UNITS = {
    "axiom_samples_per_s": "samples/s",
    "bracket_evals_per_s": "evals/s",
    "fail_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


# ---------------------------------------------------------------------------
# environment


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("LPMECH_SEED", None)
    return env


def import_lpmech():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lpmech

    if Path(lpmech.__file__).resolve().parent != SRC / "lpmech":
        raise BenchError(f"lpmech was imported from {lpmech.__file__}, not from {SRC}")
    return lpmech


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    res = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return res.stdout.strip() or "unknown"


def environment():
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# inputs and job runners


def write_inputs(jobs, in_dir):
    """Write each job's generated input; return {job name: path}."""
    in_dir.mkdir(parents=True)
    paths = {}
    for job in jobs:
        if job.command == "brackets":
            path = in_dir / f"{job.name}.json"
            path.write_text(json.dumps(job.config, indent=1, sort_keys=True) + "\n")
        else:
            path = in_dir / f"{job.name}.yaml"
            path.write_text(yaml.safe_dump(job.config, sort_keys=True))
        paths[job.name] = path
    return paths


def run_cli_process(job, cfg, out_dir, env):
    cmd = [sys.executable, "-m", "lpmech.cli", job.command, "--config", str(cfg), "--out", str(out_dir)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    return time.perf_counter() - t0, proc.returncode, proc.stderr.strip()


def run_cli_inprocess(job, cfg, out_dir, env=None):
    from lpmech import cli

    argv = [job.command, "--config", str(cfg), "--out", str(out_dir)]
    err = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # an uncaught error is a crash: exit code 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    return time.perf_counter() - t0, code, err.getvalue().strip()


def run_library(job, inputs, out_dir, env=None):
    import brackets

    with open(inputs, encoding="utf-8") as fh:
        config = json.load(fh)
    t0 = time.perf_counter()
    try:
        brackets.run(config, str(out_dir))
        code, err = 0, ""
    except Exception as exc:  # a failed library job counts as exit code 1
        code, err = 1, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, code, err


class Run:
    """One benchmark run of one workload: jobs, inputs, passes, gate tallies."""

    def __init__(self, workload, seed, trace):
        self.workload = workload
        self.seed = seed
        self.variant = workloads.variant_of(seed)
        self.jobs = workloads.jobs_for(workload, seed)
        self.dir = OUT / f"{workload}-seed{seed}-trace{trace}"
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.inputs = write_inputs(self.jobs, self.dir / "inputs")
        self.refs = gate.load_references()
        self.first_digest = {}
        self.attempted = 0
        self.failures = []
        self.cli_bytes = {}
        self.timeline = []  # (pass, job name, seconds), in run order
        self.probes = []  # speed probes; job k ran between probes k and k + 1

    def run_pass(self, index, cli_runner, run_job=lambda fn: fn()):
        """Run and gate every job once, with a speed probe between jobs;
        return the pass's summed job seconds."""
        env = child_env()
        if not self.probes:
            self.probes.append(speed.probe())
        total = 0.0
        for job in self.jobs:
            out_dir = self.dir / f"pass{index}" / job.name
            out_dir.mkdir(parents=True)
            runner = run_library if job.command == "brackets" else cli_runner
            secs, code, err = run_job(lambda: runner(job, self.inputs[job.name], out_dir, env))
            self.probes.append(speed.probe())
            self.timeline.append((index, job.name, secs))
            total += secs
            self.check(job, code, err, out_dir)
        return total

    def times(self, by, scaled):
        """Job seconds, raw or at the reference speed, grouped by pass
        (``by=0``) or by job name (``by=1``)."""
        secs = [t for _, _, t in self.timeline]
        if scaled:
            secs = speed.scaled_times(secs, self.probes)
        out = {}
        for row, t in zip(self.timeline, secs):
            out.setdefault(row[by], []).append(t)
        return out

    def check(self, job, code, err, out_dir):
        ref = self.refs.get(gate.reference_key(self.workload, job, self.variant))
        problems = gate.check(job, code, out_dir, ref, self.first_digest.get(job.name))
        self.first_digest.setdefault(job.name, gate.digest(out_dir))
        if job.command != "brackets":
            size = sum(f.stat().st_size for f in out_dir.iterdir())
            self.cli_bytes[out_dir.parent.name] = self.cli_bytes.get(out_dir.parent.name, 0) + size
        self.attempted += 1
        if problems:
            detail = f"{job.name} ({out_dir.parent.name}): " + "; ".join(problems)
            if err:
                detail += f" [stderr: {err.splitlines()[-1]}]"
            self.failures.append(detail)
            print(f"gate: {detail}", file=sys.stderr)

    def work(self, attr):
        return sum(getattr(job, attr) for job in self.jobs)


# ---------------------------------------------------------------------------
# measurements


def time_setup(workload):
    """Seconds for a fresh interpreter to import the CLI and build the
    workload's catalog systems."""
    code = (
        "import lpmech.cli\n"
        "from lpmech.systems import build_system\n"
        f"for name, params in {workloads.SETUP_SYSTEMS[workload]!r}:\n"
        "    build_system(name, **params)\n"
    )
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT, check=True)
    return time.perf_counter() - t0


def _sum_of_medians(per_job):
    return sum(statistics.median(v) for v in per_job.values())


def end_to_end(workload, seed, seconds):
    run = Run(workload, seed, 0)
    in_process = workload == "brackets"
    if in_process:
        import_lpmech()
    passes = []
    # set-up runs are spread over the run, so that a slow spell in one part
    # of it does not set the median
    setups = [time_setup(workload) for _ in range(SETUP_LEAD)]
    t_start = time.perf_counter()
    while True:
        passes.append(run.run_pass(len(passes), run_cli_process))
        setups.append(time_setup(workload))
        elapsed = time.perf_counter() - t_start
        # stop unless one more pass, at the mean pass time so far, still fits
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break

    scaled_times, raw_times = run.times(1, scaled=True), run.times(1, scaled=False)
    wall_s = _sum_of_medians(scaled_times)
    raw_wall_s = _sum_of_medians(raw_times)
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    metrics = {
        "wall_s": wall_s,
        "setup_s": speed.scaled_setup(statistics.median(setups), statistics.median(run.probes)),
        "steps_per_s": run.work("steps") / wall_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    info = {
        "axiom_samples_per_s": run.work("axiom_samples") / wall_s,
        "bracket_evals_per_s": run.work("bracket_evals") / wall_s,
        "fail_frac": len(run.failures) / run.attempted,
        "raw_wall_s": raw_wall_s,
        "raw_setup_s": statistics.median(setups),
        "raw_steps_per_s": run.work("steps") / raw_wall_s,
        "numpy_rk4_floor_steps_per_s": oracle.step_rate(),
        "probe_median_s": statistics.median(run.probes),
    }
    detail = {
        "passes": len(passes),
        "pass_raw_s": passes,
        "setup_runs_s": setups,
        "pass_scaled_s": [sum(v) for v in run.times(0, scaled=True).values()],
        "job_median_raw_s": {k: statistics.median(v) for k, v in raw_times.items()},
        "job_median_scaled_s": {k: statistics.median(v) for k, v in scaled_times.items()},
        "timeline": run.timeline,
        "probes": run.probes,
        "work_per_pass": {
            "steps": run.work("steps"),
            "axiom_samples": run.work("axiom_samples"),
            "bracket_evals": run.work("bracket_evals"),
        },
    }
    return run, metrics, info, detail


# per-layer metric names, in report order, with units
def _calls_self(layers):
    out = []
    for layer in layers:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    return out


SUBCOMMANDS = ("check-axioms", "simulate", "reduce", "stages", "noether")

PER_LAYER = (
    _calls_self(["dual.grad_hess", "dual.gradient", "dual.directional"])
    + _calls_self(["smoothmap.eval_map", "smoothmap.jacobian"])
    + [("smoothmap.eval_map_per_accelerations", "ratio")]
    + _calls_self(["liegroups.unhat", "liegroups.hat", "liegroups.exp"])
    + _calls_self(["lpbundle.check_axioms"])
    + [("lpbundle.check_axioms.samples", "count")]
    + _calls_self(["lpbundle.jacobi_residual", "lpbundle.section_bracket"])
    + [("dynamics.integrate_lp.steps", "count"), ("dynamics.integrate_lp.self_s", "s")]
    + _calls_self([
        "dynamics.accelerations", "dynamics.energy", "dynamics.lp_operator",
        "dynamics.noether_current", "dynamics.noether_drift_residual",
    ])
    + [("dynamics.write_trajectory_csv.bytes", "bytes"),
       ("dynamics.write_trajectory_csv.self_s", "s"),
       ("dynamics.ad_passes_per_step", "ratio")]
    + _calls_self([
        "hamiltonian.poisson_bracket", "hamiltonian.hamiltonian_vector_field",
        "hamiltonian.legendre", "hamiltonian.inverse_legendre",
    ])
    + [("hamiltonian.integrate_hp.steps", "count"), ("hamiltonian.integrate_hp.self_s", "s"),
       ("hamiltonian.inverse_legendre.newton_iters", "count")]
    + _calls_self([
        "reduction.build_reduced_bundle", "reduction.reduce_lagrangian",
        "reduction.stages_reduce", "reduction.two_stage_lagrangian",
    ])
    + [("reduction.axiom_checks_per_stages_job", "ratio")]
    + _calls_self(["systems.build_system"])
    + _calls_self([f"cli.main.{sub}" for sub in SUBCOMMANDS])
    + [("cli.bytes_written", "bytes"),
       ("trace.overhead_s", "s")]
)


def layer_metrics(tracer, n_stages_jobs, bytes_written, overhead_s):
    table = tracer.table()
    counts = tracer.counts
    names = tracer.names

    def calls(layer):
        return table.get(layer, (0, 0.0))[0]

    def nested(child, ancestor):
        flags = tracer.under(ancestor)
        cid = names.index(child) if child in names else -1
        return sum(1 for sid, nid in enumerate(tracer.name) if nid == cid and flags[sid])

    def newton_iters():
        pid = names.index("hamiltonian.inverse_legendre") if "hamiltonian.inverse_legendre" in names else -2
        cid = names.index("dual.grad_hess") if "dual.grad_hess" in names else -1
        return sum(
            1 for sid, nid in enumerate(tracer.name)
            if nid == cid and tracer.parent[sid] >= 0 and tracer.name[tracer.parent[sid]] == pid
        )

    steps = counts["dynamics.integrate_lp.steps"] + counts["hamiltonian.integrate_hp.steps"]
    accel = calls("dynamics.accelerations")
    special = {
        "smoothmap.eval_map_per_accelerations":
            nested("smoothmap.eval_map", "dynamics.accelerations") / accel if accel else 0.0,
        "dynamics.ad_passes_per_step":
            (calls("dual.grad_hess") + calls("dual.gradient")) / steps if steps else 0.0,
        "hamiltonian.inverse_legendre.newton_iters": newton_iters(),
        "reduction.axiom_checks_per_stages_job":
            nested("lpbundle.check_axioms", "reduction.stages_reduce") / n_stages_jobs
            if n_stages_jobs else 0.0,
        "cli.bytes_written": bytes_written,
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for name, unit in PER_LAYER:
        layer, stat = name.rsplit(".", 1)
        if name in special:
            value = special[name]
        elif stat == "calls":
            value = calls(layer)
        elif stat == "self_s":
            value = table.get(layer, (0, 0.0))[1]
        else:
            value = counts[name]
        out[name] = (value, unit)
    return out


def traced(workload, seed):
    import tracing

    import_lpmech()
    run = Run(workload, seed, 1)
    run.run_pass(0, run_cli_inprocess)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.run_pass(1, run_cli_inprocess, tracer.run_job)
    finally:
        tracer.uninstall()
    untraced_s, traced_s = (sum(v) for v in run.times(0, scaled=True).values())
    tracer.write(run.dir / "spans.csv.gz")
    n_stages = sum(1 for job in run.jobs if job.command == "stages")
    layers = layer_metrics(tracer, n_stages, run.cli_bytes.get("pass1", 0), traced_s - untraced_s)
    with open(run.dir / "layers.txt", "w", encoding="utf-8") as fh:
        for name, (value, unit) in layers.items():
            fh.write(f"{name:<48} {value:>16.6g} {unit}\n")
    self_sum_error_s = tracer.self_sum_error()
    self_ok = self_sum_error_s <= SELF_SUM_TOL_S
    if not self_ok:
        print("trace: self times of a job do not sum to its root span", file=sys.stderr)
    detail = {
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "spans": len(tracer.start),
        "self_sum_error_s": self_sum_error_s,
    }
    return run, layers, self_ok, detail


# ---------------------------------------------------------------------------
# reporting


def bench_one(workload, seed, seconds, trace):
    if trace:
        run, layers, self_ok, detail = traced(workload, seed)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        print(f"workload {workload}  seed {seed} (variant {run.variant})  traced pass, "
              f"{len(run.jobs)} jobs, {detail['spans']} spans")
        for name, (value, unit) in layers.items():
            print(f"  {name:<46} {value:>14.6g} {unit}")
        correct = self_ok and not run.failures
        info = {}
    else:
        run, values, info, detail = end_to_end(workload, seed, seconds)
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
        print(f"workload {workload}  seed {seed} (variant {run.variant})  "
              f"{detail['passes']} passes of {len(run.jobs)} jobs; times scaled to the "
              f"reference speed (probe median {info['probe_median_s'] * 1000:.2f} ms, "
              f"reference {speed.REFERENCE_S * 1000:.0f} ms)")
        raw = {"wall_s": "raw_wall_s", "setup_s": "raw_setup_s", "steps_per_s": "raw_steps_per_s"}
        for name, value in values.items():
            line = f"  {name:<22} {value:>14.6g} {END_TO_END_UNITS[name]}"
            if name in raw:
                line += f"   (raw {info[raw[name]]:.6g})"
            if name == "steps_per_s":
                line += f"   (numpy RK4 floor {info['numpy_rk4_floor_steps_per_s']:.6g} steps/s)"
            print(line)
        for name, unit in INFO_UNITS.items():
            value = info[name]
            shown = "n/a" if value == 0 and name != "fail_frac" else f"{value:.6g}"
            print(f"  {name:<22} {shown:>14} {unit}")
        correct = not run.failures
    result = {
        "workload": workload,
        "seed": seed,
        "variant": run.variant,
        "trace": trace,
        "environment": environment(),
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures,
        "metrics": metrics,
        "informational": info,
        "detail": detail,
        "tolerances": {"rtol": gate.RTOL, "atol": gate.ATOL, "oracle": gate.ORACLE_TOL},
    }
    with open(OUT / f"{run.dir.name}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lpmech" / "cli.py").is_file():
        print(f"perfbench: no lpmech sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    speed.pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [bench_one(w, args.seed, args.seconds, args.trace) for w in names]
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary, sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
