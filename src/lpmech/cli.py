"""Command-line front end for the bundle toolkit.

Subcommands:

    check-axioms   sample the bracket-closure conditions, write a report
    simulate       integrate a Lagrangian system, write trajectory CSV and
                   a diagnostics report (energy drift, residuals, currents)
    reduce         build a reduced bundle from a principal-bundle scenario,
                   dump structure-function samples, run the reduced flow
    stages         compare direct reduction against the two-stage route
    noether        write per-generator current and drift-residual columns

Configuration lives in a single YAML file (UTF-8, nested key-value pairs);
every scalar setting can be overridden by the matching command-line flag,
and the seed falls back to the LPMECH_SEED environment variable when
neither the flag nor the config provides one.  Structure functions and
Lagrangians of user-defined bundles are written as polynomial tables,
lists of terms that each carry the tensor entry they feed (``index``), one
exponent per input variable (``powers``), and a coefficient.

Exit codes: 0 success, 1 configuration or usage error, 2 axiom or
invariance violation, 3 numerical failure.  Output files are written
atomically (temp file, then rename) and CSV numbers use 17 significant
digits with LF line endings, so reruns with identical configuration and
seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import warnings

import numpy as np
import yaml

from ._textfile import csv_text, write_text
from .errors import (
    AxiomViolation,
    ConfigError,
    DimensionMismatch,
    InvarianceViolation,
    NotNormal,
    NotSupported,
    NumericalFailure,
)
from .lpbundle import ChartDomain, LPBundleChart, _max_abs, check_axioms, table_shapes
from .smoothmap import SmoothMap, constant_map

# dynamics, reduction, liegroups and systems are imported by the functions
# that run them, so a process loads only what its subcommand needs

# fixed ceilings: on each dimension a config names (base n, fiber m, group
# dim, trivial W), on axiom sample points, and on the numbers a structure
# dump holds; every documented, tested and benchmarked config stays below
MAX_DIM = 12
MAX_SAMPLES = 1000
MAX_DUMP_VALUES = 10**6


# ---------------------------------------------------------------------------
# config loading and schema helpers


def load_config(path):
    """Parse the YAML config file; raise ConfigError with a location hint."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}")
    try:
        data = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = ""
        if mark is not None:
            where = f" at line {mark.line + 1}, column {mark.column + 1}"
        raise ConfigError(f"{path}: invalid syntax{where}")
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return data


def _need(node, key, label):
    if not isinstance(node, dict):
        raise ConfigError(f"{label}: expected a mapping")
    if key not in node:
        raise ConfigError(f"{label}: missing required key '{key}'")
    return node[key]


def _known_keys(node, allowed, label):
    """Require a mapping with keys from ``allowed`` only: a misspelled key
    would otherwise fall back to its default unnoticed."""
    if not isinstance(node, dict):
        raise ConfigError(f"{label}: expected a mapping")
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        raise ConfigError(f"{label}: unknown key '{unknown[0]}'")


def _num(val, label):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        msg = f"{label}: expected a number, got {type(val).__name__}"
        if isinstance(val, str) and "e" in val.lower():
            with contextlib.suppress(ValueError):  # PyYAML reads 1e-3 as a string
                float(val)
                msg += "; YAML needs a decimal point and a signed exponent, as in 1.0e-3"
        raise ConfigError(msg)
    try:
        return float(val)
    except OverflowError:
        raise ConfigError(
            f"{label}: must be finite, got an integer beyond the float range"
        ) from None


def _finite(val, label):
    val = _num(val, label)
    if not np.isfinite(val):
        raise ConfigError(f"{label}: must be finite, got {val:g}")
    return val


def _int(val, label, least, most=np.inf):
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{label}: expected an integer, got {type(val).__name__}")
    if val < least:
        raise ConfigError(f"{label}: must be at least {least}, got {val}")
    if val > most:
        raise ConfigError(f"{label}: must be at most {most}, got {val}")
    return val


def _shape_of(val):
    """The shape of a nested list, read off the first entry at each depth."""
    shape = []
    while isinstance(val, list):
        shape.append(len(val))
        val = val[0] if val else None
    return tuple(shape)


def _numbers(val, label, shape=None):
    """A number or a nested list of numbers as a float array of ``shape``
    (a tuple; by default the shape of the first entries).  The first leaf
    that is not a finite number, or entry of the wrong shape, is named by
    its index path."""
    shape = _shape_of(val) if shape is None else shape
    if _shape_of(val)[:1] != shape[:1]:
        raise ConfigError(f"{label}: expected shape {shape}, got {_shape_of(val)}")
    if not shape:
        return np.array(_finite(val, label))
    rows = [_numbers(v, f"{label}[{i}]", shape[1:]) for i, v in enumerate(val)]
    return np.array(rows).reshape(shape)


def _resolve_seed(cfg):
    """Seed precedence: ``--seed`` (which main folds into the config), the
    config key, LPMECH_SEED, then 0.  Whichever source wins must give a
    nonnegative integer.
    """
    if "seed" in cfg:
        return _int(cfg["seed"], "seed", least=0)
    env = os.environ.get("LPMECH_SEED")
    if env is None:
        return 0
    try:
        seed = int(env)
    except ValueError:
        raise ConfigError(f"LPMECH_SEED must be an integer, got {env!r}")
    return _int(seed, "LPMECH_SEED", least=0)


def _resolve_run(cfg):
    """Time grid and integrator settings."""
    from .dynamics import _step_count

    t_end = _num(cfg.get("t_end", 1.0), "t_end")
    dt = _num(cfg.get("dt", 1e-3), "dt")
    method = cfg.get("method", "rk4")
    for label, val in (("t_end", t_end), ("dt", dt)):
        if not 0 < val < np.inf:
            raise ConfigError(f"{label}: must be positive and finite, got {val:g}")
    try:
        _step_count(t_end, dt)
    except ValueError as exc:
        raise ConfigError(f"t_end/dt: {exc} (t_end {t_end:g}, dt {dt:g})")
    if method not in ("rk4", "euler"):
        raise ConfigError(f"method: expected 'rk4' or 'euler', got {method!r}")
    return t_end, dt, method


def _resolve_out(cfg):
    out = cfg.get("out", ".")
    if not isinstance(out, str):
        raise ConfigError("out: expected a directory path")
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out: cannot create directory {out}: {exc.strerror or exc}")
    return out


def _resolve_tol(cfg):
    tol = _num(cfg.get("tol", 1e-8), "tol")
    if not 0 <= tol < np.inf:
        raise ConfigError(f"tol: must be nonnegative and finite, got {tol:g}")
    return tol


# ---------------------------------------------------------------------------
# polynomial tables


def polynomial_map(n_vars, shape, terms, label):
    """Compile a coefficient table into a smooth map.

    ``terms`` is a list of mappings with keys ``powers`` (one exponent per
    input variable), ``coeff``, and, for tensor-valued maps, ``index``
    naming the entry the term adds to.  Entries no term feeds stay zero.
    The body multiplies each ``coeff`` by ``x[i] ** p`` over the term's nonzero
    powers alone, in variable order (also for p = 1: a ``_Jet`` power is not ``x[i]``).
    """
    shape = tuple(int(s) for s in shape)
    total = int(np.prod(shape, dtype=int)) if shape else 1
    if not isinstance(terms, list):
        raise ConfigError(f"{label}: expected a list of terms")
    compiled = []
    for ti, term in enumerate(terms):
        tl = f"{label}[{ti}]"
        _known_keys(term, ("index", "powers", "coeff"), tl)
        powers = term.get("powers", [0] * n_vars)
        if not isinstance(powers, list) or len(powers) != n_vars:
            raise ConfigError(f"{tl}.powers: expected {n_vars} exponents")
        powers = [_int(p, f"{tl}.powers[{i}]", least=0) for i, p in enumerate(powers)]
        coeff = _finite(_need(term, "coeff", tl), f"{tl}.coeff")
        index = term.get("index", [])
        if not isinstance(index, list) or len(index) != len(shape):
            raise ConfigError(f"{tl}.index: expected {len(shape)} entries")
        idx = []
        for axis, extent in enumerate(shape):
            i = _int(index[axis], f"{tl}.index[{axis}]", least=0)
            if i >= extent:
                raise ConfigError(
                    f"{tl}.index[{axis}]: {i} out of range for extent {extent}"
                )
            idx.append(i)
        flat = int(np.ravel_multi_index(idx, shape)) if shape else 0
        compiled.append((flat, [(i, p) for i, p in enumerate(powers) if p], coeff))

    def body(x):
        vals = [0.0] * total
        for flat, factors, coeff in compiled:
            term = coeff
            for i, p in factors:
                term = term * x[i] ** p
            vals[flat] = vals[flat] + term
        arr = np.array(vals)
        return arr.reshape(shape) if shape else arr

    return SmoothMap(
        n_vars, total, body, out_shape=shape if shape else None, name=label
    )


def _table_field(node, key, n_vars, shape, label):
    """Read one table entry as a smooth map: a constant or polynomial table,
    or None when the key is absent."""
    sub = node.get(key)
    if sub is None:
        return None
    fl = f"{label}.{key}"
    if not isinstance(sub, dict):
        raise ConfigError(f"{fl}: expected a mapping with 'constant' or 'polynomial'")
    _known_keys(sub, ("constant", "polynomial"), fl)
    if "constant" in sub and "polynomial" in sub:
        raise ConfigError(f"{fl}: give 'constant' or 'polynomial', not both")
    if "constant" in sub:
        return constant_map(n_vars, _numbers(sub["constant"], f"{fl}.constant", shape), key)
    if "polynomial" in sub:
        _known_keys(sub["polynomial"], ("terms",), f"{fl}.polynomial")
        terms = _need(sub["polynomial"], "terms", f"{fl}.polynomial")
        return polynomial_map(n_vars, shape, terms, f"{fl}.polynomial.terms")
    raise ConfigError(f"{fl}: expected 'constant' or 'polynomial'")


# ---------------------------------------------------------------------------
# building objects from config nodes


def domain_from_config(node, label, extra=()):
    _known_keys(node, ("n", "bounds", "periodic", *extra), label)
    n = _int(_need(node, "n", label), f"{label}.n", least=0, most=MAX_DIM)
    bounds = node.get("bounds")
    if bounds is not None:
        bounds = _numbers(bounds, f"{label}.bounds", (n, 2))
    periodic = node.get("periodic")
    if periodic is not None:
        if not isinstance(periodic, list) or len(periodic) != n:
            raise ConfigError(f"{label}.periodic: expected {n} booleans")
        for i, flag in enumerate(periodic):
            if not isinstance(flag, bool):
                raise ConfigError(f"{label}.periodic[{i}]: expected a boolean")
    try:
        return ChartDomain(n, bounds, periodic)
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}")


def bundle_from_config(node):
    label = "bundle"
    base = domain_from_config(node, label, ("m", "gamma", "c", "omega"))
    m = _int(_need(node, "m", label), f"{label}.m", least=0, most=MAX_DIM)
    n = base.n
    tables = {
        name: _table_field(node, name.lower(), n, shape, label)
        for name, shape in table_shapes(n, m)
    }
    return LPBundleChart(base, m, **tables)


def group_from_config(node, label):
    from .liegroups import abelian, heisenberg3, so3

    if isinstance(node, str):
        node = {"name": node}
    name = _need(node, "name", label)
    if name == "so3":
        _known_keys(node, ("name",), label)
        return so3()
    if name == "heisenberg3":
        _known_keys(node, ("name", "coupling"), label)
        return heisenberg3(_finite(node.get("coupling", 1.0), f"{label}.coupling"))
    if name == "abelian":
        _known_keys(node, ("name", "dim"), label)
        return abelian(_int(_need(node, "dim", label), f"{label}.dim", least=1, most=MAX_DIM))
    raise ConfigError(f"{label}.name: unknown group {name!r}")


def scenario_from_config(node):
    from .reduction import PrincipalScenario, defining_representation, trivial_representation

    label = "scenario"
    _known_keys(node, ("base", "group", "connection", "representation"), label)
    base = domain_from_config(_need(node, "base", label), f"{label}.base")
    G = group_from_config(_need(node, "group", label), f"{label}.group")
    d, k = base.n, G.dim
    A = _table_field(node, "connection", d, (d, k), label)
    rep = node.get("representation")
    repW = None
    if rep == "defining":
        repW = defining_representation(G)
    elif isinstance(rep, dict) and "trivial" in rep:
        _known_keys(rep, ("trivial",), f"{label}.representation")
        dim_w = _int(rep["trivial"], f"{label}.representation.trivial", least=1, most=MAX_DIM)
        repW = trivial_representation(G, dim_w)
    elif rep is not None:
        raise ConfigError(
            f"{label}.representation: expected 'defining' or {{trivial: dim}}"
        )
    try:
        return PrincipalScenario(base, G, A=A, repW=repW)
    except (ValueError, DimensionMismatch) as exc:
        raise ConfigError(f"{label}: {exc}")


def _catalog_name(cfg):
    """The catalog name a config gives, or None for an inline bundle.

    A catalog name and an inline bundle exclude each other, so a config
    cannot silently shadow itself.
    """
    name = cfg.get("system")
    if name is not None and "bundle" in cfg:
        raise ConfigError("give either 'system' or 'bundle', not both")
    if name is not None and not isinstance(name, str):
        raise ConfigError("system: expected a catalog name")
    if name is None and "bundle" not in cfg:
        raise ConfigError("config must name a catalog 'system' or define a 'bundle'")
    return name


def _catalog_record(cfg, name):
    """The catalog system ``name``, built with the config's ``params``."""
    from .systems import build_system

    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params: expected a mapping")
    params = {k: v if v is None or isinstance(v, str) else _numbers(v, f"params.{k}")
              for k, v in params.items()}
    try:
        return build_system(name, **params)
    except KeyError as exc:
        raise ConfigError(exc.args[0])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"params: {exc}")


def _inline_bundle(cfg):
    """The inline bundle and the polynomial map of its Lagrangian, or None
    for the map when the config gives no 'lagrangian'."""
    bundle = bundle_from_config(cfg["bundle"])
    if "lagrangian" not in cfg:
        return bundle, None
    _known_keys(cfg["lagrangian"], ("polynomial",), "lagrangian")
    poly = _need(cfg["lagrangian"], "polynomial", "lagrangian")
    _known_keys(poly, ("terms",), "lagrangian.polynomial")
    terms = _need(poly, "terms", "lagrangian.polynomial")
    n_vars = 2 * bundle.n + bundle.m
    return bundle, polynomial_map(n_vars, (), terms, "lagrangian.polynomial.terms")


def resolve_bundle(cfg):
    """(name, bundle) of the chart a command checks.  An inline config is
    validated as resolve_system validates it, but no Lagrangian is built."""
    name = _catalog_name(cfg)
    if name is None:
        return "inline", _inline_bundle(cfg)[0]
    record = _catalog_record(cfg, name)
    return record.name, record.bundle


def resolve_system(cfg):
    """Build the record the command will operate on."""
    name = _catalog_name(cfg)
    if name is not None:
        return _catalog_record(cfg, name)
    from .dynamics import LPLagrangian
    from .systems import SystemRecord

    bundle, L = _inline_bundle(cfg)
    lag = None if L is None else LPLagrangian(bundle, L, name="inline")
    return SystemRecord(name="inline", bundle=bundle, lagrangian=lag)


def resolve_initial(cfg, record):
    from .dynamics import LPState

    node = cfg.get("initial")
    if node is None:
        if record.initial is None:
            raise ConfigError("initial: required (no catalog default available)")
        return record.initial
    _known_keys(node, ("q", "qdot", "v"), "initial")
    n, m = record.bundle.n, record.bundle.m
    q = _numbers(_need(node, "q", "initial"), "initial.q", (n,))
    if not record.bundle.base.contains(q):
        raise ConfigError(
            f"initial.q: {q.tolist()} lies outside the chart box "
            f"{record.bundle.base.bounds.tolist()}"
        )
    qdot = _numbers(_need(node, "qdot", "initial"), "initial.qdot", (n,))
    v = _numbers(node.get("v", [0.0] * m), "initial.v", (m,))
    return LPState(q, qdot, v)


# ---------------------------------------------------------------------------
# report writers


def _write_json(path, payload):
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _is_trajectory(content):
    """Whether content is a dynamics.Trajectory; none exists while dynamics
    is not loaded, and check-axioms does not load it."""
    dynamics = sys.modules.get(f"{__package__}.dynamics")
    return dynamics is not None and isinstance(content, dynamics.Trajectory)


def _non_finite(content, where=""):
    """(where, value) of the first infinite or NaN number of an artifact, or
    None: a JSON payload (where is a key path), CSV (header, rows) or a
    Trajectory (where names a row and a column), or text (never checked)."""
    if _is_trajectory(content):
        from .dynamics import _trajectory_table

        header, rows = _trajectory_table(content)
        content = header, list(rows)
    if isinstance(content, tuple) and not where:  # CSV
        header, rows = content
        bad = ~np.isfinite(np.asarray(rows, dtype=float).reshape(len(rows), len(header)))
        if not bad.any():
            return None
        i, j = np.argwhere(bad)[0]
        return f"row {i + 1}, column {header[j]}", float(rows[i][j])
    if isinstance(content, dict):
        items = ((f"{where}.{k}" if where else str(k), v) for k, v in content.items())
    elif isinstance(content, (list, tuple)):
        items = ((f"{where}[{i}]", v) for i, v in enumerate(content))
    elif isinstance(content, float) and not math.isfinite(content):
        return where, content
    else:
        return None
    for key, child in items:
        hit = _non_finite(child, key)
        if hit is not None:
            return hit
    return None


def _write_artifacts(out, files):
    """Write a run's artifacts into ``out``; ``files`` maps each file name to
    a JSON payload (dict), CSV (header, rows), a Trajectory or text.  Every
    number of every artifact is checked before the first one is written: an
    infinite or NaN number is a ConfigError, and the run writes nothing."""
    for name, content in files.items():
        hit = _non_finite(content)
        if hit is not None:
            raise ConfigError(
                f"{name}: {hit[0]} is {hit[1]}: the numbers of this run leave the "
                f"float range, no output written"
            )
    for name, content in files.items():
        path = os.path.join(out, name)
        if _is_trajectory(content):
            from .dynamics import write_trajectory_csv

            write_trajectory_csv(path, content)
        elif isinstance(content, dict):
            _write_json(path, content)
        elif isinstance(content, tuple):
            write_text(path, csv_text(*content))
        else:
            write_text(path, content)


def _require_finite(report):
    """Raise ConfigError at the first condition of an axiom report whose
    residual or scale is not finite: the tables of finite config values
    left the float range there, which verifies no violation."""
    for c in report.conditions:
        if _non_finite([c.max_residual, c.scale]) is not None:
            raise ConfigError(
                f"{c.name}: residual {c.max_residual:.3e}, scale {c.scale:.3e} at the "
                f"sample point {_fmt_vec(c.worst_point)}: the tables leave the float range"
            )


# ---------------------------------------------------------------------------
# commands


def cmd_check_axioms(cfg):
    name, bundle = resolve_bundle(cfg)
    tol = _resolve_tol(cfg)
    samples = _int(cfg.get("samples", 100), "samples", least=1, most=MAX_SAMPLES)
    seed = _resolve_seed(cfg)
    out = _resolve_out(cfg)

    report = check_axioms(bundle, n_samples=samples, seed=seed, tol=tol)
    _require_finite(report)
    _write_artifacts(
        out, {"axiom_report.txt": report.as_text() + "\n", "axiom_report.json": report.as_dict()}
    )

    if report.passed:
        print(f"{name}: all closure conditions hold (tol {tol:g})")
        return 0
    for cond in report.conditions:
        if not cond.passed:
            print(
                f"violated: {cond.name} (max residual {cond.max_residual:.3e})",
                file=sys.stderr,
            )
    print(f"{name}: FAIL, see axiom_report.txt", file=sys.stderr)
    return 2


def _lp_residual_max(sys, traj, jets):
    """Largest equation residual when the solved accelerations are fed back,
    at 25 evenly spaced grid points; ``jets`` holds the jet of L at each
    state of ``traj``; NaN if any residual is NaN."""
    from .dynamics import accelerations, lp_operator

    # sorted(set(...)), not np.unique, whose first call imports numpy.ma
    idx = sorted(set(np.linspace(0, len(traj) - 1, 25).astype(int).tolist()))
    worst = 0.0
    for i in idx:
        s, jet = traj.states[i], jets[i]
        qdd, vd = accelerations(sys, s, jet=jet)
        worst = _max_abs(worst, *lp_operator(sys, s, qdd, vd, jet=jet))
    return worst


def _drift_max(series):
    """Largest distance of a series from its first entry; NaN if any
    entry is NaN."""
    return _max_abs(np.subtract(series, series[0]))


def cmd_simulate(cfg):
    from .dynamics import energy, integrate_lp, noether_current

    record = resolve_system(cfg)
    if record.lagrangian is None:
        raise ConfigError("simulate needs a 'lagrangian' for the inline bundle")
    s0 = resolve_initial(cfg, record)
    t_end, dt, method = _resolve_run(cfg)
    seed = _resolve_seed(cfg)
    out = _resolve_out(cfg)
    sys_ = record.lagrangian

    traj = integrate_lp(sys_, s0, 0.0, t_end, dt, method)
    # the integrator's jets of sys_ serve every diagnostic: no further AD pass
    energies = [energy(sys_, s, jet=jet) for s, jet in zip(traj.states, traj.jets)]
    drift = _drift_max(energies)
    resid = _lp_residual_max(sys_, traj, traj.jets)
    payload = {
        "system": record.name,
        "method": method,
        "t_end": t_end,
        "dt": dt,
        "seed": seed,
        "rows": len(traj),
        "energy_initial": energies[0],
        "energy_drift_max": drift,
        "lp_residual_max": resid,
    }
    if record.action is not None:
        act = record.action
        series = [
            [noether_current(sys_, act, s, eta, jet=jet) for s, jet in zip(traj.states, traj.jets)]
            for eta in np.eye(act.dim_g)
        ]
        payload["noether"] = {
            "initial": [col[0] for col in series],
            "final": [col[-1] for col in series],
            "drift_max": [_drift_max(col) for col in series],
            "series": series,
        }
    _write_artifacts(out, {"trajectory.csv": traj, "simulate_report.json": payload})
    print(
        f"{record.name}: {len(traj)} rows, energy drift {drift:.3e}, "
        f"residual {resid:.3e}"
    )
    return 0


def _fmt_vec(v):
    return "[" + ", ".join(f"{x:.17g}" for x in np.atleast_1d(v)) + "]"


def _structure_sample_rows(bundle, n_dump, seed):
    """Seeded base points with the structure functions evaluated at each."""
    n, m = bundle.n, bundle.m
    header = [f"x{i + 1}" for i in range(n)]
    for name, shape in table_shapes(n, m):
        header += [name + "".join(f"_{i + 1}" for i in idx) for idx in np.ndindex(*shape)]
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_dump):
        x = bundle.base.sample(rng)
        rows.append(np.concatenate([x, *(t.ravel() for t in bundle.tables(x))]))
    return header, rows


def cmd_reduce(cfg):
    from .dynamics import integrate_lp
    from .reduction import build_reduced_bundle

    record = handle = None
    if "scenario" in cfg:
        if "system" in cfg:
            raise ConfigError("give either 'system' or 'scenario', not both")
        scenario = scenario_from_config(cfg["scenario"])
    else:
        record = resolve_system(cfg)
        handle = record.handle
        if handle is None:
            raise ConfigError(
                f"system '{record.name}' carries no principal-bundle scenario"
            )
        scenario = handle.scenario

    seed = _resolve_seed(cfg)
    if handle is not None and "samples" in cfg:
        raise ConfigError(
            f"samples: applies to inline scenarios only; system '{record.name}' "
            f"comes with its reduced bundle"
        )
    samples = _int(cfg.get("samples", 100), "samples", least=1, most=MAX_SAMPLES)
    n_dump = _int(cfg.get("dump_samples", 20), "dump_samples", least=0)
    d, m = scenario.baseB.n, scenario.k + scenario.dim_w
    width = d + sum(int(np.prod(shape)) for _, shape in table_shapes(d, m))  # one dump row
    if n_dump * width > MAX_DUMP_VALUES:
        raise ConfigError(
            f"dump_samples: {n_dump} rows of {width} values exceed the "
            f"{MAX_DUMP_VALUES} values a structure dump may hold"
        )
    out = _resolve_out(cfg)

    if handle is None:
        handle = build_reduced_bundle(scenario, n_samples=samples, seed=seed)

    files = {"structure_samples.csv": _structure_sample_rows(handle.bundle, n_dump, seed)}
    trajectory_rows = 0
    if record is not None:
        s0 = resolve_initial(cfg, record)
        t_end, dt, method = _resolve_run(cfg)
        traj = integrate_lp(record.lagrangian, s0, 0.0, t_end, dt, method)
        files["reduced_trajectory.csv"] = traj
        trajectory_rows = len(traj)

    payload = {
        "system": record.name if record is not None else "inline scenario",
        "group": scenario.G.name,
        "base_dim": scenario.baseB.n,
        "algebra_dim": scenario.k,
        "aux_dim": scenario.dim_w,
        "fiber_dim": handle.bundle.m,
        "axioms": handle.axioms,
        "structure_samples": n_dump,
        "trajectory_rows": trajectory_rows,
        "seed": seed,
    }
    files["reduce_report.json"] = payload
    _write_artifacts(out, files)
    extra = f", {trajectory_rows} trajectory rows" if trajectory_rows else ""
    print(
        f"reduced bundle (fiber dim {handle.bundle.m}) passed closure checks; "
        f"{n_dump} structure samples{extra}"
    )
    return 0


def cmd_stages(cfg):
    from .dynamics import LPState, integrate_lp, pullback
    from .reduction import stages_reduce, subgroup_indices, two_stage_lagrangian

    record = resolve_system(cfg)
    if record.handle is None:
        raise ConfigError(
            f"system '{record.name}' has no stored invariant Lagrangian to stage"
        )
    node = cfg.get("stages", {})
    _known_keys(node, ("nidx", "override_A_N"), "stages")
    nidx = node.get("nidx", record.params.get("nidx"))
    if nidx is None:
        raise ConfigError("stages.nidx: required (no catalog default)")
    if not isinstance(nidx, (list, tuple)):
        raise ConfigError(
            f"stages.nidx: expected a list of basis indices, got {type(nidx).__name__}"
        )
    sc = record.handle.scenario
    nidx = [_int(i, f"stages.nidx[{j}]", least=0) for j, i in enumerate(nidx)]
    try:
        nidx = subgroup_indices(nidx, sc.k)
    except ValueError as exc:
        raise ConfigError(f"stages.nidx: {exc}")

    seed = _resolve_seed(cfg)
    t_end, dt, method = _resolve_run(cfg)
    out = _resolve_out(cfg)

    dim = sc.baseB.n + sc.k - len(nidx)
    override = _table_field(node, "override_A_N", dim, (dim, len(nidx)), "stages")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            res = stages_reduce(record.handle, nidx, override_A_N=override, seed=seed)
        except NotNormal as exc:
            raise ConfigError(f"stages.nidx: {exc}")
        staged_sys = two_stage_lagrangian(res, record.unreduced_lagrangian)
    messages = [str(w.message) for w in caught]

    s0 = resolve_initial(cfg, record)
    direct = integrate_lp(record.lagrangian, s0, 0.0, t_end, dt, method)
    staged = integrate_lp(
        staged_sys, LPState(s0.q, s0.qdot, res.beta @ s0.v), 0.0, t_end, dt, method
    )
    # beta is a permutation, so its products are exact
    dv = direct.v_array() @ res.beta.T - staged.v_array()
    dq = direct.q_array() - staged.q_array()
    dev = _max_abs(dv, dq)

    rng = np.random.default_rng(seed)
    lag_dev = 0.0
    n, m = record.bundle.n, record.bundle.m
    pulled = pullback(staged_sys, res.beta, res.beta.T)
    for _ in range(25):
        q = record.bundle.base.sample(rng)
        qd = rng.standard_normal(n)
        v = rng.standard_normal(m)
        a = float(record.lagrangian.value(q, qd, v))
        b = float(pulled.value(q, qd, v))
        lag_dev = _max_abs(lag_dev, a - b)

    payload = {
        "system": record.name,
        "nidx": list(nidx),
        "override": override is not None,
        "structure_deviation": res.structure_deviation,
        "compatibility_deviation": res.compatibility_deviation,
        "lagrangian_deviation": lag_dev,
        "trajectory_deviation_max": dev,
        "rows": len(direct),
        "warnings": messages,
        "t_end": t_end,
        "dt": dt,
        "seed": seed,
    }
    _write_artifacts(out, {"stages_report.json": payload})
    for msg in messages:
        print(f"warning: {msg}", file=sys.stderr)
    tag = " (informational, overridden connection)" if override is not None else ""
    print(
        f"{record.name}: staged vs direct trajectory deviation {dev:.3e}{tag}"
    )
    return 0


def cmd_noether(cfg):
    from .dynamics import _step_count, integrate_lp, noether_drift_residual

    record = resolve_system(cfg)
    if record.action is None:
        raise ConfigError(f"system '{record.name}' declares no symmetry action")
    act = record.action
    s0 = resolve_initial(cfg, record)
    t_end, dt, method = _resolve_run(cfg)
    steps = _step_count(t_end, dt)
    if steps < 4:
        raise ConfigError(
            f"t_end/dt: the 5-point stencil of the drift residual needs at least "
            f"4 steps, got {steps} (t_end {t_end:g}, dt {dt:g})"
        )
    seed = _resolve_seed(cfg)
    out = _resolve_out(cfg)
    sys_ = record.lagrangian

    etas = cfg.get("etas", np.eye(act.dim_g).tolist())
    if not isinstance(etas, list) or not etas:
        raise ConfigError("etas: expected a nonempty list of algebra vectors")
    etas = _numbers(etas, "etas", (len(etas), act.dim_g))

    traj = integrate_lp(sys_, s0, 0.0, t_end, dt, method)
    N = len(traj)
    currents, residuals = zip(
        *(noether_drift_residual(sys_, act, traj, eta, jets=traj.jets) for eta in etas)
    )

    header = ["t"]
    header += [f"J{g + 1}" for g in range(len(etas))]
    header += [f"resid{g + 1}" for g in range(len(etas))]
    rows = []
    for i in range(2, N - 2):
        row = [traj.times[i]]
        row += [col[i] for col in currents]
        row += [col[i - 2] for col in residuals]
        rows.append(row)

    payload = {
        "system": record.name,
        "generators": len(etas),
        "rows": len(rows),
        "current_drift_max": [_drift_max(col) for col in currents],
        "residual_max": [_max_abs(col) for col in residuals],
        "t_end": t_end,
        "dt": dt,
        "seed": seed,
    }
    _write_artifacts(out, {"noether.csv": (header, rows), "noether_report.json": payload})
    worst = _max_abs(payload["residual_max"])
    print(
        f"{record.name}: {len(etas)} generators, worst drift residual {worst:.3e}"
    )
    return 0


# ---------------------------------------------------------------------------
# entry point


def _add_common(p):
    p.add_argument("--config", metavar="PATH", help="YAML configuration file")
    p.add_argument("--system", metavar="NAME", help="catalog system name")
    p.add_argument("--t-end", dest="t_end", type=float, metavar="T",
                   help="integration end time")
    p.add_argument("--dt", type=float, metavar="H", help="integration step")
    p.add_argument("--method", choices=("rk4", "euler"), help="integrator")
    p.add_argument("--seed", type=int, help="sampling seed")
    p.add_argument("--tol", type=float, help="tolerance for checks")
    p.add_argument("--out", metavar="DIR", help="output directory")


_COMMANDS = (
    ("check-axioms", cmd_check_axioms, "sample the bracket-closure conditions"),
    ("simulate", cmd_simulate, "integrate a system and write diagnostics"),
    ("reduce", cmd_reduce, "build and dump a reduced bundle"),
    ("stages", cmd_stages, "compare direct and two-stage reduction"),
    ("noether", cmd_noether, "write symmetry-current drift columns"),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a bad flag value, unknown flag, no subcommand
        self.exit(1, f"config error: {message}\n")


def main(argv=None):
    parser = _Parser(
        prog="lpmech",
        description="bundle-chart mechanics: closure checks, simulation, reduction",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, handler, help_text in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.set_defaults(handler=handler)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config else {}
        # a flag overrides its config key; an empty --out or --system does not
        cfg.update(
            (key, val) for key, val in vars(args).items()
            if key not in ("command", "handler", "config") and val not in (None, "")
        )
        # a non-finite value ends as a one-line failure, not as numpy warnings
        with np.errstate(all="ignore"):
            try:
                return args.handler(cfg)
            except AxiomViolation as exc:  # reduce and stages check axioms too
                if exc.report is not None:
                    _require_finite(exc.report)
                raise
    except (ConfigError, NotSupported, DimensionMismatch) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, OverflowError) as exc:  # a time grid, a power of a table entry
        what = "out of memory" if isinstance(exc, MemoryError) else "float overflow"
        print(f"config error: {what}: {exc}", file=sys.stderr)
        return 1
    except (AxiomViolation, InvarianceViolation) as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        where = "" if exc.t is None else f"; state: q={_fmt_vec(exc.q)} at t={exc.t!r}"
        print(f"numerical failure: {exc}{where}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
