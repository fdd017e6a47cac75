"""End-to-end tests of the command-line front end.

Each test drives ``main`` in-process with a temp output directory; one
test goes through a real subprocess to cover module execution.  Exit
codes follow the documented scheme (0 ok, 1 config, 2 violation, 3
numerical).
"""

import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from lpmech import _dual
from lpmech.cli import _numbers, main
from lpmech.errors import AxiomViolation, ConfigError, InvarianceViolation


def write_cfg(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(p)


def read_json(tmp_path, name):
    with open(os.path.join(str(tmp_path), name), encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


# ---------------------------------------------------------------------------
# check-axioms


def test_check_axioms_catalog_passes(tmp_path):
    code = main(
        ["check-axioms", "--system", "flat_bundle_particle", "--out", str(tmp_path)]
    )
    assert code == 0
    report = read_json(tmp_path, "axiom_report.json")
    assert report["passed"] is True
    assert {c["name"] for c in report["conditions"]} >= {
        "d_two_form_closed",
        "e_bracket_parallel",
        "f_curvature_coupling",
    }
    text = (tmp_path / "axiom_report.txt").read_text()
    assert "result: pass" in text


def test_check_axioms_inline_nonclosed_two_form_fails(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        """
        bundle:
          n: 3
          m: 1
          bounds: [[-1, 1], [-1, 1], [-1, 1]]
          omega:
            polynomial:
              terms:
                - {index: [0, 0, 1], powers: [0, 0, 1], coeff: 1.0}
                - {index: [0, 1, 0], powers: [0, 0, 1], coeff: -1.0}
        """,
    )
    code = main(["check-axioms", "--config", cfg, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "d_two_form_closed" in err
    report = read_json(tmp_path, "axiom_report.json")
    by_name = {c["name"]: c for c in report["conditions"]}
    assert by_name["d_two_form_closed"]["passed"] is False
    assert by_name["omega_skew"]["passed"] is True
    assert by_name["e_bracket_parallel"]["passed"] is True


def test_malformed_yaml_reports_location(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "system: rigid_body\nparams: {inertia: [1, 2\n")
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert code == 1
    assert "line" in capsys.readouterr().err


def test_missing_required_key_names_the_path(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "bundle: {n: 2}\n")
    code = main(["check-axioms", "--config", cfg, "--out", str(tmp_path)])
    assert code == 1
    assert "bundle: missing required key 'm'" in capsys.readouterr().err


def test_unknown_system_is_a_config_error(tmp_path, capsys):
    code = main(["check-axioms", "--system", "nope", "--out", str(tmp_path)])
    assert code == 1
    assert "unknown system 'nope'" in capsys.readouterr().err


def test_polynomial_index_bounds_are_validated(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        """
        bundle:
          n: 2
          m: 1
          omega:
            polynomial:
              terms:
                - {index: [0, 0, 5], powers: [0, 0], coeff: 1.0}
        """,
    )
    code = main(["check-axioms", "--config", cfg, "--out", str(tmp_path)])
    assert code == 1
    assert "out of range" in capsys.readouterr().err


_INLINE_BUNDLE = "bundle: {n: 1, m: 1}\n"
_INLINE_SCENARIO = "scenario: {base: {n: 0}, group: so3}\n"
# two of these on one table entry: products of the entries leave the float range
_OVERFLOW_TERM = "{index: [%s], powers: [1], coeff: 1.0e+308}"
_STAGES = "system: heisenberg_stages\n"
_TRIVIAL = "scenario: {base: {n: 0}, group: so3, representation: {trivial: %d}}\n"
_SIMULATE = "system: free_particle_planar\n"
_HEISENBERG_SCENARIO = """
    scenario:
      base:
        n: 2
        bounds: [[-1, 1], [-1, 1]]
      group: {name: heisenberg3, coupling: 1.1}
      connection:
        polynomial:
          terms:
            - {index: [0, 0], powers: [0, 1], coeff: 0.3}
            - {index: [1, 1], powers: [1, 0], coeff: -0.2}
            - {index: [0, 2], powers: [1, 1], coeff: 0.25}
            - {index: [1, 2], powers: [2, 0], coeff: 0.15}
    """


@pytest.mark.parametrize(
    "command, text, flags, message",
    [
        ("check-axioms", _INLINE_BUNDLE + "samples: 0\n", [], "samples: must be at least 1"),
        ("reduce", _INLINE_SCENARIO + "samples: 0\n", [], "samples: must be at least 1"),
        ("reduce", _INLINE_SCENARIO + "dump_samples: -3\n", [], "dump_samples: must be at least 0"),
        ("check-axioms", _INLINE_BUNDLE + "tol: -1\n", [], "tol: must be nonnegative"),
        ("check-axioms", _INLINE_BUNDLE, ["--tol", "-1"], "tol: must be nonnegative"),
        ("check-axioms", _INLINE_BUNDLE + "tol: .inf\n", [], "tol: must be nonnegative"),
        ("check-axioms", _INLINE_BUNDLE, ["--tol", "inf"], "tol: must be nonnegative"),
        ("check-axioms", _INLINE_BUNDLE + "seed: -3\n", [], "seed: must be at least 0"),
        ("check-axioms", _INLINE_BUNDLE, ["--seed", "-3"], "seed: must be at least 0"),
        (
            "reduce",
            "system: rigid_body\nsamples: 5\n",
            [],
            "samples: applies to inline scenarios only",
        ),
        ("stages", _STAGES + "stages: {nidx: 2}\n", [], "stages.nidx: expected a list"),
        ("stages", _STAGES + "stages: {nidx: []}\n", [], "stages.nidx: expected 1 to 2"),
        ("stages", _STAGES + "stages: {nidx: [5]}\n", [], "stages.nidx: expected 1 to 2"),
        ("stages", _STAGES + "stages: {nidx: [0, 1, 2]}\n", [], "stages.nidx: expected 1 to 2"),
        (
            "stages",
            _STAGES + "stages: {nidx: [0, 1]}\n",
            [],
            "stages.nidx: span of basis indices (0, 1) is not an ideal",
        ),
        ("stages", _STAGES + "stages: {nidx: [0.5]}\n", [], "stages.nidx[0]: expected an integer"),
        ("stages", _STAGES + "stages: {nidx: [-1]}\n", [], "stages.nidx[0]: must be at least 0"),
        (
            "simulate",
            _SIMULATE + "dt: 1e-3\n",
            [],
            "dt: expected a number, got str; YAML needs a decimal point and a signed exponent",
        ),
        (
            "reduce",
            _TRIVIAL % -2,
            [],
            "scenario.representation.trivial: must be at least 1",
        ),
        (
            "reduce",
            _TRIVIAL % 0,
            [],
            "scenario.representation.trivial: must be at least 1",
        ),
        ("simulate", _SIMULATE + "t_end: .inf\n", [], "t_end: must be positive and finite"),
        ("simulate", _SIMULATE, ["--t-end", "inf"], "t_end: must be positive and finite"),
        ("simulate", _SIMULATE + "t_end: .nan\n", [], "t_end: must be positive and finite"),
        ("simulate", _SIMULATE, ["--t-end", "nan"], "t_end: must be positive and finite"),
        ("simulate", _SIMULATE + "dt: .nan\n", [], "dt: must be positive and finite"),
        ("simulate", _SIMULATE, ["--dt", "nan"], "dt: must be positive and finite"),
        (
            "simulate",
            "system: central_potential_particle\nparams: {stiffness: .nan}\n",
            [],
            "params.stiffness: must be finite, got nan",
        ),
        (
            "simulate",
            "system: parameter_lagrangian\nparams: {chi: [0, 0, .inf]}\n",
            [],
            "params.chi[2]: must be finite, got inf",
        ),
        (
            "reduce",
            "scenario: {base: {n: 0}, group: {name: heisenberg3, coupling: .nan}}\n",
            [],
            "scenario.group.coupling: must be finite, got nan",
        ),
        (
            "check-axioms",
            "bundle: {n: 1, m: 1, c: {constant: [[[.nan]]]}}\n",
            [],
            "bundle.c.constant[0][0][0]: must be finite, got nan",
        ),
        (
            "stages",
            _STAGES + "stages: {override_A_N: {constant: [[.nan], [0.0]]}}\n",
            [],
            "stages.override_A_N.constant[0][0]: must be finite, got nan",
        ),
        (
            "simulate",
            "system: rigid_body\ninitial: {q: [], qdot: [], v: [.nan, 0.0, 0.0]}\n",
            [],
            "initial.v[0]: must be finite, got nan",
        ),
        (
            "noether",
            "system: central_potential_particle\netas: [[.nan]]\n",
            [],
            "etas[0][0]: must be finite, got nan",
        ),
        (
            "simulate",
            _INLINE_BUNDLE
            + "lagrangian: {polynomial: {terms: [{powers: [0, 0, 2], coeff: .inf}]}}\n",
            [],
            "lagrangian.polynomial.terms[0].coeff: must be finite, got inf",
        ),
        (
            "check-axioms",
            "bundle: {n: 1, m: 0, bounds: [[-.inf, .inf]]}\n",
            [],
            "bundle.bounds[0][0]: must be finite, got -inf",
        ),
        (
            "reduce",
            "scenario: {base: {n: 1, bounds: [[-1, .nan]]}, group: so3}\n",
            [],
            "scenario.base.bounds[0][1]: must be finite, got nan",
        ),
        (
            "simulate",
            "bundle: {n: 1, m: 0, bounds: [[-1, .inf]]}\n"
            + "lagrangian: {polynomial: {terms: [{powers: [0, 2], coeff: 0.5}]}}\n"
            + "initial: {q: [0.0], qdot: [1.0]}\n",
            [],
            "bundle.bounds[0][1]: must be finite, got inf",
        ),
        (
            "simulate",
            "system: free_particle_planar\nt_end: 1" + "0" * 400 + "\n",
            [],
            "t_end: must be finite, got an integer beyond the float range",
        ),
        (
            "check-axioms",
            "bundle: {n: 1, m: 1, c: {constant: [[[-1" + "0" * 400 + "]]]}}\n",
            [],
            "bundle.c.constant[0][0][0]: must be finite, got an integer beyond the float range",
        ),
        ("simulate", _SIMULATE, ["--out", "{tmp}/cfg.yaml"], "out: cannot create directory"),
        ("simulate", _SIMULATE, ["--out", "{tmp}/cfg.yaml/sub"], "out: cannot create directory"),
        ("stages", _STAGES + "stages: {nidex: [0, 2]}\n", [], "stages: unknown key 'nidex'"),
        (
            "reduce",
            "scenario: {base: {n: 0}, group: so3, conection: {constant: []}}\n",
            [],
            "scenario: unknown key 'conection'",
        ),
        (
            "reduce",
            "scenario: {base: {n: 0, bound: []}, group: so3}\n",
            [],
            "scenario.base: unknown key 'bound'",
        ),
        (
            "reduce",
            "scenario: {base: {n: 0}, group: {name: heisenberg3, couplng: 2.0}}\n",
            [],
            "scenario.group: unknown key 'couplng'",
        ),
        (
            "reduce",
            "scenario: {base: {n: 0}, group: {name: so3, dim: 3}}\n",
            [],
            "scenario.group: unknown key 'dim'",
        ),
        (
            "reduce",
            "scenario: {base: {n: 0}, group: so3, representation: {trivial: 2, dim: 3}}\n",
            [],
            "scenario.representation: unknown key 'dim'",
        ),
        (
            "simulate",
            "system: rigid_body\ninitial: {q: [], qdot: [], w: [1.0, 0.0, 0.0]}\n",
            [],
            "initial: unknown key 'w'",
        ),

        (
            "simulate",
            _SIMULATE,
            ["--t-end", "1", "--dt", "1e-300"],
            "t_end/dt: 1e+300 steps exceed the largest numpy array (t_end 1, dt 1e-300)",
        ),
        (
            "reduce",
            _HEISENBERG_SCENARIO.replace("[[-1, 1], [-1, 1]]", "[[-1, 1.0e+300], [-1, 1]]"),
            [],
            "float overflow: (34, 'Numerical result out of range')",
        ),
        (
            "check-axioms",
            "bundle: {n: 1, m: 1, bounds: [[-1, 1.0e+300]], gamma: {polynomial: "
            "{terms: [{index: [0, 0, 0], powers: [2], coeff: 1.0}]}}}\n",
            [],
            "float overflow: (34, 'Numerical result out of range')",
        ),
        (
            "simulate",
            _SIMULATE,
            ["--t-end", "1", "--dt", "1e-15"],
            "out of memory: Unable to allocate",
        ),
        (
            "noether",
            _SIMULATE + "t_end: 1.0e+300\ndt: 1\n",
            [],
            "t_end/dt: 1e+300 steps exceed the largest numpy array",
        ),
        (
            "stages",
            _STAGES + "t_end: 1\ndt: 0.3\n",
            [],
            "t_end/dt: time span must be a whole number of steps (t_end 1, dt 0.3)",
        ),
        (
            "noether",
            _SIMULATE,
            ["--t-end", "0.003", "--dt", "0.001"],
            "t_end/dt: the 5-point stencil of the drift residual needs at least 4 steps, "
            "got 3 (t_end 0.003, dt 0.001)",
        ),
        (
            "check-axioms",
            "bundle: {n: 1, m: 1, periodic: true}\n",
            [],
            "bundle.periodic: expected 1 booleans",
        ),
        (
            "check-axioms",
            "bundle: {n: 1, m: 1, periodic: [1]}\n",
            [],
            "bundle.periodic[0]: expected a boolean",
        ),
        (
            "reduce",
            "scenario: {base: {n: 0}, group: so3, representation: adjoint}\n",
            [],
            "scenario.representation: expected 'defining' or {trivial: dim}",
        ),
        (
            "reduce",
            "scenario: {base: {n: 0}, group: sl2}\n",
            [],
            "scenario.group.name: unknown group 'sl2'",
        ),
        (
            "simulate",
            _SIMULATE + "method: leapfrog\n",
            [],
            "method: expected 'rk4' or 'euler', got 'leapfrog'",
        ),
        (
            "simulate",
            _INLINE_BUNDLE
            + "lagrangian: {polynomial: {terms: [{powers: [0, 2, 0], coeff: 1.0}]}}\n",
            [],
            "initial: required (no catalog default available)",
        ),
        (
            "simulate",
            _INLINE_BUNDLE,
            [],
            "simulate needs a 'lagrangian' for the inline bundle",
        ),
        (
            "noether",
            "system: central_potential_particle\netas: []\n",
            [],
            "etas: expected a nonempty list of algebra vectors",
        ),
        (
            "reduce",
            _HEISENBERG_SCENARIO.rstrip(" ") + "          representation: {trivial: 2}\n",
            [],
            "scenario.connection.polynomial: unknown key 'representation'",
        ),
        (
            "check-axioms",
            "bundle: {n: 1, m: 1, c: {constant: [[[0.0]]], coeff: 1.0}}\n",
            [],
            "bundle.c: unknown key 'coeff'",
        ),
        (
            "simulate",
            _INLINE_BUNDLE
            + "lagrangian: {polynomial: {terms: []}, constant: 1.0}\n",
            [],
            "lagrangian: unknown key 'constant'",
        ),
        (
            "check-axioms",
            "bundle: {n: 1, m: 1, gamma: {polynomial: {terms: [%s, %s]}}}\n"
            % ((_OVERFLOW_TERM % "0, 0, 0",) * 2),
            [],
            "f_curvature_coupling: residual nan, scale nan at the sample point [",
        ),
        (
            "reduce",
            "scenario: {base: {n: 1}, group: so3, connection: {polynomial: {terms: [%s, %s]}}}\n"
            % ((_OVERFLOW_TERM % "0, 0",) * 2),
            [],
            "omega_skew: residual nan, scale nan at the sample point [",
        ),
        (
            "reduce",
            "scenario: {base: {n: 0}, group: {name: abelian, dim: %d}}\n" % 10**20,
            [],
            "scenario.group.dim: must be at most 12, got 100000000000000000000",
        ),
        (
            "reduce",
            _TRIVIAL % 10**20,
            [],
            "scenario.representation.trivial: must be at most 12",
        ),
        ("check-axioms", "bundle: {n: 1, m: %d}\n" % 10**20, [], "bundle.m: must be at most 12"),
        (
            "reduce",
            _INLINE_SCENARIO + "samples: %d\n" % 10**20,
            [],
            "samples: must be at most 1000",
        ),
        (
            "reduce",
            _INLINE_SCENARIO + "dump_samples: %d\n" % 10**20,
            [],
            "dump_samples: 100000000000000000000 rows of 27 values exceed the 1000000 values",
        ),
    ],
    ids=[
        "samples-axioms",
        "samples-reduce",
        "dump-samples",
        "tol-config",
        "tol-flag",
        "tol-inf-config",
        "tol-inf-flag",
        "seed-config",
        "seed-flag",
        "samples-catalog-reduce",
        "nidx-scalar",
        "nidx-empty",
        "nidx-out-of-range",
        "nidx-whole-group",
        "stages-nidx-not-an-ideal",
        "nidx-fraction",
        "nidx-negative",
        "dt-exponent-without-decimal-point",
        "trivial-negative",
        "trivial-zero",
        "t_end-inf-config",
        "t_end-inf-flag",
        "t_end-nan-config",
        "t_end-nan-flag",
        "dt-nan-config",
        "dt-nan-flag",
        "params-nan",
        "params-list-inf",
        "coupling-nan",
        "constant-nan",
        "override-constant-nan",
        "initial-nan",
        "etas-nan",
        "coeff-inf",
        "bounds-inf",
        "bounds-nan",
        "bounds-inf-simulate",
        "t_end-huge-int",
        "constant-huge-int",
        "out-is-a-file",
        "out-under-a-file",
        "stages-unknown-key",
        "scenario-unknown-key",
        "scenario-base-unknown-key",
        "group-unknown-key",
        "group-key-of-another-group",
        "representation-unknown-key",
        "initial-unknown-key",
        "grid-too-fine-flag",
        "bounds-overflow-scenario",
        "bounds-overflow-bundle",
        "grid-beyond-memory-flag",
        "grid-too-long-config",
        "grid-not-whole-stages",
        "grid-too-short-noether",
        "periodic-not-a-list",
        "periodic-not-a-boolean",
        "representation-unknown",
        "group-unknown-name",
        "method-config",
        "initial-required",
        "simulate-without-lagrangian",
        "etas-empty",
        "table-polynomial-unknown-key",
        "table-unknown-key",
        "lagrangian-unknown-key",
        "axioms-overflow-bundle",
        "axioms-overflow-scenario",
        "group-dim-huge",
        "trivial-huge",
        "bundle-m-huge",
        "samples-huge",
        "dump-samples-huge",
    ],
)
def test_out_of_range_settings_are_config_errors(
    tmp_path, capsys, command, text, flags, message
):
    cfg = write_cfg(tmp_path, text)
    # a later --out wins, so a flag's own --out (under the temp dir) goes last
    flags = [f.format(tmp=tmp_path) for f in flags]
    with warnings.catch_warnings(record=True) as caught:  # printed to stderr outside pytest
        warnings.simplefilter("always")
        code = main([command, "--config", cfg, "--out", str(tmp_path), *flags])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: ") and err.count("\n") == 1 and not caught
    assert message in err
    assert not [p for p in tmp_path.rglob("*") if p.suffix in (".json", ".csv", ".txt")]


_leaf = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.integers(-(2**70), 2**70)
)


def _nest(flat, shape):
    """The nested list of ``shape`` holding ``flat`` in C order."""
    if not shape:
        return flat[0]
    step = len(flat) // shape[0] if shape[0] else 0
    return [_nest(flat[i * step : (i + 1) * step], shape[1:]) for i in range(shape[0])]


@st.composite
def nested_numbers(draw, least=0):
    """A shape of rank 0 to 3 and a nested list of that shape."""
    shape = tuple(draw(st.lists(st.integers(least, 3), max_size=3)))
    size = int(np.prod(shape, dtype=int))
    return shape, _nest(draw(st.lists(_leaf, min_size=size, max_size=size)), shape)


@given(nested_numbers())
def test_numbers_reads_nested_lists_bit_for_bit(case):
    shape, val = case
    want = np.array(val, dtype=float)
    got = _numbers(val, "x")
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    got = _numbers(val, "x", shape)
    assert got.shape == shape and got.tobytes() == want.tobytes()


_BAD_LEAVES = [
    (float("nan"), "must be finite, got nan"),
    (float("inf"), "must be finite, got inf"),
    (float("-inf"), "must be finite, got -inf"),
    (True, "expected a number, got bool"),
    ("1.5", "expected a number, got str"),
    ([1.0], "expected shape (), got (1,)"),
]


@given(nested_numbers(least=1), st.sampled_from(_BAD_LEAVES), st.data())
def test_numbers_names_the_one_bad_leaf(case, bad, data):
    shape, val = case
    path = [data.draw(st.integers(0, d - 1)) for d in shape]
    leaf, message = bad
    if path:
        node = val
        for i in path[:-1]:
            node = node[i]
        node[path[-1]] = leaf
    else:
        val = leaf
    expected = "x" + "".join(f"[{i}]" for i in path) + ": " + message
    with pytest.raises(ConfigError) as info:
        _numbers(val, "x", shape)
    assert str(info.value) == expected
    if not isinstance(leaf, list):  # without a shape a list leaf may read as an axis
        with pytest.raises(ConfigError) as info:
            _numbers(val, "x")
        assert str(info.value) == expected


@given(nested_numbers(least=1), st.lists(st.integers(1, 3), max_size=3).map(tuple))
def test_numbers_rejects_a_wrong_shape(case, other):
    shape, val = case
    assume(other != shape)
    with pytest.raises(ConfigError, match=r"^x(\[\d+\])*: expected shape \("):
        _numbers(val, "x", other)


# ---------------------------------------------------------------------------
# simulate


def test_simulate_rigid_body_unit_time(tmp_path):
    code = main(
        [
            "simulate",
            "--system",
            "rigid_body",
            "--t-end",
            "1.0",
            "--dt",
            "0.001",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    header, data = read_csv(os.path.join(str(tmp_path), "trajectory.csv"))
    assert header == ["t", "v1", "v2", "v3"]
    assert data.shape[0] == 1001
    report = read_json(tmp_path, "simulate_report.json")
    assert report["rows"] == 1001
    assert report["energy_drift_max"] <= 1e-8


def test_simulate_inline_free_motion_is_linear(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """
        bundle:
          n: 1
          m: 0
          bounds: [[-5, 5]]
        lagrangian:
          polynomial:
            terms:
              - {powers: [0, 2], coeff: 1.0}
        initial: {q: [0.0], qdot: [0.3], v: []}
        t_end: 0.5
        dt: 0.01
        """,
    )
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    header, data = read_csv(os.path.join(str(tmp_path), "trajectory.csv"))
    assert header == ["t", "q1", "qd1"]
    assert np.max(np.abs(data[:, 1] - 0.3 * data[:, 0])) <= 1e-12
    assert np.max(np.abs(data[:, 2] - 0.3)) <= 1e-12


def test_simulate_inline_periodic_coordinate_stays_wrapped(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """
        bundle:
          n: 1
          m: 0
          bounds: [[0, 1]]
          periodic: [true]
        lagrangian:
          polynomial:
            terms:
              - {powers: [0, 2], coeff: 1.0}
        initial: {q: [0.5], qdot: [3.0], v: []}
        t_end: 1.0
        dt: 0.01
        """,
    )
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, data = read_csv(os.path.join(str(tmp_path), "trajectory.csv"))
    t, q = data[:, 0], data[:, 1]
    assert np.all((q >= 0.0) & (q < 1.0))
    # free motion around the circle: q = 0.5 + 3 t, up to whole turns
    turn = q - (0.5 + 3.0 * t)
    assert np.max(np.abs(turn - np.round(turn))) <= 1e-9
    assert np.round(turn[-1]) == -3.0


def test_simulate_singular_lagrangian_exits_three(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        """
        bundle:
          n: 2
          m: 0
          bounds: [[-5, 5], [-5, 5]]
        lagrangian:
          polynomial:
            terms:
              - {powers: [0, 0, 2, 0], coeff: 1.0}
        initial: {q: [0.5, 0.0], qdot: [0.1, 0.2], v: []}
        """,
    )
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "state: q=" in err


def test_simulate_non_finite_hessian_exits_three(tmp_path, capsys):
    # finite coefficients whose Hessian entries overflow: inf - inf = nan
    cfg = write_cfg(
        tmp_path,
        """
        bundle: {n: 0, m: 1}
        lagrangian:
          polynomial:
            terms:
              - {powers: [2], coeff: 1.0e+308}
              - {powers: [2], coeff: -1.0e+308}
        initial: {q: [], qdot: [], v: [2.0]}
        """,
    )
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert "non-finite" in err and "state: q=[] at t=0.0" in err
    assert not (tmp_path / "trajectory.csv").exists()


def test_simulate_non_finite_state_exits_three(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        """
        system: rigid_body
        initial: {q: [], qdot: [], v: [40, 70, -30]}
        t_end: 2
        dt: 0.5
        """,
    )
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert "non-finite" in err and " at t=" in err
    assert not (tmp_path / "trajectory.csv").exists()
    assert not (tmp_path / "simulate_report.json").exists()


def test_simulate_chart_exit_prints_its_time(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        """
        bundle:
          n: 1
          m: 0
          bounds: [[-1, 1]]
        lagrangian:
          polynomial:
            terms:
              - {powers: [0, 2], coeff: 0.5}
        initial: {q: [0.9], qdot: [1.0], v: []}
        t_end: 1.0
        dt: 0.01
        """,
    )
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "left the chart" in err
    # q = 0.9 + t: the RK4 stage at t = 0.1 + dt/2 is the first point outside
    assert err.rstrip().endswith(" at t=0.10500000000000001")
    # Euler takes no stage points, so the step end at t = 0.11 is the first
    code = main(["simulate", "--config", cfg, "--method", "euler", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.rstrip().endswith(" at t=0.11")


def test_chart_exit_on_a_wide_chart_prints_one_line(tmp_path, capsys):
    """numpy would wrap the eight coordinates of q over two lines."""
    n = 8
    terms = [{"powers": [0] * n + [2 * (j == i) for j in range(n)], "coeff": 0.5} for i in range(n)]
    cfg = {
        "bundle": {"n": n, "m": 0, "bounds": [[-1.0, 1.0]] * n},
        "lagrangian": {"polynomial": {"terms": terms}},
        "initial": {"q": [0.9] + [0.123456789 * i for i in range(1, n)], "qdot": [1.0] + [0.0] * (n - 1)},
        "t_end": 0.5,
        "dt": 0.01,
    }
    path = write_cfg(tmp_path, yaml.safe_dump(cfg))
    code = main(["simulate", "--config", path, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure: state left the chart at q=[") and err.count("\n") == 1


def test_simulate_rk4_stage_outside_the_chart_exits_three(tmp_path, capsys):
    """Both step ends lie inside [-1, 1], the second RK4 stage at q = 1.05
    does not: the run stops there instead of reading L outside the chart."""
    cfg = write_cfg(
        tmp_path,
        """
        bundle: {n: 1, m: 0, bounds: [[-1.0, 1.0]]}
        lagrangian:
          polynomial:
            terms:
              - {powers: [0, 2], coeff: 0.5}
              - {powers: [1, 0], coeff: -20.0}
        initial: {q: [0.9], qdot: [1.5]}
        t_end: 0.2
        dt: 0.2
        """,
    )
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err == (
        "numerical failure: state left the chart at q=[1.05]; state: q=[1.05] at t=0.1\n"
    )
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize(
    "system, digest",
    [
        (
            "flat_bundle_particle",
            "69956cb0d719ed71d277b9108735d9ad614a2d4973df3c8284fc8f007c53de92",
        ),
        ("rigid_body", "3fed792d33cde3b13457eacd73d251689feddb665493b7fd99a24a75afd448c6"),
        (
            "parameter_lagrangian",
            "55fae820e04f86a36a99e7da67bfaa07caa3d9ddee5389498433157e4d7e1a23",
        ),
        (
            "heisenberg_stages",
            "e99955e15034b3eee187e2f98a7e6be4b0e419c4c550209f77c5f6bb74c22e61",
        ),
    ],
)
def test_simulate_trajectory_matches_recorded_digest(tmp_path, system, digest):
    """SHA-256 of trajectory.csv from a 20-step run, pinned: a change in the
    order of the integrator arithmetic or in the number format shows here,
    where rerun comparisons of the same code cannot see it."""
    argv = ["simulate", "--system", system, "--t-end", "0.2", "--dt", "0.01"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    data = (tmp_path / "trajectory.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


_README_BUNDLE = """
    bundle:
      n: 1
      m: 1
      bounds: [[-2.0, 2.0]]
      gamma:
        {table}
    lagrangian:
      polynomial:
        terms:
          - {{powers: [0, 2, 0], coeff: 0.5}}   # qdot^2 / 2
          - {{powers: [0, 0, 2], coeff: 0.5}}   # v^2 / 2
    initial:
      q: [0.1]
      qdot: [0.4]
      v: [0.2]
    """


def test_readme_example_constant_and_polynomial_tables_agree(tmp_path):
    """The README's inline example, run as written with its constant gamma
    table, and again with the same table as a one-term polynomial: the two
    spellings give the same trajectory, byte for byte."""
    spellings = {
        "constant": "constant: [[[0.3]]]",
        "polynomial": "polynomial: {terms: [{index: [0, 0, 0], powers: [0], coeff: 0.3}]}",
    }
    data = {}
    for name, table in spellings.items():
        cfg = write_cfg(tmp_path, _README_BUNDLE.format(table=table), f"{name}.yaml")
        out = tmp_path / name
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        data[name] = (out / "trajectory.csv").read_bytes()
    assert len(data["constant"].splitlines()) == 1002
    assert data["constant"] == data["polynomial"]


def test_simulate_reruns_are_byte_identical(tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = main(
            [
                "simulate",
                "--system",
                "flat_bundle_particle",
                "--t-end",
                "0.05",
                "--dt",
                "0.001",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outs.append(out)
    for name in ("trajectory.csv", "simulate_report.json"):
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b


def test_seed_precedence_flag_config_env(tmp_path, monkeypatch):
    monkeypatch.setenv("LPMECH_SEED", "9")
    cfg = write_cfg(tmp_path, "system: rigid_body\nseed: 5\nt_end: 0.01\n")

    out1 = tmp_path / "envonly"
    code = main(
        ["simulate", "--system", "rigid_body", "--t-end", "0.01", "--out", str(out1)]
    )
    assert code == 0
    assert read_json(out1, "simulate_report.json")["seed"] == 9

    out2 = tmp_path / "cfgwins"
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    assert read_json(out2, "simulate_report.json")["seed"] == 5

    out3 = tmp_path / "flagwins"
    assert main(["simulate", "--config", cfg, "--seed", "3", "--out", str(out3)]) == 0
    assert read_json(out3, "simulate_report.json")["seed"] == 3


def test_bad_env_seed_is_a_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LPMECH_SEED", "junk")
    code = main(
        ["simulate", "--system", "rigid_body", "--t-end", "0.01", "--out", str(tmp_path)]
    )
    assert code == 1
    assert "LPMECH_SEED" in capsys.readouterr().err


def test_negative_env_seed_is_a_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LPMECH_SEED", "-3")
    code = main(["check-axioms", "--system", "flat_bundle_particle", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == "config error: LPMECH_SEED: must be at least 0, got -3\n"


# ---------------------------------------------------------------------------
# reduce


def test_reduce_catalog_rigid_body(tmp_path):
    code = main(
        [
            "reduce",
            "--system",
            "rigid_body",
            "--t-end",
            "0.05",
            "--dt",
            "0.001",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    report = read_json(tmp_path, "reduce_report.json")
    assert report["group"] == "so3"
    assert report["axioms"]["passed"] is True
    assert report["trajectory_rows"] == 51

    header, data = read_csv(os.path.join(str(tmp_path), "structure_samples.csv"))
    assert data.shape[0] == 20
    eps = np.zeros((3, 3, 3))
    for g, a, b in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[g, a, b], eps[g, b, a] = 1.0, -1.0
    for g in range(3):
        for a in range(3):
            for b in range(3):
                col = header.index(f"c_{g + 1}_{a + 1}_{b + 1}")
                assert np.max(np.abs(data[:, col] - eps[g, a, b])) <= 1e-10


def test_reduce_inline_scenario_dumps_structure_only(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """
        scenario:
          base:
            n: 2
            bounds: [[-1, 1], [-1, 1]]
          group: {name: abelian, dim: 2}
          connection:
            polynomial:
              terms:
                - {index: [0, 0], powers: [0, 1], coeff: 0.4}
        """,
    )
    code = main(["reduce", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    report = read_json(tmp_path, "reduce_report.json")
    assert report["trajectory_rows"] == 0
    assert report["fiber_dim"] == 2
    header, data = read_csv(os.path.join(str(tmp_path), "structure_samples.csv"))
    col = header.index("omega_1_1_2")
    assert np.max(np.abs(data[:, col] + 0.4)) <= 1e-12


@pytest.mark.parametrize(
    "name, digest",
    [
        (
            "structure_samples.csv",
            "e21e5090ba79ab160b7185e466f8910cd14d8b907d46f9da20b202bdb3bb1a81",
        ),
        (
            "reduce_report.json",
            "78e552c173d616e18f7edaf7a99786942062c5e3b4feafa75ffd7f9e6b4f4b5f",
        ),
    ],
)
def test_reduce_inline_heisenberg_matches_recorded_digest(tmp_path, name, digest):
    """SHA-256 of the reduce artifacts of a Heisenberg scenario over a 2-dim
    base with a polynomial connection, pinned: the reduced structure tables
    and the axiom report must not move when the reduction code is reshaped."""
    cfg = write_cfg(tmp_path, _HEISENBERG_SCENARIO)
    assert main(["reduce", "--config", cfg, "--out", str(tmp_path)]) == 0
    data = (tmp_path / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


_DENSE_SO3_SCENARIO = """
    scenario:
      base:
        n: 2
        bounds: [[-1, 1], [-1, 1]]
      group: so3
      representation: defining
      connection:
        polynomial:
          terms:
            - {index: [0, 0], powers: [0, 1], coeff: 0.3}
            - {index: [0, 1], powers: [1, 0], coeff: -0.45}
            - {index: [0, 2], powers: [1, 1], coeff: 0.25}
            - {index: [1, 0], powers: [2, 0], coeff: 0.15}
            - {index: [1, 1], powers: [0, 1], coeff: 0.35}
            - {index: [1, 2], powers: [1, 0], coeff: -0.2}
            - {index: [0, 2], powers: [0, 0], coeff: 0.1}
            - {index: [1, 0], powers: [0, 0], coeff: -0.05}
    """


@pytest.mark.parametrize(
    "name, digest",
    [
        (
            "reduce_report.json",
            "e9e12bc1d439a5c5f66232d98ce2ed2514bf22a821899abebe0ea9c4c46f0282",
        ),
        (
            "structure_samples.csv",
            "eed46162ffa58d1a8f442ad69f44be20b1e7e14ae6448749f29de45a87bd0be1",
        ),
    ],
)
def test_reduce_dense_so3_scenario_matches_recorded_digest(tmp_path, name, digest):
    """SHA-256 of the reduce artifacts of an so(3) scenario with the defining
    representation and a connection whose every row has two or three nonzero
    entries, pinned: each omega entry then sums several bracket products, so
    a reordered sum in the reduced two-form shows in the last bits."""
    cfg = write_cfg(tmp_path, _DENSE_SO3_SCENARIO)
    assert main(["reduce", "--config", cfg, "--out", str(tmp_path)]) == 0
    data = (tmp_path / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_reduce_inline_heisenberg_with_trivial_fiber(tmp_path):
    text = _HEISENBERG_SCENARIO.rstrip(" ") + "      representation: {trivial: 2}\n"
    cfg = write_cfg(tmp_path, text)
    assert main(["reduce", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = read_json(tmp_path, "reduce_report.json")
    assert report["fiber_dim"] == 5
    assert report["axioms"]["passed"] is True


@pytest.mark.parametrize(
    "command, text, target, error",
    [
        (
            "reduce",
            _INLINE_SCENARIO,
            "build_reduced_bundle",
            AxiomViolation("reduced bundle fails c_jacobi"),
        ),
        (
            "simulate",
            _SIMULATE,
            "build_system",
            InvarianceViolation("Lagrangian is not invariant", residual=0.5),
        ),
    ],
    ids=["axiom-violation", "invariance-violation"],
)
def test_violations_exit_two_with_one_line(
    tmp_path, capsys, monkeypatch, command, text, target, error
):
    def raise_error(*args, **kwargs):
        raise error

    monkeypatch.setattr(f"lpmech.cli.{target}", raise_error)
    cfg = write_cfg(tmp_path, text)
    code = main([command, "--config", cfg, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"violation: {error}\n"


def test_reduce_constant_and_polynomial_connection_agree(tmp_path):
    """A scenario connection given as a constant table and as the same table
    in one polynomial term gives byte-identical reduce artifacts."""
    scenario = """
        scenario:
          base:
            n: 2
            bounds: [[-1, 1], [-1, 1]]
          group: heisenberg3
          connection:
            {table}
        """
    spellings = {
        "constant": "constant: [[0.0, 0.4, 0.0], [0.0, 0.0, 0.0]]",
        "polynomial": "polynomial: {terms: [{index: [0, 1], powers: [0, 0], coeff: 0.4}]}",
    }
    outs = {}
    for name, table in spellings.items():
        cfg = write_cfg(tmp_path, scenario.format(table=table), f"{name}.yaml")
        outs[name] = tmp_path / name
        assert main(["reduce", "--config", cfg, "--out", str(outs[name])]) == 0
    for artifact in ("structure_samples.csv", "reduce_report.json"):
        a = (outs["constant"] / artifact).read_bytes()
        assert a == (outs["polynomial"] / artifact).read_bytes()


def test_reduce_rejects_system_and_scenario_together(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        """
        system: rigid_body
        scenario:
          base: {n: 0}
          group: so3
        """,
    )
    assert main(["reduce", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "not both" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# stages


def test_stages_catalog_matches_direct(tmp_path):
    code = main(
        [
            "stages",
            "--system",
            "heisenberg_stages",
            "--t-end",
            "0.05",
            "--dt",
            "0.001",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    report = read_json(tmp_path, "stages_report.json")
    assert report["override"] is False
    assert report["warnings"] == []
    assert report["structure_deviation"] <= 1e-8
    assert report["lagrangian_deviation"] <= 1e-10
    assert report["trajectory_deviation_max"] <= 1e-9


@pytest.mark.parametrize("nidx", [[0, 2], [1, 2]])
def test_stages_non_central_subgroup_matches_direct(tmp_path, nidx):
    """An abelian ideal off the center, on which the quotient acts, stages
    as exactly as the center does."""
    cfg = write_cfg(
        tmp_path, f"system: heisenberg_stages\nt_end: 0.05\nstages: {{nidx: {nidx}}}\n"
    )
    assert main(["stages", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = read_json(tmp_path, "stages_report.json")
    assert report["nidx"] == nidx and report["warnings"] == []
    assert report["structure_deviation"] <= 1e-8
    assert report["lagrangian_deviation"] <= 1e-10
    assert report["trajectory_deviation_max"] <= 1e-9


def test_stages_report_matches_recorded_digest(tmp_path):
    """SHA-256 of stages_report.json for heisenberg_stages over 10 steps,
    pinned: both stage bundles, the deviations and the staged trajectory
    feed it."""
    argv = ["stages", "--system", "heisenberg_stages", "--t-end", "0.01"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    data = (tmp_path / "stages_report.json").read_bytes()
    assert (
        hashlib.sha256(data).hexdigest()
        == "4cbf52997ec1ed84d953d1aaf39c69ad826bde1823fe99ea7a3b68be7f6b4a94"
    )


def test_stages_override_warns_and_reports(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        """
        system: heisenberg_stages
        t_end: 0.05
        dt: 0.001
        stages:
          override_A_N:
            polynomial:
              terms:
                - {index: [0, 0], powers: [0, 1], coeff: 0.51}
                - {index: [1, 0], powers: [1, 0], coeff: -0.5}
        """,
    )
    code = main(["stages", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    assert "warning:" in capsys.readouterr().err
    report = read_json(tmp_path, "stages_report.json")
    assert report["override"] is True
    assert len(report["warnings"]) == 1
    assert report["structure_deviation"] > 1e-3
    assert report["trajectory_deviation_max"] > 0.0


# ---------------------------------------------------------------------------
# noether


def test_noether_zero_generator_gives_zero_columns(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """
        system: central_potential_particle
        t_end: 0.2
        dt: 0.001
        etas: [[1.0], [0.0]]
        """,
    )
    code = main(["noether", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    header, data = read_csv(os.path.join(str(tmp_path), "noether.csv"))
    assert header == ["t", "J1", "J2", "resid1", "resid2"]
    assert np.max(np.abs(data[:, header.index("J2")])) == 0.0
    assert np.max(np.abs(data[:, header.index("resid2")])) == 0.0
    assert np.max(np.abs(data[:, header.index("resid1")])) <= 1e-6
    report = read_json(tmp_path, "noether_report.json")
    assert report["residual_max"][1] == 0.0


def test_simulate_and_noether_take_no_ad_pass_beyond_the_integration(
    tmp_path, monkeypatch
):
    """Energy, currents, equation residuals and drift residuals read the
    integrator's jets: a 20-step RK4 run makes one grad_hess per stage plus
    one at the final state (4 * 20 + 1) and no gradient pass."""
    counts = {}

    def counting(name):
        inner = getattr(_dual, name)

        def counted(*args):
            counts[name] += 1
            return inner(*args)

        monkeypatch.setattr(_dual, name, counted)

    counting("grad_hess")
    counting("gradient")
    argv = ["--system", "free_particle_planar", "--t-end", "0.02", "--dt", "0.001"]
    for command in ("noether", "simulate"):
        counts.update(grad_hess=0, gradient=0)
        assert main([command, *argv, "--out", str(tmp_path)]) == 0
        assert counts == {"grad_hess": 4 * 20 + 1, "gradient": 0}, command
    assert read_json(tmp_path, "noether_report.json")["rows"] == 21 - 4
    report = read_json(tmp_path, "simulate_report.json")
    assert report["rows"] == 21 and len(report["noether"]["series"]) == 3


def test_noether_coupled_two_form_drifts_with_small_residual(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """
        system: flat_bundle_particle
        params: {omega_mode: closed}
        t_end: 0.3
        dt: 0.001
        """,
    )
    code = main(["noether", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    report = read_json(tmp_path, "noether_report.json")
    assert max(report["current_drift_max"]) > 1e-3
    assert max(report["residual_max"]) <= 1e-6


def test_noether_without_action_is_a_config_error(tmp_path, capsys):
    code = main(["noether", "--system", "rigid_body", "--out", str(tmp_path)])
    assert code == 1
    assert "symmetry action" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# process-level behavior


def test_module_runs_as_subprocess(tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "lpmech.cli",
            "check-axioms",
            "--system",
            "rigid_body",
            "--out",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "closure conditions hold" in proc.stdout


def test_missing_subcommand_raises_usage_error():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["simulate", "--system", "rigid_body", "--dt", "abc"],
            "argument --dt: invalid float value: 'abc'",
        ),
        (["simulate", "--system", "rigid_body", "--dtt", "0.1"], "unrecognized arguments: --dtt 0.1"),
        (["simulate", "--method", "leapfrog"], "argument --method: invalid choice: 'leapfrog'"),
        ([], "the following arguments are required: COMMAND"),
    ],
    ids=["bad-value", "unknown-flag", "bad-choice", "no-subcommand"],
)
def test_usage_errors_are_config_errors(capsys, argv, message):
    """A command line argparse rejects exits 1 with one config-error line,
    not 2 (verified violations) with a usage message."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    err = capsys.readouterr().err
    assert info.value.code == 1
    assert err.startswith("config error: " + message) and err.count("\n") == 1


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--help"])
    assert info.value.code == 0
    assert "--dt H" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# the failure contract over mutated configs


def _yaml(text):
    return yaml.safe_load(textwrap.dedent(text))


_GRID = {"t_end": 0.01, "dt": 0.001, "method": "rk4"}  # 10 steps
_SMALL = {"samples": 5, "dump_samples": 5}

# known-good configs; the flags are config keys (main folds them in), so
# mutating these keys covers the flags too
_FUZZ_BASES = [
    ("simulate", {"system": "rigid_body", "seed": 7, **_GRID}),  # README
    ("simulate", {**_yaml(_README_BUNDLE.format(table="constant: [[[0.3]]]")), **_GRID}),
    ("reduce", {**_yaml(_INLINE_SCENARIO), **_SMALL, "seed": 3}),
    ("reduce", {**_yaml(_HEISENBERG_SCENARIO), **_SMALL}),
    (
        "stages",
        {
            **_yaml(_STAGES),
            **_GRID,
            "stages": {
                "nidx": [2],
                "override_A_N": {
                    "polynomial": {
                        "terms": [
                            {"index": [0, 0], "powers": [0, 1], "coeff": 0.51},
                            {"index": [1, 0], "powers": [1, 0], "coeff": -0.5},
                        ]
                    }
                },
            },
        },
    ),
    ("noether", {"system": "central_potential_particle", "etas": [[1.0], [0.5]], **_GRID}),
    (
        "check-axioms",
        {
            "system": "flat_bundle_particle",
            "params": {"omega_mode": "closed", "metric": [[1.0, 0.2], [0.2, 1.5]]},
            "samples": 5,
            "tol": 1.0e-8,
        },
    ),
    ("reduce", {"system": "rigid_body", "params": {"inertia": [1.0, 2.0, 3.0]}, **_GRID}),
    (
        "simulate",
        {"system": "parameter_lagrangian", "params": {"mgl": 2.0, "chi": [0.0, 0.0, 1.0]}, **_GRID},
    ),
    ("simulate", {"system": "heisenberg_stages", "params": {"coupling": 1.0}, **_GRID}),
    (
        "noether",
        {
            "system": "free_particle_planar",
            "initial": {"q": [1.0, 0.5], "qdot": [0.3, -0.2]},
            "etas": [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
            **_GRID,
        },
    ),
    ("simulate", {"system": "central_potential_particle", "params": {"stiffness": 0.8}, **_GRID}),
]

# the leaves a mutation may put in; 10**20 in a dimension or a count meets
# its fixed ceiling (cli.MAX_DIM, MAX_SAMPLES, MAX_DUMP_VALUES), and as t_end
# or dt the time-grid rule, so no mutation makes a run that does not end
_FUZZ_LEAVES = [
    float("nan"), float("inf"), float("-inf"), "1e300", 1.0e300, 5.0e-324,
    -1, 0, 10**20, True, "x", [], {}, None,
]
# removing one of these keys could (its default is a finer grid or a larger count)
_COUNT_KEYS = ("t_end", "dt", "samples", "dump_samples", "etas")


def _nodes(node, path=()):
    """Every (path, node) of a config tree, the root first."""
    yield path, node
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _nodes(child, path + (key,))


def _parent(cfg, path):
    for key in path[:-1]:
        cfg = cfg[key]
    return cfg


@st.composite
def _mutated_configs(draw):
    """A base config with one mutation: a leaf replaced, a stray key added,
    a key removed, or a mapping nested one level deeper under its own key."""
    command, base = draw(st.sampled_from(_FUZZ_BASES))
    cfg = copy.deepcopy({**base, "out": "out"})
    nodes = list(_nodes(cfg))
    leaves = [p for p, v in nodes if p and not (isinstance(v, (dict, list)) and v)]
    mappings = [p for p, v in nodes if isinstance(v, dict)]
    sites = {
        "leaf": leaves,
        "stray": mappings,
        "remove": [p for p, _ in nodes if p and isinstance(p[-1], str) and p[-1] not in _COUNT_KEYS],
        "nest": mappings[1:],
    }
    kind = draw(st.sampled_from([kind for kind, paths in sites.items() if paths]))
    path = draw(st.sampled_from(sites[kind]))
    if kind == "leaf":
        _parent(cfg, path)[path[-1]] = draw(st.sampled_from(_FUZZ_LEAVES))
    elif kind == "stray":
        (_parent(cfg, path)[path[-1]] if path else cfg)["stray"] = 1.0
    elif kind == "remove":
        del _parent(cfg, path)[path[-1]]
    else:
        parent = _parent(cfg, path)
        parent[path[-1]] = {str(path[-1]): parent[path[-1]]}
    return command, cfg


def _reject_constant(name):
    raise AssertionError(f"non-finite number {name} in a JSON artifact")


def _assert_finite_artifacts(out):
    for root, _, names in os.walk(out):
        for name in names:
            path = os.path.join(root, name)
            if name.endswith(".json"):
                with open(path, encoding="utf-8") as fh:
                    json.load(fh, parse_constant=_reject_constant)
            elif name.endswith(".csv"):
                with open(path, encoding="utf-8") as fh:
                    rows = fh.read().splitlines()[1:]
                values = np.array([float(x) for row in rows for x in row.split(",")])
                assert np.all(np.isfinite(values)), path


@settings(max_examples=400, phases=(Phase.explicit, Phase.generate))
@given(_mutated_configs())
def test_failure_contract_holds_for_mutated_configs(case):
    """Exit code in {0, 1, 2, 3}, no traceback, one stderr line for exits 1
    and 3, and only finite numbers in the artifacts of an exit-0 or exit-2
    run (check-axioms writes its report before exit 2)."""
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(cfg, fh)
        err, cwd = io.StringIO(), os.getcwd()
        os.chdir(tmp)  # a mutated 'out' stays inside tmp
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    try:
                        code = main([command, "--config", path])
                    except SystemExit as exc:
                        code = exc.code
        finally:
            os.chdir(cwd)
        text = err.getvalue()
        assert code in (0, 1, 2, 3), (code, text)
        assert "Traceback" not in text
        if code in (1, 3):
            assert text.count("\n") == 1 and not caught, (text, caught)
        if code in (0, 2):
            _assert_finite_artifacts(tmp)
