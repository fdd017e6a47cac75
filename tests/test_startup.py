"""Each subcommand loads only the lpmech modules it runs, and no run loads
``numpy.ma``.

A fresh interpreter runs ``cli.main`` once and lists the lpmech modules in
``sys.modules`` afterwards.  A stray top-level import of ``dynamics``,
``reduction``, ``liegroups``, ``systems`` or ``hamiltonian`` then fails
here, instead of only slowing the start-up of every CLI process (each such
module is compiled at every start where bytecode is not written).
``numpy.ma`` is not loaded by ``import numpy``; the first call of
``np.unique`` imports it, about 8-10 ms of start-up.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

_PROBE = (
    "import json, sys\n"
    "from lpmech.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "lp = sorted(m for m in sys.modules if m.startswith('lpmech'))\n"
    "print(json.dumps([code, lp, 'numpy.ma' in sys.modules]))\n"
)

_INLINE_BUNDLE = """\
samples: 5
bundle:
  n: 2
  m: 2
  gamma:
    polynomial:
      terms:
        - {index: [0, 0, 1], powers: [1, 0], coeff: 0.5}
  c:
    constant: [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
"""

# (command, config, lpmech modules the run must not load)
_CASES = {
    "check-axioms-inline": (
        "check-axioms",
        _INLINE_BUNDLE,
        ("dynamics", "reduction", "liegroups", "systems", "hamiltonian"),
    ),
    "simulate-point-system": (
        "simulate",
        "system: central_potential_particle\nt_end: 0.01\ndt: 0.005\n",
        ("reduction", "liegroups", "hamiltonian"),
    ),
    "simulate-group-system": (
        "simulate",
        "system: rigid_body\nt_end: 0.01\ndt: 0.005\n",
        ("hamiltonian",),
    ),
    "noether-point-system": (
        "noether",
        "system: central_potential_particle\nt_end: 0.02\ndt: 0.005\n",
        ("reduction", "liegroups", "hamiltonian"),
    ),
    "reduce-inline-scenario": (
        "reduce",
        "scenario: {base: {n: 0}, group: so3}\nsamples: 5\ndump_samples: 2\n",
        ("systems",),
    ),
}


@pytest.mark.parametrize("command, text, absent", _CASES.values(), ids=list(_CASES))
def test_subcommand_loads_only_what_it_runs(tmp_path, command, text, absent):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    env.pop("LPMECH_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, command, "--config", str(cfg), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    code, loaded, numpy_ma = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    assert "lpmech.cli" in loaded and "lpmech.lpbundle" in loaded
    assert sorted(set(loaded) & {f"lpmech.{m}" for m in absent}) == []
    assert not numpy_ma
