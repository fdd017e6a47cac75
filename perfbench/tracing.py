"""In-memory spans around lpmech's public functions, installed from outside.

``install`` rebinds every name under which an lpmech module refers to a
traced function (``jacobian`` in ``lpbundle`` and ``reduction``, ``eval_map``
in six modules, the ``MatrixLieGroup`` methods on the class, ...), so nested
calls record spans with parent links.  Nothing under ``src/`` changes, and
``uninstall`` puts the originals back.  Per-operator ``Dual`` arithmetic is
not wrapped.  Layer names drop the leading underscore of ``_dual``.
"""

from __future__ import annotations

import gzip
import importlib
import os
import sys
import time
from array import array
from collections import Counter

ROOT = "bench.job"


def _samples(args, kwargs, result):
    return result.n_samples


def _steps(args, kwargs, result):
    return len(result) - 1


def _bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.main.{argv[0]}"


# (module, attribute, layer name, counter stat and function)
TARGETS = (
    ("_dual", "grad_hess", "dual.grad_hess", None),
    ("_dual", "gradient", "dual.gradient", None),
    ("_dual", "directional", "dual.directional", None),
    ("smoothmap", "eval_map", "smoothmap.eval_map", None),
    ("smoothmap", "jacobian", "smoothmap.jacobian", None),
    ("liegroups", "MatrixLieGroup.unhat", "liegroups.unhat", None),
    ("liegroups", "MatrixLieGroup.hat", "liegroups.hat", None),
    ("liegroups", "MatrixLieGroup.exp", "liegroups.exp", None),
    ("lpbundle", "check_axioms", "lpbundle.check_axioms", ("samples", _samples)),
    ("lpbundle", "jacobi_residual", "lpbundle.jacobi_residual", None),
    ("lpbundle", "section_bracket", "lpbundle.section_bracket", None),
    ("dynamics", "integrate_lp", "dynamics.integrate_lp", ("steps", _steps)),
    ("dynamics", "accelerations", "dynamics.accelerations", None),
    ("dynamics", "energy", "dynamics.energy", None),
    ("dynamics", "lp_operator", "dynamics.lp_operator", None),
    ("dynamics", "noether_current", "dynamics.noether_current", None),
    ("dynamics", "noether_drift_residual", "dynamics.noether_drift_residual", None),
    ("dynamics", "write_trajectory_csv", "dynamics.write_trajectory_csv", ("bytes", _bytes)),
    ("hamiltonian", "poisson_bracket", "hamiltonian.poisson_bracket", None),
    ("hamiltonian", "hamiltonian_vector_field", "hamiltonian.hamiltonian_vector_field", None),
    ("hamiltonian", "legendre", "hamiltonian.legendre", None),
    ("hamiltonian", "inverse_legendre", "hamiltonian.inverse_legendre", None),
    ("hamiltonian", "integrate_hp", "hamiltonian.integrate_hp", ("steps", _steps)),
    ("reduction", "build_reduced_bundle", "reduction.build_reduced_bundle", None),
    ("reduction", "reduce_lagrangian", "reduction.reduce_lagrangian", None),
    ("reduction", "stages_reduce", "reduction.stages_reduce", None),
    ("reduction", "two_stage_lagrangian", "reduction.two_stage_lagrangian", None),
    ("systems", "build_system", "systems.build_system", None),
    ("cli", "main", _cli_name, None),
)


class Tracer:
    """Spans in parallel arrays: job, parent, name, start, end, child time."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.job = array("i")
        self.parent = array("i")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.counts = Counter()
        self._stack = []
        self._job = -1
        self._saved = []

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        sid = len(self.start)
        self.job.append(self._job)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.end.append(0.0)
        self.child.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid):
        t1 = time.perf_counter()
        self.end[sid] = t1
        self._stack.pop()
        if self._stack:
            self.child[self._stack[-1]] += t1 - self.start[sid]

    def wrap(self, name, fn, counter=None):
        """``fn`` recording one span per call; ``name`` may be a function of
        the call's arguments; ``counter`` adds a per-call count."""
        fixed = None if callable(name) else self._intern(name)

        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self._intern(name(args, kwargs))
            sid = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if counter is not None:
                stat, count = counter
                self.counts[f"{self.names[nid]}.{stat}"] += count(args, kwargs, result)
            return result

        return traced

    def run_job(self, fn):
        """Run ``fn()`` as one job under a root span; return its result."""
        self._job += 1
        sid = self._open(self._intern(ROOT))
        try:
            return fn()
        finally:
            self._close(sid)

    # -- installation -------------------------------------------------------

    def install(self):
        mods = [
            m for name, m in list(sys.modules.items())
            if name == "lpmech" or name.startswith("lpmech.")
        ]
        for modname, attr, layer, counter in TARGETS:
            owner = importlib.import_module(f"lpmech.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(layer, orig, counter))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(layer, orig, counter)
            for m in mods:
                for key in [k for k, v in vars(m).items() if v is orig]:
                    self._saved.append((m, key, orig))
                    setattr(m, key, wrapped)

    def uninstall(self):
        while self._saved:
            obj, key, orig = self._saved.pop()
            setattr(obj, key, orig)

    # -- analysis -----------------------------------------------------------

    def self_times(self):
        return [e - s - c for s, e, c in zip(self.start, self.end, self.child)]

    def self_sum_error(self):
        """Largest gap, over jobs, between the summed self times of a job's
        spans and the duration of its root span."""
        selfs = self.self_times()
        total, root = Counter(), {}
        root_id = self._ids.get(ROOT)
        for sid, job in enumerate(self.job):
            total[job] += selfs[sid]
            if self.name[sid] == root_id:
                root[job] = self.end[sid] - self.start[sid]
        return max((abs(total[j] - root[j]) for j in root), default=0.0)

    def under(self, ancestor):
        """Per span: whether some ancestor span is named ``ancestor``."""
        aid = self._ids.get(ancestor, -2)
        flags = [False] * len(self.name)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                flags[sid] = self.name[p] == aid or flags[p]
        return flags

    def table(self):
        """{layer: (calls, self seconds)} over all spans."""
        calls, selfs = Counter(), Counter()
        for nid, st in zip(self.name, self.self_times()):
            calls[self.names[nid]] += 1
            selfs[self.names[nid]] += st
        return {n: (calls[n], selfs[n]) for n in calls}

    def write(self, path):
        """Spans as gzipped CSV: job, span, parent, name, start, end, self."""
        t0 = self.start[0] if self.start else 0.0
        selfs = self.self_times()
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as fh:
            fh.write("job,span,parent,name,start_s,end_s,self_s\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"{self.job[sid]},{sid},{self.parent[sid]},{self.names[self.name[sid]]},"
                    f"{self.start[sid] - t0:.9f},{self.end[sid] - t0:.9f},{selfs[sid]:.9f}\n"
                )
