"""check_axioms evaluates its closure conditions on blocks of samples.

The reference below is the per-sample loop body that the block form
replaced, kept verbatim as a bitwise oracle: every condition's
(residual, scale) at every sample, and each report's worst point, must
agree bit for bit, whatever the block size.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from lpmech import _dual, lpbundle
from lpmech.cli import polynomial_map, scenario_from_config
from lpmech.lpbundle import ChartDomain, LPBundleChart, _table_jacobian, check_axioms
from lpmech.reduction import build_reduced_bundle, stages_reduce
from lpmech.smoothmap import SmoothMap, _ConstantBody
from lpmech.systems import build_system


def _ref_max_abs(*tensors):
    vals = [np.abs(t).max() if np.size(t) else 0.0 for t in tensors]
    if len(vals) > 1 and math.isnan(sum(vals)):
        return math.nan
    return float(max(vals)) if vals else 0.0


def _ref_curvature(G, dG):
    t1 = np.einsum("jabi->ijab", dG)
    t2 = np.einsum("iabj->ijab", dG)
    t3 = np.einsum("iae,jeb->ijab", G, G)
    t4 = np.einsum("jae,ieb->ijab", G, G)
    return (t1 - t2) + (t3 - t4)


def _ref_ext_cov(G, Om, dOm):
    term = np.einsum("ajki->aijk", dOm) + np.einsum("iab,bjk->aijk", G, Om)
    return term + np.einsum("ajki->aijk", term) + np.einsum("akij->aijk", term)


def _reference(b, n_samples, seed, tol=lpbundle.DEFAULT_TOL):
    """The per-sample loop: each sample's rows, the points, and the report's
    (name, residual, scale, worst point, passed) per condition."""
    rng = np.random.default_rng(seed)
    rows, points = [], []
    for _ in range(n_samples if b.n else 1):
        q = b.base.sample(rng)
        G, C, Om = b.tables(q)
        cyc = np.einsum("deg,eab->dabg", C, C)
        jac = cyc + np.einsum("dabg->dbga", cyc) + np.einsum("dabg->dgab", cyc)
        skew = C + np.einsum("gab->gba", C)
        dOm = _table_jacobian(b.omega, q)
        dC = _table_jacobian(b.c, q)
        tGc = np.einsum("ige,eab->giab", G, C)
        tcG1 = np.einsum("geb,iea->giab", C, G)
        tcG2 = np.einsum("gae,ieb->giab", C, G)
        eres = np.einsum("gabi->giab", dC) + tGc - tcG1 - tcG2
        dG = _table_jacobian(b.Gamma, q)
        k = _ref_curvature(G, dG)
        rhs = -np.einsum("agb,gij->ijab", C, Om)
        rows.append(
            {
                "c_skew": (_ref_max_abs(skew), _ref_max_abs(C)),
                "c_jacobi": (_ref_max_abs(jac), _ref_max_abs(cyc)),
                "omega_skew": (
                    _ref_max_abs(Om + np.einsum("aij->aji", Om)),
                    _ref_max_abs(Om),
                ),
                "d_two_form_closed": (
                    _ref_max_abs(_ref_ext_cov(G, Om, dOm)),
                    _ref_max_abs(dOm, np.einsum("iab,bjk->aijk", G, Om)),
                ),
                "e_bracket_parallel": (
                    _ref_max_abs(eres),
                    _ref_max_abs(dC, tGc, tcG1, tcG2),
                ),
                "f_curvature_coupling": (_ref_max_abs(k - rhs), _ref_max_abs(k, rhs)),
            }
        )
        points.append(q)
    report = []
    for name in rows[0]:
        resid, scale = np.array([row[name] for row in rows]).T
        bad = ~(np.isfinite(resid) & np.isfinite(scale))
        if bad.any():
            i = int(np.argmax(bad))
            r, s = float(resid[i]), float(scale[i])
        else:
            i = len(resid) - 1 - int(np.argmax(resid[::-1]))
            r, s = float(resid[i]), float(np.max(scale))
        passed = math.isfinite(r) and math.isfinite(s) and r <= tol * (1.0 + s)
        report.append((name, r, s, points[i], passed))
    return rows, report


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _assert_blocks_match(b, n_samples, seed, blocks=(None, 64, 7)):
    """check_axioms at its own block size and at each forced one gives the
    reference's rows and report, bit for bit."""
    ref_rows, ref_report = _reference(b, n_samples, seed)
    for size in blocks:
        seen = []

        def recording(*tensors):
            out = condition_rows(*tensors)
            seen.append(out)
            return out

        condition_rows = lpbundle._condition_rows
        with mock.patch.object(lpbundle, "_condition_rows", recording):
            if size is None:
                report = check_axioms(b, n_samples=n_samples, seed=seed)
            else:
                with mock.patch.object(lpbundle, "_block_size", lambda n, m: size):
                    report = check_axioms(b, n_samples=n_samples, seed=seed)
        lens = [len(part["c_skew"][0]) for part in seen]
        block = size or lpbundle._block_size(b.n, b.m)
        assert set(lens[:-1]) <= {block} and 0 < lens[-1] <= block
        for name in ref_rows[0]:
            for col in (0, 1):
                got = np.concatenate([part[name][col] for part in seen])
                want = np.array([row[name][col] for row in ref_rows])
                assert got.dtype == np.float64 and got.shape == want.shape, name
                assert np.array_equal(_bits(got), _bits(want)), (name, col, size)
        for cond, (name, r, s, pt, passed) in zip(report.conditions, ref_report):
            assert cond.name == name and cond.passed is passed
            assert _bits(cond.max_residual) == _bits(r) and _bits(cond.scale) == _bits(s)
            assert cond.worst_point.tobytes() == pt.tobytes()


@st.composite
def polynomial_charts(draw):
    """A chart on [-1, 1]^n whose three tables are cli.polynomial_map tables
    of degree <= 2, with n, m <= 3."""
    n, m = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    monomials = [list(p) for p in np.ndindex(*[3] * n) if sum(p) <= 2]
    tables = {}
    for name, shape in lpbundle.table_shapes(n, m):
        if not all(shape):
            continue
        term = st.fixed_dictionaries(
            {
                "powers": st.sampled_from(monomials),
                "coeff": st.floats(-2.0, 2.0),
                "index": st.tuples(*[st.integers(0, e - 1) for e in shape]).map(list),
            }
        )
        terms = draw(st.lists(term, max_size=5))
        tables[name] = polynomial_map(n, shape, terms, name)
    return LPBundleChart(ChartDomain(n), m, **tables)


# derandomized, no shrink phase: a failing chart is reported as drawn
@settings(
    max_examples=25, deadline=None, derandomize=True, phases=(Phase.explicit, Phase.generate)
)
@given(polynomial_charts(), st.integers(0, 3))
def test_block_rows_match_the_per_sample_loop_on_polynomial_charts(b, seed):
    # 30 samples: blocks of 7 leave a last block of 2
    _assert_blocks_match(b, 30, seed)


_HEISENBERG_SCENARIO = """
base: {n: 2, bounds: [[-1, 1], [-1, 1]]}
group: {name: heisenberg3, coupling: 1.1}
connection:
  polynomial:
    terms:
      - {index: [0, 0], powers: [0, 1], coeff: 0.3}
      - {index: [1, 1], powers: [1, 0], coeff: -0.2}
      - {index: [0, 2], powers: [1, 1], coeff: 0.25}
      - {index: [1, 2], powers: [2, 0], coeff: 0.15}
"""


def _inline_heisenberg():
    return build_reduced_bundle(scenario_from_config(yaml.safe_load(_HEISENBERG_SCENARIO)))


def _heisenberg_stages():
    rec = build_system("heisenberg_stages")
    return stages_reduce(rec.handle, rec.params["nidx"])


def test_block_rows_match_the_per_sample_loop_on_reduced_charts():
    # 100 samples: blocks of 64 and 7 leave last blocks of 36 and 2
    _assert_blocks_match(_inline_heisenberg().bundle, 100, 1)
    _assert_blocks_match(_heisenberg_stages().stage1.bundle, 100, 2)


def _chart_with_bad_samples(bad):
    """A c that is finite where q0 <= 0 and ``bad`` times that where q0 > 0."""

    def c_body(q):
        c = np.zeros((2, 2, 2), dtype=object)
        finite = _dual.real_part(q[0]) <= 0
        c[0, 0, 1] = (1.0 if finite else bad) * (1.0 + q[0] * q[0])
        return c

    return LPBundleChart(
        ChartDomain(1), 2, c=SmoothMap(1, 8, c_body, out_shape=(2, 2, 2))
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_block_rows_match_the_per_sample_loop_on_non_finite_tables(bad):
    _assert_blocks_match(_chart_with_bad_samples(bad), 12, 3, blocks=(None, 5, 1))
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = bad
    _assert_blocks_match(LPBundleChart(ChartDomain(1), 2, c=c), 5, 0, blocks=(None, 2))


def test_block_memory_does_not_grow_with_the_sample_count():
    # one sample of a 12 x 12 chart takes a few MB of condition temporaries;
    # 64 samples in one block would take about 200 MB
    rng = np.random.default_rng(0)
    n = m = 12
    tables = {name: rng.uniform(-1, 1, shape) for name, shape in lpbundle.table_shapes(n, m)}
    b = LPBundleChart(ChartDomain(n), m, **tables)
    tracemalloc.start()
    try:
        check_axioms(b, n_samples=64, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak


def test_constant_two_form_gives_a_constant_reduced_bracket():
    # a constant c takes no Jacobian pass in check_axioms; the stage-2 c
    # reads the stage-1 two-form, which varies
    stages = _heisenberg_stages()
    assert isinstance(_inline_heisenberg().bundle.c.body, _ConstantBody)
    assert isinstance(stages.stage1.bundle.c.body, _ConstantBody)
    assert not isinstance(stages.stage2.bundle.c.body, _ConstantBody)
