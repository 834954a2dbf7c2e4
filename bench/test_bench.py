"""Tests of the benchmark itself: run with `python3 -m pytest -q bench`.

They pin exact per-layer call counts on tiny inputs, so a traced function
whose binding the tracer missed fails loudly, and they check that tracing
changes no output and that traced counts repeat exactly.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import pytest  # noqa: E402

import run  # noqa: E402
import worker  # noqa: E402
from ggdim import cli, coeff, cover, hecke_affine, hecke_finite  # noqa: E402
from ggdim.cover import DEFAULT_ORBIT_BOUND, TypeSpec, kp_cover  # noqa: E402
from tracer import COUNTERS, Tracer, metric_specs  # noqa: E402


def counts(summary: dict) -> dict:
    """The exact part of a summary: everything but times."""
    return {k: v for k, v in summary.items() if not k.endswith("_s")}


@contextlib.contextmanager
def traced():
    tracer = Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def cli_output(argv) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_dim_report_call_counts_kp_4_2():
    cov, ty = kp_cover(4, 0), TypeSpec(r=2, k=2, l0=1)
    with traced() as tracer:
        row = cli.dim_report(cov, ty, DEFAULT_ORBIT_BOUND)
    s = tracer.summary(instances=1)
    assert row["agree"] is True and row["orbit_count"] == 10
    expect = {
        "cli.dim_report.calls": 1,
        "cover.x_lambda.calls": 2,             # dim_report and gg_module
        "cover.orbits.calls": 2,               # bound through cli and hecke_affine
        "cover.QuotientGroup.perm_matrix.calls": 4,    # 2! per orbits call
        "intmat.mat_mul.calls": 8,             # 2 per perm_matrix, bound in cover
        # x_lambda and its QuotientGroup, twice; lattice_spec once
        "intmat.smith_normal_form.calls": 5,
        "intmat.hermite_row_basis.calls": 3,
        "cover.whittaker_dim_closed.calls": 1,
        "hecke_affine.whittaker_dim_hecke.calls": 1,
        "hecke_affine.gg_module.calls": 1,
        "hecke_finite.InducedSignModule.calls": 10,    # one per orbit
        "hecke_finite.InducedSignModule.distinct": 2,  # J = (1,1) and (2,)
        "hecke_finite.hom_to_sign_dim.calls": 2,
        "hecke_finite.hom_to_sign_dim.distinct": 2,
        "hecke_finite.action_matrix.calls": 2,
        "hecke_finite.module_dim.max": 2,
        "coeff.kernel_basis.calls": 2,
        "coeff.kernel_basis.max_cols": 2,
        "cover.orbits.elements": 32,
        "cover.orbits.perm_images": 64,
        "cover.orbits.records": 20,
        "cover.orbits.calls_per_instance": 2.0,
        "cli.main.calls": 0,
        "cocycle.hilbert.calls": 0,
    }
    assert {k: s[k] for k in expect} == expect
    assert s["coeff.RatFunc.add.calls"] > 0
    assert s["symgroup.min_coset_reps.calls"] == 10


def test_every_binding_is_wrapped_and_restored():
    originals = (cli.orbits, hecke_affine.orbits, cover.mat_mul,
                 hecke_finite.kernel_basis, coeff.poly_gcd,
                 hecke_finite.InducedSignModule.__init__,
                 cover.QuotientGroup.perm_matrix, coeff.RatFunc.__radd__)
    with traced() as tracer:
        assert cli.orbits is hecke_affine.orbits is cover.orbits
        assert cli.orbits is not originals[0]
        assert cover.mat_mul.__wrapped__ is originals[2]
        assert hecke_finite.kernel_basis is coeff.kernel_basis
        assert coeff.poly_gcd.__wrapped__ is originals[4]
        assert coeff.RatFunc.__radd__ is coeff.RatFunc.__add__
        assert tracer.bindings["cover.orbits"] == 3
        assert tracer.bindings["coeff.RatFunc.add"] == 2     # __add__, __radd__
    after = (cli.orbits, hecke_affine.orbits, cover.mat_mul,
             hecke_finite.kernel_basis, coeff.poly_gcd,
             hecke_finite.InducedSignModule.__init__,
             cover.QuotientGroup.perm_matrix, coeff.RatFunc.__radd__)
    assert all(a is b for a, b in zip(after, originals))


def test_summary_reports_every_per_layer_metric():
    with traced() as tracer:
        cli_output(["dims", "--kind", "savin", "--n", "2", "--r", "2", "--k", "2"])
    s = tracer.summary(instances=1)
    names = [name for name, _unit, _better in metric_specs()]
    assert len(names) == len(set(names)) <= 128
    added_by_run = {"trace.traced_s", "trace.untraced_s", "trace.overhead_s"}
    assert [n for n in names if n not in s] == sorted(added_by_run, key=names.index)
    assert set(COUNTERS) <= set(s)
    assert s["cli.main.calls"] == 1


def test_self_time_is_duration_minus_children():
    with traced() as tracer:
        cli.dim_report(kp_cover(3, 1), TypeSpec(r=3, k=3, l0=1),
                       DEFAULT_ORBIT_BOUND)
    s = tracer.summary(instances=1)
    total = sum(e - st for st, e, parent in zip(
        tracer.span_start, tracer.span_end, tracer.span_parent) if parent == -1)
    self_sum = sum(v for k, v in s.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(total, rel=1e-9, abs=1e-9)
    assert all(v >= -1e-9 for k, v in s.items() if k.endswith(".self_s"))


@pytest.mark.parametrize("argv", [
    ["sweep", "--n", "4", "--k", "3", "--output", "csv"],
    ["sweep", "--n", "3", "--k", "2", "--f", "2", "--output", "json"],
    ["verify", "--suite", "hecke"],
    ["verify", "--suite", "bernstein", "--output", "json"],
])
def test_traced_output_equals_untraced(argv):
    plain = cli_output(argv)
    with traced() as tracer:
        tracked = cli_output(argv)
        first = counts(tracer.summary(instances=1))
    with traced() as tracer:
        again = cli_output(argv)
        second = counts(tracer.summary(instances=1))
    assert plain == tracked == again
    assert plain[0] == 0
    assert first == second


def test_traced_worker_counts_repeat_across_processes():
    env = run.worker_env(ROOT)
    a = run.run_worker(ROOT, env, "verify", 7, 0, "--fixed", "--trace")
    b = run.run_worker(ROOT, env, "verify", 7, 0, "--fixed", "--trace")
    assert a["failed"] == b["failed"] == 0
    assert a["attempted"] == worker.VERIFY_INVARIANTS
    assert counts(a["layers"]) == counts(b["layers"])
    assert a["layers"]["cocycle.hilbert.calls"] == 86696


def test_grid_order_is_a_seeded_permutation():
    inst = worker.grid_instances()
    assert len(inst) == 2936
    one = worker.grid_order(inst, random.Random(1))
    assert one == worker.grid_order(inst, random.Random(1))
    assert one != worker.grid_order(inst, random.Random(2))
    assert sorted(map(repr, one)) == sorted(map(repr, inst))


def test_grid_golden_rows_match_the_program():
    for cov, ty in worker.grid_instances()[:200]:
        assert worker.check_grid_row(cov, ty, cli.dim_report(
            cov, ty, DEFAULT_ORBIT_BOUND))


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "verify", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_timed_run_reports_every_end_to_end_metric():
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert {m["name"] for m in spec["per_layer"]} == \
        {name for name, _u, _b in metric_specs()}
    assert all(v["value"] > 0 for v in result["metrics"].values())
