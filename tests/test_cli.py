import hashlib
import json
import os
import subprocess
import sys

import pytest

from ggdim import cli
from ggdim.cli import SWEEP_COLUMNS, main
from ggdim.coeff import RatFunc

HEADER = "kind,n,c,d,r,k,l0,r0,n0,d0,x_order,orbit_count," \
         "dim_closed,dim_bruteforce,dim_hecke,agree"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_csv_header_golden():
    assert ",".join(SWEEP_COLUMNS) == HEADER


def test_dims_kp_golden(capsys):
    code, out, _ = run(capsys, ["dims", "--kind", "kp", "--n", "4", "--c", "0",
                                "--r", "2", "--k", "2", "--output", "json"])
    assert code == 0
    row = json.loads(out)
    assert row["n0"] == 4 and row["d0"] == 4 and row["x_order"] == 16
    assert row["dim_closed"] == row["dim_bruteforce"] == row["dim_hecke"] == 10
    assert row["agree"] is True


def test_dims_savin_golden(capsys):
    code, out, _ = run(capsys, ["dims", "--kind", "savin", "--n", "4",
                                "--r", "2", "--k", "2", "--output", "json"])
    assert code == 0
    row = json.loads(out)
    assert row["n0"] == 2 and row["x_order"] == 4
    assert row["dim_closed"] == 3 and row["agree"] is True


def test_dims_n1_multiplicity_one(capsys):
    code, out, _ = run(capsys, ["dims", "--kind", "kp", "--n", "1", "--c", "0",
                                "--r", "5", "--k", "5", "--output", "json"])
    assert code == 0
    assert json.loads(out)["dim_closed"] == 1


def test_dims_generic_partial_report(capsys):
    code, out, _ = run(capsys, ["dims", "--kind", "generic", "--n", "4",
                                "--c", "0", "--d", "2", "--r", "2", "--k", "2",
                                "--output", "json"])
    assert code == 0
    row = json.loads(out)
    assert row["dim_closed"] is None and row["dim_hecke"] is None
    assert row["dim_bruteforce"] is not None
    assert row["agree"] is None


def test_invalid_input_exit_code(capsys):
    code, _, err = run(capsys, ["dims", "--kind", "kp", "--n", "4", "--c", "0",
                                "--r", "3", "--k", "2"])
    assert code == 1
    assert "error:" in err
    code, _, err = run(capsys, ["dims", "--kind", "kp", "--r", "2", "--k", "2"])
    assert code == 1
    code, _, err = run(capsys, ["dims", "--kind", "generic", "--n", "4",
                                "--c", "0", "--r", "2", "--k", "2"])
    assert code == 1


def test_sweep_small_all_agree(capsys):
    code, out, _ = run(capsys, ["sweep", "--n", "3", "--k", "2",
                                "--output", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == HEADER
    assert len(lines) > 1
    agree_col = SWEEP_COLUMNS.index("agree")
    for line in lines[1:]:
        assert line.split(",")[agree_col] == "true"


def test_sweep_deterministic(capsys):
    argv = ["sweep", "--n", "3", "--k", "2", "--output", "csv"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_sweep_row_order_lexicographic(capsys):
    _, out, _ = run(capsys, ["sweep", "--n", "3", "--k", "2",
                             "--output", "csv"])
    lines = out.strip().split("\n")[1:]
    keys = []
    for line in lines:
        vals = line.split(",")
        keys.append((vals[0],) + tuple(int(vals[i]) for i in range(1, 7)))
    assert keys == sorted(keys)


def test_sweep_empty_range_header_only(capsys):
    code, out, _ = run(capsys, ["sweep", "--n", "0", "--k", "2",
                                "--output", "csv"])
    assert code == 0
    assert out == HEADER + "\n"


def test_sweep_bound_marks_na(capsys):
    code, out, _ = run(capsys, ["sweep", "--n", "2", "--k", "2", "--bound", "3",
                                "--kind", "kp", "--output", "csv"])
    assert code == 0
    lines = out.strip().split("\n")[1:]
    over = [ln for ln in lines if ln.split(",")[SWEEP_COLUMNS.index("x_order")] == "4"]
    assert over
    for ln in over:
        vals = ln.split(",")
        assert vals[SWEEP_COLUMNS.index("orbit_count")] == "NA"
        assert vals[SWEEP_COLUMNS.index("dim_hecke")] == "NA"
        assert vals[SWEEP_COLUMNS.index("agree")] == "NA"
        assert vals[SWEEP_COLUMNS.index("dim_closed")] == "3"


def _one_leg_off_by_one(monkeypatch, leg):
    """Patch one leg of cli.dim_report to count one too many."""
    orig = getattr(cli, leg)
    if leg == "whittaker_dim_closed":
        monkeypatch.setattr(cli, leg, lambda cov, ty: orig(cov, ty) + 1)
    else:       # only the enumeration leg reads cli.orbit_census
        monkeypatch.setattr(cli, leg, lambda xg, bound: dict(
            orig(xg, bound=bound), extra=1))


@pytest.mark.parametrize("leg", ["whittaker_dim_closed", "orbit_census"])
def test_dims_exits_2_when_one_leg_is_off(capsys, monkeypatch, leg):
    _one_leg_off_by_one(monkeypatch, leg)
    code, out, _ = run(capsys, ["dims", "--kind", "kp", "--n", "4", "--c", "0",
                                "--r", "2", "--k", "2", "--output", "json"])
    assert code == 2
    row = json.loads(out)
    assert row["agree"] is False
    off = "dim_closed" if leg == "whittaker_dim_closed" else "dim_bruteforce"
    legs = {"dim_closed": 10, "dim_bruteforce": 10, "dim_hecke": 10, off: 11}
    assert {c: row[c] for c in legs} == legs


@pytest.mark.parametrize("leg", ["whittaker_dim_closed", "orbit_census"])
def test_sweep_exits_2_when_one_leg_is_off(capsys, monkeypatch, leg):
    _one_leg_off_by_one(monkeypatch, leg)
    code, out, _ = run(capsys, ["sweep", "--n", "3", "--k", "2",
                                "--output", "csv"])
    assert code == 2
    agree_col = SWEEP_COLUMNS.index("agree")
    lines = out.strip().split("\n")[1:]
    assert lines
    assert {line.split(",")[agree_col] for line in lines} == {"false"}


def test_config_file_and_flag_override(capsys, tmp_path):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps(
        {"kind": "kp", "n": 4, "c": 0, "r": 2, "k": 2, "output": "json"}))
    code, out, _ = run(capsys, ["dims", "--config", str(cfgfile)])
    assert code == 0
    assert json.loads(out)["dim_closed"] == 10
    # the flag wins over the file value
    code, out, _ = run(capsys, ["dims", "--config", str(cfgfile), "--n", "1"])
    assert code == 0
    assert json.loads(out)["dim_closed"] == 1


def test_config_unknown_key_rejected(capsys, tmp_path):
    cfgfile = tmp_path / "bad.json"
    cfgfile.write_text(json.dumps({"kind": "kp", "frobenius": 2}))
    code, _, err = run(capsys, ["dims", "--config", str(cfgfile)])
    assert code == 1
    assert "frobenius" in err


def test_config_values_get_the_flags_types_and_choices(capsys, tmp_path):
    base = {"kind": "kp", "n": 4, "c": 0, "r": 2, "k": 2}
    for bad, word in (({"n": "4"}, "'n'"),             # a string for --n
                      ({"output": "xml"}, "xml"),      # not a choice
                      ({"bound": True}, "'bound'")):   # a boolean for --bound
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text(json.dumps({**base, **bad}))
        code, out, err = run(capsys, ["dims", "--config", str(cfgfile)])
        assert (code, out) == (1, ""), bad
        assert err.startswith("error: ") and word in err, err
        assert "Traceback" not in err


def test_usage_errors_exit_1(capsys):
    for argv, word in ((["dims", "--n", "abc"], "--n"),
                       (["dims", "--kind", "xx"], "--kind"),
                       ([], "command")):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and word in err, err
    with pytest.raises(SystemExit) as exc:
        main(["dims", "--help"])
    assert exc.value.code == 0


def test_derive_output(capsys):
    code, out, _ = run(capsys, ["derive", "--kind", "kp", "--n", "4",
                                "--c", "0", "--r", "3", "--k", "3",
                                "--output", "json"])
    assert code == 0
    row = json.loads(out)
    assert (row["r0"], row["n0"], row["d0"]) == (1, 4, 2)


def test_orbits_output(capsys):
    code, out, _ = run(capsys, ["orbits", "--kind", "savin", "--n", "4",
                                "--r", "2", "--k", "2", "--output", "json"])
    assert code == 0
    recs = json.loads(out)
    assert [(tuple(r["representative"]), r["size"]) for r in recs] == \
        [((0, 0), 1), ((0, 1), 2), ((1, 1), 1)]


def test_hilbert_golden(capsys):
    code, out, _ = run(capsys, ["hilbert", "--q", "5", "--n", "4",
                                "1:0", "1:0", "--output", "json"])
    assert code == 0
    row = json.loads(out)
    assert row["exp"] == 2 and row["order"] == 2
    code, out, _ = run(capsys, ["hilbert", "--q", "5", "--n", "4",
                                "1:0", "1:0"])
    assert "order 2" in out


def test_verify_all_passes(capsys):
    # pinned, so that a suite cannot drop, rename or reorder an invariant
    code, out, _ = run(capsys, ["verify"])
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == \
        "47050e251a09f665a8c85a32279f1d1c"
    code, out, _ = run(capsys, ["verify", "--output", "json"])
    assert code == 0
    assert len(json.loads(out)["results"]) == 105


def test_verify_checks_never_run_vacuously(monkeypatch):
    # the shared checks verify calls, with the position of the window, pool
    # or triples argument each runs over (None: one point per call)
    checks = {"quadratic_defect": None, "braid_relation_holds": None,
              "associative_on": 0, "bernstein_relation_holds": None,
              "trivial_on_units": None, "antisymmetric": 1,
              "bimultiplicative": 1, "nondegenerate": None,
              "cocycle_identity": None}
    calls = []

    def spy(name, real, sized):
        def wrapped(*args):
            assert sized is None or len(args[sized]) > 0, name
            calls.append(name)
            return real(*args)
        return wrapped

    for name, sized in checks.items():
        monkeypatch.setattr(cli, name, spy(name, getattr(cli, name), sized))
    cfg = cli._merge_config(cli.build_parser().parse_args(
        ["verify", "--q", "5"]))
    seen = set()
    for suite in cli.SUITES.values():
        for inv, ok, _detail in suite(cfg, False):
            assert ok and (calls or inv.startswith(
                ("bernstein.expansion", "kp.", "reps."))), inv
            seen.update(calls)
            calls.clear()
    assert seen == set(checks)


def test_verify_cocycle_named_field(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "cocycle",
                                "--q", "13", "--n", "4"])
    assert code == 0
    assert "cocycle.nondegenerate[q=13,n=4]" in out


def test_verify_inject_fault_names_invariant(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "hecke",
                                "--inject-fault"])
    assert code == 2
    assert "FAIL finite-hecke.quadratic-relation[k=2]" in out


def test_verify_at_q_sees_the_injected_fault(capsys, monkeypatch):
    calls = []
    real = cli.quadratic_defect
    monkeypatch.setattr(cli, "quadratic_defect",
                        lambda *args: calls.append(args) or real(*args))
    code, out, _ = run(capsys, ["verify", "--suite", "hecke", "--q", "5"])
    assert code == 0
    assert "ok   finite-hecke.quadratic-at-q=5" in out
    assert (1, 2, RatFunc(5)) in calls      # the product at q0 = 5
    code, out, _ = run(capsys, ["verify", "--suite", "hecke", "--q", "5",
                                "--inject-fault"])
    assert code == 2
    assert "FAIL finite-hecke.quadratic-relation[k=2]" in out
    assert "FAIL finite-hecke.quadratic-at-q=5" in out


def test_verify_json_output(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "kp-lemma", "--n", "4",
                                "--output", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert all(r["ok"] for r in report["results"])


FORCED_DISAGREEMENT = """
import dataclasses, sys
from ggdim import cli, cover
assert False, "asserts must be off under -O"
real = cover.derive_params
cover.derive_params = lambda cov, ty: dataclasses.replace(
    real(cov, ty), d0=real(cov, ty).d0 + 1)
sys.exit(cli.main(sys.argv[1:]))
"""


def test_internal_check_survives_optimize_and_exits_2():
    # x_lambda checks |X| against the KP order formula; skewing d0 in the
    # formula's input makes that check fail, and it must still fire under -O
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", FORCED_DISAGREEMENT, "dims", "--kind", "kp",
         "--n", "4", "--c", "0", "--r", "2", "--k", "2"],
        env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    assert "internal disagreement" in out.stderr
    assert "Traceback" not in out.stderr


def test_dims_k10_trivial_group_is_fast():
    # |X| = 1 and one 1-dimensional module: no pass over the 10! permutations
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-m", "ggdim.cli", "dims", "--kind", "kp", "--n", "1",
         "--r", "10", "--k", "10", "--output", "json"],
        env=env, capture_output=True, text=True, timeout=20)
    assert out.returncode == 0, out.stderr
    row = json.loads(out.stdout)
    assert row["x_order"] == 1 and row["dim_hecke"] == 1
    assert row["agree"] is True


def test_dims_refuses_hecke_leg_over_work_limit(capsys, monkeypatch):
    # KP n=4, k=8: |X| = 65536 is within --bound, but its 64 stabilizer
    # types need 46875 kernel columns; the refusal comes from the census
    # alone, before any module is built
    from ggdim import hecke_finite

    def refuse(k, J):
        raise AssertionError("module (%d, %s) built" % (k, J))

    monkeypatch.setattr(hecke_finite, "induced_sign_module", refuse)
    code, out, err = run(capsys, ["dims", "--kind", "kp", "--n", "4",
                                  "--r", "8", "--k", "8"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "46875" in err


def test_sweep_marks_hecke_cell_na_over_work_limit(capsys, monkeypatch):
    from ggdim import hecke_affine
    argv = ["sweep", "--kind", "savin", "--n", "4", "--k", "3",
            "--output", "json"]
    _, out, _ = run(capsys, argv)
    full = json.loads(out)
    # only k = 3, l0 = 1 at n = 3 and n = 4 need more than 6 kernel columns:
    # J in {(3,), (2, 1), (1, 2), (1, 1, 1)} gives 1 + 3 + 3 + 6 = 13, and
    # J in {(3,), (2, 1), (1, 2)} gives 7
    monkeypatch.setattr(hecke_affine, "MAX_HECKE_COLUMNS", 6)
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    limited = json.loads(out)
    assert len(limited) == len(full)
    refused = [(row["n"], row["k"], row["l0"]) for row in limited
               if row["dim_hecke"] is None]
    assert refused == [(3, 3, 1), (4, 3, 1)]
    for row, ref in zip(limited, full):
        if row["dim_hecke"] is None:
            assert row["agree"] is None
            assert dict(row, dim_hecke=ref["dim_hecke"], agree=True) == ref
        else:
            assert row == ref
