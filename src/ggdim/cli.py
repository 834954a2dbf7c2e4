"""Command-line front end.

Subcommands:

    derive   print the derived cover constants r0, n0, d0
    orbits   enumerate X(lambda) orbits with stabilizer data
    dims     compute the Whittaker dimension three ways and compare
    sweep    tabulate dims over parameter ranges (CSV/JSON)
    verify   run the library's invariant suites
    hilbert  evaluate one tame Hilbert symbol

Flags are mirrored one-to-one by an optional JSON config file
(--config), whose values must have the flags' types and choices; explicit
flags override file values.  Exit codes: 0 on success, 1 on invalid input
(usage errors included), 2 when independent computations of the same
quantity disagree or an internal consistency check fails (which would mean
a bug, not a user error).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from .cocycle import (
    FieldElem, FieldModel, antisymmetric, bimultiplicative, cocycle_identity,
    hilbert, nondegenerate, trivial_on_units,
)
from .coeff import RatFunc
from .cover import (
    DEFAULT_ORBIT_BOUND, KIND_GENERIC, KIND_KP, KIND_SAVIN, CoverSpec,
    TypeSpec, derive_params, divisors, generic_cover, kp_cover, orbit_census,
    orbits, savin_cover, select_representatives, verify_kp_lemma,
    whittaker_dim_closed, x_lambda,
)
from .errors import InternalDisagreement, WorkLimitExceeded
from .hecke_affine import (
    bernstein_relation_holds, check_twphi_lemma, whittaker_dim_hecke,
)
from .hecke_finite import (
    FiniteHeckeElement, associative_on, braid_relation_holds, quadratic_defect,
)
from .symgroup import all_permutations

SWEEP_COLUMNS = ["kind", "n", "c", "d", "r", "k", "l0", "r0", "n0", "d0",
                 "x_order", "orbit_count", "dim_closed", "dim_bruteforce",
                 "dim_hecke", "agree"]

# the flags every subcommand takes, with their argparse type or choices; a
# --config file may set each of them, and its values are checked the same way
OPTIONS = {"kind": {"choices": [KIND_KP, KIND_SAVIN, KIND_GENERIC]},
           "n": {"type": int}, "c": {"type": int}, "d": {"type": int},
           "r": {"type": int}, "k": {"type": int}, "l0": {"type": int},
           "f": {"type": int}, "q": {"type": str}, "bound": {"type": int},
           "output": {"choices": ["json", "csv", "text"]}}


@dataclass
class RunConfig:
    kind: str | None
    n: int | None
    c: int | None
    d: int | None
    r: int | None
    k: int | None
    l0: int
    f: int
    q: str | None
    bound: int
    output: str


def _merge_config(args: argparse.Namespace) -> RunConfig:
    file_vals = {}
    if args.config is not None:
        with open(args.config) as fh:
            file_vals = json.load(fh)
        bad = set(file_vals) - set(OPTIONS)
        if bad:
            raise ValueError(f"unknown config keys: {sorted(bad)}")
        for name, val in file_vals.items():
            _check_config_value(name, val)
    defaults = {"l0": 1, "f": 1, "bound": DEFAULT_ORBIT_BOUND, "output": "text"}

    def pick(name):
        flag = getattr(args, name)
        if flag is not None:
            return flag
        if name in file_vals:
            return file_vals[name]
        return defaults.get(name)

    return RunConfig(**{name: pick(name) for name in OPTIONS})


def _check_config_value(name: str, val) -> None:
    """Refuse a config value its flag would not produce (booleans too)."""
    spec = OPTIONS[name]
    want = spec.get("type", str)
    if isinstance(val, bool) or not isinstance(val, want):
        raise ValueError(f"config key {name!r}: expected "
                         f"{'an integer' if want is int else 'a string'}, "
                         f"got {json.dumps(val)}")
    if "choices" in spec and val not in spec["choices"]:
        raise ValueError(f"config key {name!r}: invalid choice {val!r} "
                         f"(choose from {', '.join(spec['choices'])})")


def _build_cover(cfg: RunConfig) -> CoverSpec:
    if cfg.kind is None:
        raise ValueError("--kind is required")
    if cfg.n is None:
        raise ValueError("--n is required")
    if cfg.kind == KIND_KP:
        return kp_cover(cfg.n, cfg.c if cfg.c is not None else 0)
    if cfg.kind == KIND_SAVIN:
        return savin_cover(cfg.n)
    if cfg.c is None or cfg.d is None:
        raise ValueError("--c and --d are required for a generic cover")
    return generic_cover(cfg.n, cfg.c, cfg.d)


def _build_type(cfg: RunConfig) -> TypeSpec:
    if cfg.r is None or cfg.k is None:
        raise ValueError("--r and --k are required")
    return TypeSpec(r=cfg.r, k=cfg.k, l0=cfg.l0, f=cfg.f)


def _fmt(v) -> str:
    if v is None:
        return "NA"
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def dim_report(cov: CoverSpec, ty: TypeSpec, bound: int,
               na_over_work_limit: bool = False) -> dict:
    """One dims row.

    A Hecke leg over its work limit raises WorkLimitExceeded, or leaves
    dim_hecke (and so agree) NA when na_over_work_limit is set.
    """
    der = derive_params(cov, ty)
    xg = x_lambda(cov, ty)
    row = {"kind": cov.kind, "n": cov.n, "c": cov.c, "d": cov.d,
           "r": ty.r, "k": ty.k, "l0": ty.l0,
           "r0": der.r0, "n0": der.n0, "d0": der.d0, "x_order": xg.order}
    closed = None
    if cov.kind in (KIND_KP, KIND_SAVIN):
        closed = whittaker_dim_closed(cov, ty)
    row["dim_closed"] = closed
    if xg.order > bound:
        row["orbit_count"] = None
        row["dim_bruteforce"] = None
        row["dim_hecke"] = None
    else:
        count = sum(orbit_census(xg, bound=bound).values())
        row["orbit_count"] = count
        row["dim_bruteforce"] = count
        row["dim_hecke"] = None
        if cov.kind in (KIND_KP, KIND_SAVIN):
            try:
                row["dim_hecke"] = whittaker_dim_hecke(cov, ty, bound=bound)
            except WorkLimitExceeded:
                if not na_over_work_limit:
                    raise
    dims = (row["dim_closed"], row["dim_bruteforce"], row["dim_hecke"])
    if all(v is not None for v in dims):
        row["agree"] = dims[0] == dims[1] == dims[2]
    else:
        row["agree"] = None
    return row


def _print_csv(rows: list[dict]) -> None:
    sys.stdout.write(",".join(SWEEP_COLUMNS) + "\n")
    for row in rows:
        sys.stdout.write(",".join(_fmt(row[c]) for c in SWEEP_COLUMNS) + "\n")


def cmd_derive(cfg: RunConfig) -> int:
    cov, ty = _build_cover(cfg), _build_type(cfg)
    der = derive_params(cov, ty)
    out = {"kind": cov.kind, "n": cov.n, "c": cov.c, "d": cov.d,
           "r": ty.r, "k": ty.k, "l0": ty.l0, "f": ty.f,
           "r0": der.r0, "n0": der.n0, "d0": der.d0}
    if cfg.output == "json":
        print(json.dumps(out))
    else:
        for key, val in out.items():
            print(f"{key} = {val}")
    return 0


def cmd_orbits(cfg: RunConfig) -> int:
    cov, ty = _build_cover(cfg), _build_type(cfg)
    xg = x_lambda(cov, ty)
    recs = orbits(xg, bound=cfg.bound)
    if cfg.output == "json":
        print(json.dumps([
            {"representative": list(rec.representative), "size": rec.size,
             "stabilizer_order": rec.stabilizer_order,
             "stabilizer": list(rec.stabilizer) if rec.stabilizer else None,
             "young": rec.young}
            for rec in recs]))
    elif cfg.output == "csv":
        print("representative,size,stabilizer_order,stabilizer,young")
        for rec in recs:
            stab = " ".join(map(str, rec.stabilizer)) if rec.stabilizer else "NA"
            rep = " ".join(map(str, rec.representative))
            print(f"{rep},{rec.size},{rec.stabilizer_order},{stab},{_fmt(rec.young)}")
    else:
        print(f"|X| = {xg.order}, {len(recs)} orbits")
        for rec in recs:
            print(f"  rep {rec.representative}  size {rec.size}  "
                  f"stabilizer {rec.stabilizer} (order {rec.stabilizer_order})")
    return 0


def cmd_dims(cfg: RunConfig) -> int:
    cov, ty = _build_cover(cfg), _build_type(cfg)
    row = dim_report(cov, ty, cfg.bound)
    if cfg.output == "json":
        print(json.dumps(row))
    elif cfg.output == "csv":
        _print_csv([row])
    else:
        pieces = [f"{c}={_fmt(row[c])}" for c in SWEEP_COLUMNS]
        print(" ".join(pieces))
    return 2 if row["agree"] is False else 0


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.n is None or cfg.k is None:
        raise ValueError("sweep needs --n and --k upper bounds")
    rmult = cfg.r if cfg.r is not None else 1
    kinds = [cfg.kind] if cfg.kind else [KIND_KP, KIND_SAVIN]
    if KIND_GENERIC in kinds:
        raise ValueError("sweep covers the kp and savin families only")
    rows = []
    for kind in kinds:
        for n in range(1, cfg.n + 1):
            if kind == KIND_KP:
                covers = [kp_cover(n, c) for c in range(n)]
            else:
                covers = [savin_cover(n)]
            for cov in covers:
                for k in range(1, cfg.k + 1):
                    for mult in range(1, rmult + 1):
                        for l0 in divisors(n):
                            ty = TypeSpec(r=mult * k, k=k, l0=l0, f=cfg.f)
                            rows.append(dim_report(
                                cov, ty, cfg.bound, na_over_work_limit=True))
    rows.sort(key=lambda row: (row["kind"], row["n"], row["c"], row["d"],
                               row["r"], row["k"], row["l0"]))
    if cfg.output == "json":
        print(json.dumps(rows))
    else:
        _print_csv(rows)
    return 2 if any(row["agree"] is False for row in rows) else 0


def cmd_hilbert(cfg: RunConfig, elems: list[str]) -> int:
    if cfg.q is None or cfg.n is None:
        raise ValueError("hilbert needs --q and --n")
    fm = FieldModel(int(cfg.q), cfg.n)
    if len(elems) != 2:
        raise ValueError("hilbert takes two elements in val:unit form")

    def parse(text: str) -> FieldElem:
        val, _, ue = text.partition(":")
        return FieldElem(int(val), int(ue) if ue else 0)

    u, v = parse(elems[0]), parse(elems[1])
    out = hilbert(fm, u, v)
    if cfg.output == "json":
        print(json.dumps({"q": fm.q, "n": fm.n, "exp": out.exp,
                          "order": out.order}))
    else:
        print(f"(pi^{u.valuation} g^{u.unit_exp}, pi^{v.valuation} "
              f"g^{v.unit_exp})_{fm.n} = zeta^{out.exp} (order {out.order})")
    return 0


# ---------------------------------------------------------------------------
# verify suites: each yields (invariant name, ok, detail)


def _suite_hecke(cfg: RunConfig, inject_fault: bool):
    for k in range(2, 5):
        defects = [quadratic_defect(i, k) for i in range(1, k)]
        if inject_fault and k == 2:
            # a corrupted structure constant: T_s*T_s gains a stray T_e
            defects[0] = defects[0] + FiniteHeckeElement.unit(k)
        yield f"finite-hecke.quadratic-relation[k={k}]", \
            all(d.is_zero() for d in defects), ""
    for k in (3, 4):
        yield f"finite-hecke.braid-relation[k={k}]", \
            all(braid_relation_holds(i, k) for i in range(1, k - 1)), ""
    rng = random.Random(101)
    perms = all_permutations(3)
    triples = [tuple(FiniteHeckeElement.basis(rng.choice(perms))
                     for _ in range(3)) for _ in range(50)]
    yield "finite-hecke.associativity[k=3,50 triples]", \
        associative_on(triples), ""
    if cfg.q is not None:
        qv = Fraction(cfg.q)
        defect = quadratic_defect(1, 2, RatFunc(qv.numerator, qv.denominator))
        if inject_fault:
            defect = defect + FiniteHeckeElement.unit(2)
        yield f"finite-hecke.quadratic-at-q={cfg.q}", defect.is_zero(), ""


def _suite_bernstein(cfg: RunConfig, inject_fault: bool):
    pairs = [(savin_cover(4), TypeSpec(r=2, k=2, l0=1)),
             (kp_cover(4, 0), TypeSpec(r=2, k=2, l0=1))]
    for cov, ty in pairs:
        lat = x_lambda(cov, ty)
        n0 = derive_params(cov, ty).n0
        window = range(-2 * n0, 2 * n0 + 1)
        ok = all(bernstein_relation_holds(lat, (a, b), 1)
                 for a in window for b in window if lat.contains((a, b)))
        yield f"bernstein.relation[{cov.kind},n=4,k=2]", ok, ""
    lat = x_lambda(savin_cover(4), TypeSpec(r=2, k=2, l0=1))
    ok = all(check_twphi_lemma(lat, w, t, (0, 4)).all_ok
             for t in ((0, 0), (0, 2), (2, 2), (0, 4), (2, 4))
             for w in all_permutations(2))
    yield "bernstein.expansion-lemma[savin,n=4,sorted window]", ok, ""


def _suite_kp_lemma(cfg: RunConfig, inject_fault: bool):
    nmax = cfg.n if cfg.n is not None else 8
    cases = [(kp_cover(n, c), TypeSpec(r=k, k=k, l0=l0))
             for n in range(1, nmax + 1) for c in range(n)
             for l0 in divisors(n) for k in (1, 2, 3)]
    yield f"kp.gcd-lemma[{len(cases)} instances]", \
        all(verify_kp_lemma(cov, ty) for cov, ty in cases), ""


def _suite_cocycle(cfg: RunConfig, inject_fault: bool):
    if cfg.q is not None and cfg.n is not None:
        models = [FieldModel(int(cfg.q), cfg.n)]
    else:
        models = [FieldModel(q, n) for q in (5, 7, 13)
                  for n in divisors(q - 1)]
    rng = random.Random(2025)
    for fm in models:
        tag = f"q={fm.q},n={fm.n}"
        yield f"cocycle.unit-triviality[{tag}]", trivial_on_units(fm), ""
        pool = [FieldElem(v, e) for v in (0, 1) for e in range(fm.q - 1)]
        yield f"cocycle.antisymmetry[{tag}]", antisymmetric(fm, pool), ""
        triples = [tuple(rng.choice(pool) for _ in range(3))
                   for _ in range(100)]
        yield f"cocycle.bimultiplicativity[{tag}]", \
            bimultiplicative(fm, triples), ""
        yield f"cocycle.nondegenerate[{tag}]", nondegenerate(fm), ""
        for c, d in ((0, 1), (1, 1), (-1, 2)):
            ok = True
            for _ in range(200):
                r = rng.randint(1, 3)
                g1, g2, g3 = (tuple(FieldElem(rng.randint(-3, 3),
                                              rng.randint(0, fm.q - 2))
                                    for _ in range(r)) for _ in range(3))
                ok = cocycle_identity(fm, c, d, g1, g2, g3) and ok
            yield f"cocycle.2-cocycle-identity[{tag},c={c},d={d}]", ok, ""


def _suite_reps(cfg: RunConfig, inject_fault: bool):
    cases = [(kp_cover(4, 0), TypeSpec(r=2, k=2, l0=1)),
             (kp_cover(6, 1), TypeSpec(r=2, k=2, l0=2)),
             (savin_cover(4), TypeSpec(r=2, k=2, l0=1)),
             (savin_cover(3), TypeSpec(r=6, k=3, l0=1))]
    for cov, ty in cases:
        reps = select_representatives(cov, ty)
        count = len(orbits(x_lambda(cov, ty)))
        ok = len(reps) == count
        yield f"reps.orbit-transversal[{cov.kind},n={cov.n},k={ty.k}]", ok, \
            f"{len(reps)} representatives for {count} orbits"


SUITES = {
    "hecke": _suite_hecke,
    "bernstein": _suite_bernstein,
    "kp-lemma": _suite_kp_lemma,
    "cocycle": _suite_cocycle,
    "reps": _suite_reps,
}


def cmd_verify(cfg: RunConfig, suite: str, inject_fault: bool) -> int:
    names = list(SUITES) if suite == "all" else [suite]
    results = []
    for name in names:
        for inv, ok, detail in SUITES[name](cfg, inject_fault):
            results.append({"invariant": inv, "ok": ok, "detail": detail})
    failed = [r for r in results if not r["ok"]]
    if cfg.output == "json":
        print(json.dumps({"results": results, "ok": not failed}))
    else:
        for r in results:
            mark = "ok  " if r["ok"] else "FAIL"
            tail = f"  {r['detail']}" if r["detail"] else ""
            print(f"{mark} {r['invariant']}{tail}")
        print(f"{len(results) - len(failed)}/{len(results)} invariants hold")
    return 2 if failed else 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, so they exit 1 like any invalid input."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    for name, spec in OPTIONS.items():
        common.add_argument("--" + name, **spec)
    common.add_argument("--config", type=str)

    parser = _Parser(
        prog="ggdim",
        description="Whittaker dimensions of Gelfand-Graev modules "
                    "on metaplectic covers")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("derive", parents=[common])
    sub.add_parser("orbits", parents=[common])
    sub.add_parser("dims", parents=[common])
    sub.add_parser("sweep", parents=[common],
                   help="--n/--k/--r are upper bounds; r runs over "
                        "multiples of k; KP sweeps c in 0..n-1 and "
                        "l0 over divisors of n")
    ver = sub.add_parser("verify", parents=[common])
    ver.add_argument("--suite", choices=["all"] + list(SUITES), default="all")
    ver.add_argument("--inject-fault", action="store_true",
                     help="deliberately corrupt one Hecke structure "
                          "constant (harness self-test)")
    hil = sub.add_parser("hilbert", parents=[common])
    hil.add_argument("elements", nargs="*",
                     help="two elements of F^x as val:unit_exp")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _merge_config(args)
        if args.command == "derive":
            return cmd_derive(cfg)
        if args.command == "orbits":
            return cmd_orbits(cfg)
        if args.command == "dims":
            return cmd_dims(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, args.suite, args.inject_fault)
        if args.command == "hilbert":
            return cmd_hilbert(cfg, args.elements)
        raise AssertionError(f"unhandled command {args.command}")
    except InternalDisagreement as exc:
        print(f"error: internal disagreement: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
