"""One cold pass of a benchmark workload, in a fresh interpreter.

    python3 bench/worker.py --workload grid --seed 1 --pass-index 0

run.py starts one worker per pass with PYTHONPATH pointing at the checkout's
src/.  The worker imports ggdim, runs its pass, checks every output against
golden values and prints one JSON object: instance count, failures, work wall
and CPU time, per-instance latencies, its pid and peak RSS, and (with
--trace) the per-layer summary of tracer.Tracer.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import resource
import sys
import time
from math import comb, gcd

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from ggdim import cli  # noqa: E402
from ggdim.cover import (  # noqa: E402
    DEFAULT_ORBIT_BOUND, KIND_KP, TypeSpec, kp_cover, savin_cover,
)

from tracer import Tracer  # noqa: E402

WORKLOADS = ("grid", "dims-large", "wide", "verify")

# `ggdim sweep --n 12 --k 5 --bound 64 --output csv`: the same bytes for
# every --f in 1..3 (recorded from the program as first benchmarked)
WIDE_CSV_MD5 = "2fedb199adfd3fc9d4f12a7131ade816"
WIDE_ROWS = 1495
DIMS_LARGE_DIM = 462
DIMS_LARGE_ORDER = 46656
VERIFY_INVARIANTS = 105

GRID_SLICES = 12            # a timed grid pass runs one slice of the order
GRID_FIXED_SLICES = 4       # the fixed (traced) grid unit: the first third
_PHI = (math.sqrt(5) - 1) / 2


# -- golden values, from the paper's formulas -----------------------------------

def expected_constants(kind: str, n: int, c: int, d: int, r: int, k: int,
                       l0: int) -> tuple:
    """(n0, d0, |X|, closed-form dimension) for a KP or Savin instance."""
    r0 = r // k
    n0 = n // gcd(n, (2 * c + d) * r0 * l0, d * l0)
    d0 = n // gcd(n, l0 * (2 * c * r + d * r - d))
    if kind == KIND_KP:
        order = n0 ** (k - 1) * d0
        dim = comb(k + n0 - 1, k) * d0 // n0
    else:
        order = n0 ** k
        dim = comb(k + n0 - 1, k)
    return n0, d0, order, dim


# -- workload inputs ------------------------------------------------------------

def grid_instances() -> list:
    """The acceptance-sweep instance set (2936 KP and Savin instances)."""
    out = []
    for n in range(1, 11):
        covers = [kp_cover(n, c) for c in range(n)] + [savin_cover(n)]
        for cov in covers:
            mults = (1, 2, 3, 4) if cov.kind == KIND_KP else (1, 2)
            for k, mult in itertools.product((1, 2, 3, 4), mults):
                for l0 in range(1, n + 1):
                    if n % l0 == 0:
                        out.append((cov, TypeSpec(r=mult * k, k=k, l0=l0)))
    return out


def grid_order(instances: list, rng: random.Random) -> list:
    """A seeded order in which every run of neighbours is a stratified sample.

    Instances are ranked by a work proxy known from the input alone
    (k, then |X|), ties broken at random; rank i gets the key
    frac(u0 + i*phi) for a random offset u0, and the order is by key.
    Any slice of the order thus holds the same mix of cheap and expensive
    instances, whatever the seed, so the throughput of a pass over one slice
    does not depend on which of the few heavy instances it happened to get.
    """
    def proxy(inst):
        cov, ty = inst
        order = expected_constants(cov.kind, cov.n, cov.c, cov.d, ty.r, ty.k,
                                   ty.l0)[2]
        return (ty.k, order)

    ranked = sorted(instances, key=lambda inst: (proxy(inst), rng.random()))
    u0 = rng.random()
    keyed = sorted(range(len(ranked)), key=lambda i: (u0 + i * _PHI) % 1.0)
    return [ranked[i] for i in keyed]


def check_grid_row(cov, ty, row) -> bool:
    n0, d0, order, dim = expected_constants(cov.kind, cov.n, cov.c, cov.d,
                                            ty.r, ty.k, ty.l0)
    return (row["agree"] is True and row["n0"] == n0 and row["d0"] == d0
            and row["x_order"] == order and row["dim_closed"] == dim
            and row["orbit_count"] == dim)


# -- passes ---------------------------------------------------------------------

class Pass:
    """Accumulates one pass's measurements."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.info: dict = {}

    def time_dim_report(self) -> None:
        """Time every cli.dim_report call (wide and dims go through cli.main)."""
        inner = cli.dim_report
        lat, tracer = self.latencies, self.tracer

        def timed(*args, **kwargs):
            if tracer is not None:
                tracer.instance = len(lat)
            t0 = time.perf_counter()
            row = inner(*args, **kwargs)
            lat.append(time.perf_counter() - t0)
            return row

        cli.dim_report = timed

    def run_cli(self, argv: list) -> tuple:
        """(exit code, stdout) of `ggdim argv`; an escaping exception exits 1."""
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except Exception as exc:      # counted as failed instances by the caller
            print(f"ggdim {' '.join(argv)}: {exc!r}", file=sys.stderr)
            return 1, ""
        return code, buf.getvalue()


def grid_slice(order: list, pass_index: int, fixed: bool) -> list:
    """A pass's instances: one twelfth of the order, or the fixed third."""
    n = len(order)
    if fixed:
        return order[:n * GRID_FIXED_SLICES // GRID_SLICES]
    i = pass_index % GRID_SLICES
    return order[n * i // GRID_SLICES:n * (i + 1) // GRID_SLICES]


def run_grid(p: Pass, seed: int, pass_index: int, fixed: bool) -> None:
    order = grid_order(grid_instances(), random.Random(seed))
    for idx, (cov, ty) in enumerate(grid_slice(order, pass_index, fixed)):
        if p.tracer is not None:
            p.tracer.instance = idx
        p.attempted += 1
        t0 = time.perf_counter()
        try:
            row = cli.dim_report(cov, ty, DEFAULT_ORBIT_BOUND)
        except Exception as exc:       # a failing instance is counted, not fatal
            p.failed += 1
            print(f"grid {cov} {ty}: {exc!r}", file=sys.stderr)
            continue
        p.latencies.append(time.perf_counter() - t0)
        if not check_grid_row(cov, ty, row):
            p.failed += 1
            print(f"grid {cov} {ty}: wrong row {row}", file=sys.stderr)


def run_dims_large(p: Pass, seed: int, pass_index: int) -> None:
    c = (random.Random(seed).randrange(6) + pass_index) % 6
    p.info["c"] = c
    p.time_dim_report()
    p.attempted = 1
    code, out = p.run_cli(["dims", "--kind", "kp", "--n", "6", "--c", str(c),
                           "--r", "6", "--k", "6", "--output", "json"])
    row = json.loads(out) if code == 0 else {}
    ok = (code == 0 and row.get("agree") is True
          and row.get("x_order") == DIMS_LARGE_ORDER
          and row.get("dim_closed") == row.get("dim_bruteforce")
          == row.get("dim_hecke") == DIMS_LARGE_DIM)
    if not ok:
        p.failed = 1
        print(f"dims-large c={c}: exit {code}, row {row}", file=sys.stderr)


def run_wide(p: Pass, seed: int, pass_index: int) -> None:
    f = random.Random(seed).sample((1, 2, 3), 3)[pass_index % 3]
    p.info["f"] = f
    p.time_dim_report()
    code, out = p.run_cli(["sweep", "--n", "12", "--k", "5", "--bound", "64",
                           "--output", "csv", "--f", str(f)])
    digest = hashlib.md5(out.encode()).hexdigest()
    p.info["csv_md5"] = digest
    p.attempted = WIDE_ROWS
    ok = code == 0 and digest == WIDE_CSV_MD5 and len(p.latencies) == WIDE_ROWS
    if not ok:
        p.failed = WIDE_ROWS
        print(f"wide f={f}: exit {code}, md5 {digest}", file=sys.stderr)


def run_verify(p: Pass) -> None:
    suite_s: dict[str, float] = {}
    lat, tracer = p.latencies, p.tracer

    def timed_suite(name, suite):
        def run(cfg, inject_fault):
            it = suite(cfg, inject_fault)
            suite_s[name] = 0.0
            while True:
                if tracer is not None:
                    tracer.instance = len(lat)
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    suite_s[name] += time.perf_counter() - t0
                    return
                dt = time.perf_counter() - t0
                suite_s[name] += dt
                lat.append(dt)
                yield item
        return run

    for name, suite in list(cli.SUITES.items()):
        cli.SUITES[name] = timed_suite(name, suite)
    code, out = p.run_cli(["verify", "--suite", "all", "--output", "json"])
    p.attempted = VERIFY_INVARIANTS
    results = json.loads(out)["results"] if out.strip() else []
    held = sum(1 for r in results if r["ok"])
    p.failed = VERIFY_INVARIANTS - min(held, VERIFY_INVARIANTS)
    if code != 0 or len(results) != VERIFY_INVARIANTS:
        p.failed = max(p.failed, 1)
        print(f"verify: exit {code}, {len(results)} invariants", file=sys.stderr)
    p.info["suite_s"] = suite_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--fixed", action="store_true",
                    help="run the fixed traced unit (grid: the first third "
                         "of the order; other workloads: pass 0)")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write the traced spans to this file")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    p = Pass(tracer)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if args.workload == "grid":
        run_grid(p, args.seed, args.pass_index, args.fixed)
    elif args.workload == "dims-large":
        run_dims_large(p, args.seed, args.pass_index)
    elif args.workload == "wide":
        run_wide(p, args.seed, args.pass_index)
    else:
        run_verify(p)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0

    result = {"pid": os.getpid(), "attempted": p.attempted, "failed": p.failed,
              "wall_s": wall, "cpu_s": cpu,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "latencies_s": p.latencies, "info": p.info}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary(p.attempted)
        result["bindings"] = tracer.bindings
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
