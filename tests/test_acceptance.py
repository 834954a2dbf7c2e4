"""Acceptance suite: one test, and one printed pass/fail line, per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.  The parameter sweep shared by
criteria 1, 2, 3 and 7 is built once as a module fixture.
"""

import itertools
import random
import time
from math import factorial

import pytest

from ggdim.cocycle import (
    FieldElem, FieldModel, antisymmetric, bimultiplicative, cocycle_identity,
    hilbert, nondegenerate, trivial_on_units,
)
from ggdim.coeff import RatFunc
from ggdim.cover import (
    KIND_KP, TypeSpec, derive_params, divisors, kp_cover, orbits, savin_cover,
    verify_kp_lemma, whittaker_dim_closed, x_lambda,
)
from ggdim.hecke_affine import (
    AffineHeckeElement, bernstein_relation_holds, check_twphi_lemma,
    whittaker_dim_hecke,
)
from ggdim.hecke_finite import (
    FiniteHeckeElement, associative_on, braid_relation_holds, hom_to_sign_dim,
    induced_sign_module, quadratic_defect,
)
from ggdim.symgroup import all_permutations

from shared import compositions


def _line(num: int, ok: bool, desc: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}")


@pytest.fixture(scope="module")
def sweep():
    """All (cover, type) instances of criterion 1, with everything computed."""
    t0 = time.monotonic()
    rows = []
    for n in range(1, 11):
        covers = [kp_cover(n, c) for c in range(n)] + [savin_cover(n)]
        for cov in covers:
            mults = (1, 2, 3, 4) if cov.kind == KIND_KP else (1, 2)
            for k in (1, 2, 3, 4):
                for mult in mults:
                    for l0 in divisors(n):
                        ty = TypeSpec(r=mult * k, k=k, l0=l0)
                        der = derive_params(cov, ty)
                        xg = x_lambda(cov, ty)
                        recs = orbits(xg)
                        closed = whittaker_dim_closed(cov, ty)
                        hecke = whittaker_dim_hecke(cov, ty)
                        rows.append((cov, ty, der, xg, recs, closed, hecke))
    return rows, time.monotonic() - t0


def test_criterion_01_triple_agreement(sweep):
    rows, elapsed = sweep
    bad = [(cov, ty) for cov, ty, _d, _x, recs, closed, hecke in rows
           if not (closed == len(recs) == hecke)]
    ok = not bad and elapsed < 120.0
    _line(1, ok, f"dim_closed = orbit count = Hecke Hom dim on "
                 f"{len(rows)} instances ({elapsed:.1f}s)")
    assert not bad, bad[:5]
    assert elapsed < 120.0


def test_criterion_02_x_order_formulas(sweep):
    rows, _ = sweep
    bad = []
    for cov, ty, der, xg, _r, _c, _h in rows:
        want = der.n0 ** (ty.k - 1) * der.d0 if cov.kind == KIND_KP \
            else der.n0 ** ty.k
        if xg.order != want:
            bad.append((cov, ty, xg.order, want))
    _line(2, not bad, f"|X| matches the closed formula on {len(rows)} instances")
    assert not bad, bad[:5]


def test_criterion_03_kp_gcd_lemma(sweep):
    rows, _ = sweep
    kp_rows = [(cov, ty) for cov, ty, *_ in rows if cov.kind == KIND_KP]
    bad = [(cov, ty) for cov, ty in kp_rows if not verify_kp_lemma(cov, ty)]
    _line(3, not bad, f"KP gcd lemma on {len(kp_rows)} instances")
    assert not bad, bad[:5]


def test_criterion_04_multiplicity_one():
    bad = []
    for k in range(1, 7):
        for cov in (kp_cover(1, 0), savin_cover(1)):
            ty = TypeSpec(r=k, k=k, l0=1)
            dims = (whittaker_dim_closed(cov, ty),
                    len(orbits(x_lambda(cov, ty))),
                    whittaker_dim_hecke(cov, ty))
            if dims != (1, 1, 1):
                bad.append((cov, k, dims))
    _line(4, not bad, "n=1 gives Whittaker dimension 1 for k <= 6")
    assert not bad, bad


def test_criterion_05_finite_hecke_suite():
    t0 = time.monotonic()
    failures = []
    for k in range(2, 5):
        if len(all_permutations(k)) != factorial(k):
            failures.append(f"basis size k={k}")
        for i in range(1, k):
            if not quadratic_defect(i, k).is_zero():
                failures.append(f"quadratic k={k} i={i}")
        for i in range(1, k - 1):
            if not braid_relation_holds(i, k):
                failures.append(f"braid k={k} i={i}")
    rng = random.Random(424)
    perms = all_permutations(4)
    triples = [tuple(FiniteHeckeElement.basis(rng.choice(perms))
                     for _ in range(3)) for _ in range(200)]
    if not associative_on(triples):
        failures.append("associativity k=4")
    for k in range(1, 6):
        for comp in compositions(k):
            mod = induced_sign_module(k, comp)
            expect = factorial(k)
            for part in comp:
                expect //= factorial(part)
            if mod.dim != expect:
                failures.append(f"induced dim {comp}")
            if hom_to_sign_dim(mod) != 1:
                failures.append(f"hom dim {comp}")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 60.0
    _line(5, ok, f"finite Hecke relations, induced modules, hom dims "
                 f"({elapsed:.1f}s)")
    assert not failures, failures
    assert elapsed < 60.0


def _bernstein_lattices():
    return [
        (kp_cover(4, 0), TypeSpec(r=2, k=2, l0=1)),
        (kp_cover(4, 0), TypeSpec(r=3, k=3, l0=1)),
        (savin_cover(4), TypeSpec(r=2, k=2, l0=1)),
        (savin_cover(4), TypeSpec(r=3, k=3, l0=1)),
    ]


def test_criterion_06_bernstein_suite():
    t0 = time.monotonic()
    failures = []
    for cov, ty in _bernstein_lattices():
        lat = x_lambda(cov, ty)
        n0 = derive_params(cov, ty).n0
        window = [t for t in itertools.product(
            range(-2 * n0, 2 * n0 + 1), repeat=ty.k) if lat.contains(t)]
        if not window:
            failures.append(f"empty window {cov.kind} k={ty.k}")
        for t in window:
            for i in range(1, ty.k):
                if not bernstein_relation_holds(lat, t, i):
                    failures.append(f"Bernstein relation {cov.kind} t={t} i={i}")
        # expansion lemma on the nondecreasing window [0, 2n0]
        box = (0, 2 * n0)
        for t in itertools.combinations_with_replacement(
                range(0, 2 * n0 + 1), ty.k):
            if not lat.contains(t):
                continue
            for w in all_permutations(ty.k):
                rep = check_twphi_lemma(lat, w, t, box)
                if not rep.all_ok:
                    failures.append(
                        f"expansion {cov.kind} k={ty.k} w={w.one_line} t={t}: "
                        f"{rep.failures}")
    rng = random.Random(77)
    for cov, ty in (_bernstein_lattices()[0], _bernstein_lattices()[3]):
        lat = x_lambda(cov, ty)
        window = [t for t in itertools.product(range(-4, 5), repeat=ty.k)
                  if lat.contains(t)]
        perms = all_permutations(ty.k)
        triples = []
        for _ in range(25):
            elts = []
            for _j in range(3):
                supp = {(rng.choice(window), rng.choice(perms)):
                        RatFunc(rng.randint(-2, 2))}
                elts.append(AffineHeckeElement(lat, supp))
            triples.append(tuple(elts))
        if not associative_on(triples):
            failures.append("affine associativity")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 120.0
    _line(6, ok, f"Bernstein relation window, expansion lemma, "
                 f"associativity ({elapsed:.1f}s)")
    assert not failures, failures[:5]
    assert elapsed < 120.0


def test_criterion_07_free_rank_shadow(sweep):
    rows, _ = sweep
    bad = []
    for cov, ty, _d, xg, recs, _c, _h in rows:
        total = sum(factorial(ty.k) // rec.stabilizer_order for rec in recs)
        if total != xg.order:
            bad.append((cov, ty, total, xg.order))
    _line(7, not bad, f"sum of [S_k : W_O] equals |X| on {len(rows)} instances")
    assert not bad, bad[:5]


def test_criterion_08_cocycle_suite():
    t0 = time.monotonic()
    failures = []
    rng = random.Random(88)
    for q in (5, 7, 13):
        for n in divisors(q - 1):
            fm = FieldModel(q, n)
            pool = [FieldElem(v, e) for v in (-1, 0, 1, 2)
                    for e in range(q - 1)]
            if not trivial_on_units(fm):
                failures.append(f"unit pair q={q} n={n}")
            if not antisymmetric(fm, pool):
                failures.append(f"antisymmetry q={q} n={n}")
            triples = [tuple(rng.choice(pool) for _ in range(3))
                       for _ in range(200)]
            # the right slot, beside bimultiplicative's left slot
            if not bimultiplicative(fm, triples) or not all(
                    hilbert(fm, x, y * z) == hilbert(fm, x, y) * hilbert(fm, x, z)
                    for x, y, z in triples):
                failures.append(f"bimultiplicativity q={q} n={n}")
            if not nondegenerate(fm):
                failures.append(f"degenerate pairing q={q} n={n}")
            for c, d in ((0, 1), (1, 1), (-1, 2)):
                for _ in range(200):
                    r = rng.randint(1, 3)
                    g1, g2, g3 = (tuple(
                        FieldElem(rng.randint(-3, 3), rng.randint(0, q - 2))
                        for _ in range(r)) for _ in range(3))
                    if not cocycle_identity(fm, c, d, g1, g2, g3):
                        failures.append(f"cocycle identity q={q} n={n} "
                                        f"c={c} d={d}")
                        break
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 30.0
    _line(8, ok, f"Hilbert symbol axioms and 2-cocycle identity ({elapsed:.1f}s)")
    assert not failures, failures[:5]
    assert elapsed < 30.0


def test_criterion_09_worked_instances():
    bad = []
    cases = [
        (kp_cover(4, 0), TypeSpec(r=2, k=2, l0=1), 4, 4, 16, 10),
        (kp_cover(4, 0), TypeSpec(r=3, k=3, l0=1), 4, 2, 32, 10),
        (savin_cover(4), TypeSpec(r=2, k=2, l0=1), 2, 2, 4, 3),
    ]
    for cov, ty, n0, d0, xo, dim in cases:
        der = derive_params(cov, ty)
        xg = x_lambda(cov, ty)
        got = (der.n0, der.d0, xg.order, whittaker_dim_closed(cov, ty),
               len(orbits(xg)), whittaker_dim_hecke(cov, ty))
        want = (n0, d0, xo, dim, dim, dim)
        if got != want:
            bad.append((cov, ty, got, want))
    _line(9, not bad, "worked instances match all frozen values")
    assert not bad, bad
