import itertools
import random
from collections import Counter
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ggdim import cover
from ggdim._intmat import hermite_row_basis, mat_vec
from ggdim.cover import (
    CoverSpec, OrbitRecord, TypeSpec, derive_params, divisors, generic_cover,
    _quotient, in_T_brho, kp_class_test, kp_cover, orbit_census, orbits,
    ord_sum, quotient_group, savin_cover, select_representatives,
    verify_kp_lemma, whittaker_dim_closed, x_lambda,
)
from ggdim.symgroup import act, all_permutations, simple, young_order


def act_class(xg, w, x):
    """The class of w.t, for x the class of t, through xg.perm_matrix(w)."""
    raw = mat_vec(xg.perm_matrix(w), x)
    return tuple(v % f for v, f in zip(raw, xg.invariant_factors))


def small_sweep(n_max=6, k_max=3, r_mult=1):
    """(cov, ty) pairs for quick exhaustive checks."""
    out = []
    for n in range(1, n_max + 1):
        for k in range(1, k_max + 1):
            for l0 in divisors(n):
                for c in range(n):
                    out.append((kp_cover(n, c), TypeSpec(r=r_mult * k, k=k, l0=l0)))
                out.append((savin_cover(n), TypeSpec(r=r_mult * k, k=k, l0=l0)))
    return out


def test_cover_spec_validation():
    with pytest.raises(ValueError):
        CoverSpec("kp", 4, 0, 2)          # KP forces d=1
    with pytest.raises(ValueError):
        CoverSpec("savin", 4, 0, 2)       # Savin forces c=-1
    with pytest.raises(ValueError):
        CoverSpec("kp", 0, 0, 1)
    with pytest.raises(ValueError):
        CoverSpec("weird", 4, 0, 1)
    assert generic_cover(6, 2, 3).kind == "generic"


def test_type_spec_validation():
    with pytest.raises(ValueError):
        TypeSpec(r=5, k=2)
    with pytest.raises(ValueError):
        TypeSpec(r=4, k=0)
    with pytest.raises(ValueError):
        derive_params(kp_cover(4, 0), TypeSpec(r=2, k=2, l0=3))


def test_derive_params_examples():
    dp = derive_params(kp_cover(4, 0), TypeSpec(r=2, k=2, l0=1))
    assert (dp.r0, dp.n0, dp.d0) == (1, 4, 4)
    # Savin: 2c+d = 0, so n0 = n/gcd(n, 2*l0)
    dp = derive_params(savin_cover(4), TypeSpec(r=2, k=2, l0=1))
    assert dp.n0 == 2
    dp = derive_params(kp_cover(1, 0), TypeSpec(r=3, k=3, l0=1))
    assert (dp.n0, dp.d0) == (1, 1)


def test_derived_divisibility_invariants():
    for cov, ty in small_sweep():
        dp = derive_params(cov, ty)
        assert dp.n0 % dp.d0 == 0
        assert cov.n % dp.n0 == 0
        assert cov.n % dp.d0 == 0


def test_in_T_brho_examples():
    cov, ty = kp_cover(4, 0), TypeSpec(r=2, k=2, l0=1)
    dp = derive_params(cov, ty)
    assert in_T_brho(cov, ty, (dp.n0, 0))
    assert in_T_brho(cov, ty, (dp.d0, dp.d0))
    assert not in_T_brho(cov, ty, (1, 0))


def test_in_T_brho_generators_all_instances():
    for cov, ty in small_sweep():
        dp = derive_params(cov, ty)
        zeta = (dp.d0,) * ty.k
        assert in_T_brho(cov, ty, zeta)
        for i in range(ty.k):
            e = [0] * ty.k
            e[i] = dp.n0
            assert in_T_brho(cov, ty, e)


def test_x_lambda_orders_golden():
    assert x_lambda(kp_cover(4, 0), TypeSpec(r=2, k=2, l0=1)).order == 16
    assert x_lambda(savin_cover(4), TypeSpec(r=2, k=2, l0=1)).order == 4
    assert x_lambda(kp_cover(1, 0), TypeSpec(r=4, k=2, l0=1)).order == 1


def test_x_lambda_order_formulas_sweep():
    for cov, ty in small_sweep():
        xg = x_lambda(cov, ty)
        dp = derive_params(cov, ty)
        if cov.kind == "kp":
            assert xg.order == dp.n0 ** (ty.k - 1) * dp.d0
        else:
            assert xg.order == dp.n0 ** ty.k
        prod = 1
        for f in xg.invariant_factors:
            prod *= f
        assert prod == xg.order


def test_x_lambda_generator_description():
    # T(b, rho) = n0*Z^k + Z*zeta for KP, and = n0*Z^k for Savin: this
    # generator description must reproduce the congruence-defined lattice
    for cov, ty in small_sweep():
        dp = derive_params(cov, ty)
        xg = x_lambda(cov, ty)
        gens = [[dp.n0 if i == j else 0 for j in range(ty.k)] for i in range(ty.k)]
        if cov.kind == "kp":
            gens.append([dp.d0] * ty.k)
        assert hermite_row_basis(gens) == xg.relation_lattice


def test_project_kernel_and_surjectivity():
    cov, ty = kp_cover(6, 1), TypeSpec(r=4, k=2, l0=2)
    xg = x_lambda(cov, ty)
    rng = random.Random(3)
    seen = set()
    for _ in range(300):
        t = tuple(rng.randint(-8, 8) for _ in range(ty.k))
        x = xg.project(t)
        seen.add(x)
        assert (x == tuple([0] * ty.k)) == in_T_brho(cov, ty, t)
        assert xg.contains(t) == in_T_brho(cov, ty, t)
    assert len(seen) == xg.order        # small group: surjectivity visible


def test_action_descends():
    for cov, ty in [(kp_cover(4, 1), TypeSpec(r=6, k=3, l0=1)),
                    (savin_cover(6), TypeSpec(r=3, k=3, l0=2))]:
        xg = x_lambda(cov, ty)
        rng = random.Random(5)
        for w in all_permutations(ty.k):
            for _ in range(10):
                t = tuple(rng.randint(-6, 6) for _ in range(ty.k))
                assert xg.project(act(w, t)) == act_class(xg, w, xg.project(t))


def test_orbits_savin_4_2():
    xg = x_lambda(savin_cover(4), TypeSpec(r=2, k=2, l0=1))
    recs = orbits(xg)
    assert [(r.representative, r.size, r.stabilizer) for r in recs] == [
        ((0, 0), 1, (2,)),
        ((0, 1), 2, (1, 1)),
        ((1, 1), 1, (2,)),
    ]


def test_orbits_kp_4_0_2():
    xg = x_lambda(kp_cover(4, 0), TypeSpec(r=2, k=2, l0=1))
    recs = orbits(xg)
    assert len(recs) == 10
    assert sum(r.size for r in recs) == 16


def test_orbits_trivial_group():
    xg = x_lambda(kp_cover(1, 0), TypeSpec(r=3, k=3, l0=1))
    recs = orbits(xg)
    assert len(recs) == 1
    assert recs[0] == OrbitRecord(representative=(0, 0, 0), size=1,
                                  stabilizer=(3,), stabilizer_order=6,
                                  young=True)


def test_orbits_bound():
    xg = x_lambda(kp_cover(4, 0), TypeSpec(r=2, k=2, l0=1))
    with pytest.raises(ValueError):
        orbits(xg, bound=10)


def test_orbits_refuse_k_beyond_mask_width():
    xg = x_lambda(kp_cover(1, 0), TypeSpec(r=64, k=64, l0=1))
    assert xg.order == 1
    with pytest.raises(ValueError):
        orbits(xg)
    big = orbits(x_lambda(kp_cover(1, 0), TypeSpec(r=63, k=63, l0=1)))
    assert [(r.stabilizer, r.stabilizer_order) for r in big] == \
        [((63,), factorial(63))]


def test_orbit_stabilizer_sums():
    for cov, ty in small_sweep(n_max=5, k_max=3):
        xg = x_lambda(cov, ty)
        recs = orbits(xg)
        assert sum(r.size for r in recs) == xg.order
        assert sum(factorial(ty.k) // r.stabilizer_order for r in recs) == xg.order
        for r in recs:
            assert r.young and r.stabilizer is not None
            assert r.size * young_order(r.stabilizer) == factorial(ty.k)


def test_whittaker_dim_closed_examples():
    assert whittaker_dim_closed(kp_cover(4, 0), TypeSpec(r=2, k=2, l0=1)) == 10
    assert whittaker_dim_closed(kp_cover(4, 0), TypeSpec(r=3, k=3, l0=1)) == 10
    assert whittaker_dim_closed(kp_cover(1, 0), TypeSpec(r=5, k=5, l0=1)) == 1
    with pytest.raises(ValueError):
        whittaker_dim_closed(generic_cover(4, 0, 2), TypeSpec(r=2, k=2, l0=1))


def test_closed_form_equals_orbit_count():
    for cov, ty in small_sweep(n_max=6, k_max=3) + small_sweep(n_max=4, k_max=3, r_mult=2):
        assert whittaker_dim_closed(cov, ty) == len(orbits(x_lambda(cov, ty)))


def test_verify_kp_lemma_examples_and_sweep():
    assert verify_kp_lemma(kp_cover(4, 0), TypeSpec(r=3, k=3, l0=1))
    assert verify_kp_lemma(kp_cover(4, 0), TypeSpec(r=2, k=2, l0=1))
    for cov, ty in small_sweep(n_max=8, k_max=3):
        if cov.kind == "kp":
            assert verify_kp_lemma(cov, ty)
    with pytest.raises(ValueError):
        verify_kp_lemma(savin_cover(4), TypeSpec(r=2, k=2, l0=1))


def test_minimal_coroot_multiple_is_n0():
    for cov, ty in small_sweep(n_max=6, k_max=3):
        dp = derive_params(cov, ty)
        xg = x_lambda(cov, ty)
        for i in range(ty.k - 1):
            alpha = [0] * ty.k
            alpha[i], alpha[i + 1] = 1, -1
            mults = [m for m in range(1, cov.n + 1)
                     if xg.contains([m * a for a in alpha])]
            assert mults and mults[0] == dp.n0 == xg.coroot_multiplier


def test_select_representatives_examples():
    assert select_representatives(savin_cover(4), TypeSpec(r=2, k=2, l0=1)) == [
        (0, 0), (0, 1), (1, 1)]
    reps = select_representatives(kp_cover(4, 0), TypeSpec(r=3, k=3, l0=1))
    assert len(reps) == 10
    assert all(ord_sum(t) % 4 in (0, 1) for t in reps)
    assert select_representatives(kp_cover(1, 0), TypeSpec(r=2, k=2, l0=1)) == [(0, 0)]
    with pytest.raises(ValueError):
        select_representatives(generic_cover(4, 0, 2), TypeSpec(r=2, k=2, l0=1))


def test_representatives_cover_orbits_exactly_once():
    for cov, ty in small_sweep(n_max=6, k_max=3):
        xg = x_lambda(cov, ty)
        canon = {r.representative for r in orbits(xg)}
        images = []
        for t in select_representatives(cov, ty):
            x = xg.project(t)
            best = min(act_class(xg, w, x) for w in all_permutations(ty.k))
            images.append(best)
        assert len(set(images)) == len(images)
        assert set(images) == canon


def test_selected_representative_stabilizers_are_young():
    # stabilizer of the class of a sorted representative = Young subgroup of
    # its equal-coordinate blocks
    for cov, ty in small_sweep(n_max=5, k_max=3):
        xg = x_lambda(cov, ty)
        for t in select_representatives(cov, ty):
            x = xg.project(t)
            stab_class = {w for w in all_permutations(ty.k)
                          if act_class(xg, w, x) == x}
            stab_tuple = {w for w in all_permutations(ty.k) if act(w, t) == t}
            assert stab_class == stab_tuple


def test_ord_sum():
    assert ord_sum((0, 0, 0)) == 0
    assert ord_sum((1, 2, 3)) == 6
    rng = random.Random(1)
    for _ in range(50):
        k = rng.randint(1, 5)
        t = tuple(rng.randint(-9, 9) for _ in range(k))
        w = rng.choice(all_permutations(k))
        assert ord_sum(act(w, t)) == ord_sum(t)


def test_kp_class_test_trivial_and_errors():
    cov, ty = kp_cover(4, 0), TypeSpec(r=3, k=3, l0=1)
    assert kp_class_test(cov, ty, (1, 2, 3), (1, 2, 3))
    with pytest.raises(ValueError):
        kp_class_test(cov, ty, (1, 0, 0), (0, 0, 0))   # not equivalent
    with pytest.raises(ValueError):
        kp_class_test(savin_cover(4), TypeSpec(r=2, k=2, l0=1), (0, 0), (0, 0))


def test_kp_class_test_zeta_shift():
    cov, ty = kp_cover(4, 0), TypeSpec(r=3, k=3, l0=1)
    dp = derive_params(cov, ty)
    zeta = (dp.d0,) * ty.k
    t1 = (0, 1, 2)
    t2 = tuple(a + b for a, b in zip(t1, zeta))
    got = kp_class_test(cov, ty, t2, t1)
    assert got == (ord_sum(zeta) % dp.n0 == 0)


def test_kp_class_test_matches_ord_exhaustive():
    for n, c, k, r_mult, l0 in [(2, 0, 2, 1, 1), (4, 0, 2, 1, 1), (4, 1, 3, 1, 1),
                                (3, 0, 3, 2, 1), (4, 0, 2, 1, 2), (6, 2, 2, 1, 3)]:
        cov = kp_cover(n, c)
        ty = TypeSpec(r=r_mult * k, k=k, l0=l0)
        dp = derive_params(cov, ty)
        box = list(itertools.product(range(2 * dp.n0), repeat=k))
        for t1 in box:
            for t2 in box:
                diff = tuple(a - b for a, b in zip(t1, t2))
                if not in_T_brho(cov, ty, diff):
                    continue
                got = kp_class_test(cov, ty, t1, t2)
                assert got == ((ord_sum(t1) - ord_sum(t2)) % dp.n0 == 0)


def _reference_orbits(xg):
    """Brute force over all of S_k, kept as the reference for orbits().

    Canonical representative: the smallest code among all k! images.
    Stabilizer: the point stabilizer, taken over all of S_k, of the first
    orbit element in code order whose stabilizer is standard Young.
    """
    k = xg.k
    factors = xg.invariant_factors
    elems = list(itertools.product(*(range(f) for f in factors)))  # code order
    index = {x: n for n, x in enumerate(elems)}
    table = np.array(elems, dtype=np.int64).reshape(len(elems), k)
    perms = all_permutations(k)
    images = []                     # images[p][n] = code of perms[p] . elems[n]
    for w in perms:
        img = (table @ np.array(xg.perm_matrix(w), dtype=np.int64).T) \
            % np.array(factors, dtype=np.int64)
        images.append([index[tuple(int(v) for v in row)] for row in img])
    members = {}
    for n in range(len(elems)):
        members.setdefault(min(img[n] for img in images), []).append(n)
    simples = {simple(i, k): i for i in range(1, k)}
    records = []
    for rep in sorted(members):
        size = len(members[rep])
        comp = None
        for n in members[rep]:
            stab = [w for w, img in zip(perms, images) if img[n] == n]
            adjacent = {simples[w] for w in stab if w in simples}
            parts, run = [], 1
            for i in range(1, k):
                if i in adjacent:
                    run += 1
                else:
                    parts.append(run)
                    run = 1
            parts.append(run)
            if young_order(parts) == len(stab):
                comp = tuple(parts)
                break
        records.append(OrbitRecord(
            representative=elems[rep], size=size, stabilizer=comp,
            stabilizer_order=factorial(k) // size, young=comp is not None))
    return records


@st.composite
def generic_instances(draw):
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 4))
    l0 = draw(st.sampled_from(divisors(n)))
    c = draw(st.integers(-8, 8))
    d = draw(st.integers(-8, 8))
    r0 = draw(st.integers(1, 3))
    return generic_cover(n, c, d), TypeSpec(r=r0 * k, k=k, l0=l0)


@settings(max_examples=80, deadline=None)
@given(generic_instances())
def test_orbits_equal_brute_force_reference(inst):
    xg = x_lambda(*inst)
    assert orbits(xg) == _reference_orbits(xg)


@settings(max_examples=80, deadline=None)
@given(generic_instances())
def test_census_counts_orbit_stabilizers(inst):
    xg = x_lambda(*inst)
    assert orbit_census(xg) == Counter(rec.stabilizer for rec in orbits(xg))


def test_census_is_shared_by_equal_lattices(monkeypatch):
    # KP n=3, the Savin cover n=3 and KP n=6 with l0 = 2 all have the
    # relation lattice 3Z^2
    pairs = [(kp_cover(3, 0), TypeSpec(r=2, k=2, l0=1)),
             (savin_cover(3), TypeSpec(r=2, k=2, l0=1)),
             (kp_cover(6, 0), TypeSpec(r=2, k=2, l0=2))]
    _quotient.cache_clear()
    groups = [x_lambda(cov, ty) for cov, ty in pairs]
    assert groups[0] is groups[1] is groups[2]
    assert groups[0].relation_lattice == ((3, 0), (0, 3))
    info = _quotient.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    calls = []
    real_orbits = cover.orbits
    monkeypatch.setattr(cover, "orbits", lambda xg, bound: calls.append(xg)
                        or real_orbits(xg, bound))
    censuses = [orbit_census(xg) for xg in groups]
    assert censuses[0] == censuses[1] == censuses[2] == {(2,): 3, (1, 1): 3}
    assert len(calls) == 1
    censuses[0][(2,)] = 99          # a caller's copy, not the memo
    assert orbit_census(groups[1]) == {(2,): 3, (1, 1): 3}


def test_census_memo_hit_still_refuses():
    xg = x_lambda(kp_cover(4, 0), TypeSpec(r=2, k=2, l0=1))
    assert sum(orbit_census(xg).values()) == 10
    with pytest.raises(ValueError, match="bound"):
        orbit_census(xg, bound=10)
    wide = x_lambda(kp_cover(1, 0), TypeSpec(r=64, k=64, l0=1))
    with pytest.raises(ValueError, match="k <= 63"):
        orbit_census(wide)


def test_quotient_group_rejects_unstable():
    with pytest.raises(ValueError, match="S_k-stable"):
        quotient_group([[1, 2], [0, 5]])


def test_quotient_group_rejects_lattice_unstable_under_the_cycle():
    # stable under s_1, not under (1 2 3)
    with pytest.raises(ValueError, match="S_k-stable"):
        quotient_group([[2, 0, 0], [0, 2, 0], [0, 0, 1], [1, 1, 0]])


def test_quotient_group_rejects_lattice_unstable_under_s1():
    # stable under (1 2 3), not under s_1
    with pytest.raises(ValueError, match="S_k-stable"):
        quotient_group([[7, 0, 0], [5, 1, 0], [3, 0, 1]])


def test_quotient_group_rejects_deficient_rank():
    with pytest.raises(ValueError, match="full rank"):
        quotient_group([[1, 1]])
    with pytest.raises(ValueError, match="full rank"):
        quotient_group([[2, -2], [1, -1]])


@settings(max_examples=80, deadline=None)
@given(generic_instances())
def test_coroot_multiplier_is_least_lattice_multiple(inst):
    # the least c > 0 with c*(e_i - e_{i+1}) in T(b, rho), found by search
    # up to |X| (the exponent of X divides its order), the same for every i
    xg = x_lambda(*inst)
    k = xg.k
    for i in range(k - 1):
        root = [0] * k
        root[i], root[i + 1] = 1, -1
        least = next(c for c in range(1, xg.order + 1)
                     if xg.contains([c * x for x in root]))
        assert least == xg.coroot_multiplier
    if k == 1:
        assert xg.coroot_multiplier == 1
