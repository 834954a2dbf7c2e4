import dataclasses
import itertools
import random

import pytest

from ggdim import cover, hecke_affine
from ggdim.coeff import RF_ONE, RF_Q, RatFunc, q_power
from ggdim.cover import (
    QuotientGroup, TypeSpec, _quotient, derive_params, kp_cover, orbits,
    savin_cover, whittaker_dim_closed, x_lambda,
)
from ggdim.errors import InternalDisagreement
from ggdim.hecke_affine import (
    AffineHeckeElement, ah_multiply, ah_one, ah_phi, ah_t, bernstein_cross,
    bernstein_relation_holds, check_twphi_lemma, gg_module,
    whittaker_dim_hecke,
)
from ggdim.hecke_finite import (
    FiniteHeckeElement, associative_on, h0_multiply, induced_sign_module,
    sign_hom_dim,
)
from ggdim.symgroup import (
    Permutation, all_permutations, identity, simple,
)

Q0M1 = RF_Q - RF_ONE


def savin_lat():
    return x_lambda(savin_cover(4), TypeSpec(r=2, k=2, l0=1))


def kp_lat_k3():
    return x_lambda(kp_cover(4, 0), TypeSpec(r=3, k=3, l0=1))


def test_lattice_golden():
    lat = savin_lat()
    assert lat.relation_lattice == ((2, 0), (0, 2))
    assert lat.coroot_multiplier == 2
    lat3 = kp_lat_k3()
    assert lat3.coroot_multiplier == 4
    assert lat3.contains((2, 2, 2))
    assert not lat3.contains((2, 2, 0))


def test_bernstein_cross_commuting_case():
    lat = savin_lat()
    got = bernstein_cross(lat, (2, 2), 1)
    assert got == AffineHeckeElement(lat, {((2, 2), simple(1, 2)): RF_ONE})
    # phi_t * T_s = T_s * phi_t when s.t = t
    assert ah_multiply(ah_phi(lat, (2, 2)), ah_t(lat, simple(1, 2))) == \
        ah_multiply(ah_t(lat, simple(1, 2)), ah_phi(lat, (2, 2)))


def test_bernstein_cross_single_step():
    lat = savin_lat()
    s = simple(1, 2)
    got = bernstein_cross(lat, (2, 0), 1)
    expect = AffineHeckeElement(lat, {
        ((0, 2), s): RF_ONE,
        ((2, 0), identity(2)): Q0M1,
    })
    assert got == expect
    # the identity it encodes: phi_(2,0) * T_s = T_s * phi_(0,2) + (q0-1) phi_(2,0)
    lhs = ah_multiply(ah_phi(lat, (2, 0)), ah_t(lat, s))
    rhs = ah_multiply(ah_t(lat, s), ah_phi(lat, (0, 2))) + \
        ah_phi(lat, (2, 0)).scale(Q0M1)
    assert lhs == rhs


def test_bernstein_cross_two_step_geometric_sum():
    lat = savin_lat()
    s = simple(1, 2)
    got = bernstein_cross(lat, (4, 0), 1)
    expect = AffineHeckeElement(lat, {
        ((0, 4), s): RF_ONE,
        ((4, 0), identity(2)): Q0M1,
        ((2, 2), identity(2)): Q0M1,
    })
    assert got == expect


@pytest.mark.parametrize("t, i, f, expect", [
    # m = 2: phi_t and phi_{t-a} with +(q0-1), q0 = q^2
    ((8, 0, 4), 1, 2, {((0, 8, 4), (2, 1, 3)): RF_ONE,
                       ((8, 0, 4), (1, 2, 3)): q_power(2) - RF_ONE,
                       ((4, 4, 4), (1, 2, 3)): q_power(2) - RF_ONE}),
    # m = -2: phi_{t+a} and phi_{t+2a} with -(q0-1)
    ((0, 4, 12), 2, 1, {((0, 12, 4), (1, 3, 2)): RF_ONE,
                        ((0, 8, 8), (1, 2, 3)): RF_ONE - RF_Q,
                        ((0, 12, 4), (1, 2, 3)): RF_ONE - RF_Q}),
    # m = 0: s fixes t, no lattice part
    ((6, 2, 2), 2, 1, {((6, 2, 2), (1, 3, 2)): RF_ONE}),
], ids=["m>0", "m<0", "m=0"])
def test_bernstein_cross_golden(t, i, f, expect):
    # kp n=4, k=3: coroot multiplier 4, so a = (4, -4, 0) or (0, 4, -4)
    lat = kp_lat_k3()
    got = bernstein_cross(lat, t, i, q_power(f))
    assert got == AffineHeckeElement(
        lat, {(x, Permutation(w)): c for (x, w), c in expect.items()})


def test_bernstein_cross_errors():
    lat = savin_lat()
    with pytest.raises(ValueError):
        bernstein_cross(lat, (1, 0), 1)          # not in Y
    with pytest.raises(ValueError):
        bernstein_cross(lat, (2, 0), 2)          # bad simple index
    broken = QuotientGroup(2, ((1, 0), (0, 1)))      # fresh, not the memo's
    broken.coroot_multiplier = 2
    with pytest.raises(ValueError):
        bernstein_cross(broken, (1, 0), 1)       # divisibility failure


def test_lattice_subalgebra():
    lat = savin_lat()
    rng = random.Random(12)
    for _ in range(30):
        t = tuple(2 * rng.randint(-3, 3) for _ in range(2))
        u = tuple(2 * rng.randint(-3, 3) for _ in range(2))
        got = ah_multiply(ah_phi(lat, t), ah_phi(lat, u))
        expect = ah_phi(lat, tuple(a + b for a, b in zip(t, u)))
        assert got == expect


def test_finite_subalgebra_embedding():
    # products of pure T-elements agree with the finite Hecke algebra
    lat = kp_lat_k3()
    rng = random.Random(4)
    perms = all_permutations(3)
    zero = (0, 0, 0)
    for _ in range(40):
        v, w = rng.choice(perms), rng.choice(perms)
        fin = h0_multiply(FiniteHeckeElement.basis(v), FiniteHeckeElement.basis(w))
        emb = ah_multiply(ah_t(lat, v), ah_t(lat, w))
        expect = AffineHeckeElement(lat, {(zero, u): c for u, c in fin.support.items()})
        assert emb == expect


def test_quadratic_relation_in_affine_algebra():
    for lat in (savin_lat(), kp_lat_k3()):
        one = ah_one(lat)
        for i in range(1, lat.k):
            t = ah_t(lat, simple(i, lat.k))
            prod = ah_multiply(t + one, t - one.scale(RF_Q))
            assert prod.is_zero()


def _window(lat, radius):
    """All lattice points of Y with coordinates in [-radius, radius]."""
    pts = []
    for t in itertools.product(range(-radius, radius + 1), repeat=lat.k):
        if lat.contains(t):
            pts.append(t)
    return pts


def test_bernstein_check_sees_a_cross_without_lattice_part(monkeypatch):
    # the normal form agrees with the truncated cross, which ah_multiply uses
    # too; the telescoping oracle is what catches it
    monkeypatch.setattr(
        hecke_affine, "bernstein_cross", lambda lat, t, i, q0=RF_Q:
        AffineHeckeElement(lat, {(t[::-1], simple(i, 2)): RF_ONE}))
    lat = savin_lat()
    assert bernstein_relation_holds(lat, (2, 2), 1)      # m = 0: no lattice part
    assert not bernstein_relation_holds(lat, (2, 0), 1)


def test_bernstein_check_sees_a_wrong_normal_form(monkeypatch):
    real = hecke_affine.ah_multiply
    monkeypatch.setattr(hecke_affine, "ah_multiply",
                        lambda a, b, q0=RF_Q: real(a, b, q_power(2)))
    assert not bernstein_relation_holds(savin_lat(), (2, 0), 1)


def test_constant_vectors_are_central():
    lat = savin_lat()
    for c in (-4, -2, 2, 4):
        z = ah_phi(lat, (c, c))
        for w in all_permutations(2):
            tw = ah_t(lat, w)
            assert ah_multiply(z, tw) == ah_multiply(tw, z)


def test_associativity_random_triples():
    rng = random.Random(31)
    for lat in (savin_lat(), kp_lat_k3()):
        k = lat.k
        perms = all_permutations(k)
        window = _window(lat, 2 * derive_params(
            savin_cover(4) if k == 2 else kp_cover(4, 0),
            TypeSpec(r=k, k=k, l0=1) if k == 2 else TypeSpec(r=3, k=3, l0=1)).n0)

        def rand_elt():
            supp = {}
            for _ in range(rng.randint(1, 2)):
                c = rng.randint(-2, 2)
                if c:
                    supp[(rng.choice(window), rng.choice(perms))] = RatFunc(c)
            return AffineHeckeElement(lat, supp)

        assert associative_on([(rand_elt(), rand_elt(), rand_elt())
                               for _ in range(25)])


def test_affine_associativity_check_sees_a_corrupted_product(monkeypatch):
    real = hecke_affine.ah_multiply
    lat = savin_lat()
    ts = ah_t(lat, simple(1, 2))
    # every product T_s * b comes out doubled
    monkeypatch.setattr(
        hecke_affine, "ah_multiply", lambda a, b, q0=RF_Q:
        real(a, b, q0).scale(RatFunc(2 if a == ts else 1)))
    assert not associative_on([(ah_phi(lat, (2, 0)), ts, ts)])


def test_ah_multiply_lattice_mismatch():
    with pytest.raises(ValueError):
        ah_multiply(ah_one(savin_lat()), ah_one(kp_lat_k3()))


def total_rank(k, blocks):
    """Sum of N_J * dim over the blocks, with the modules' own dimensions."""
    return sum(mult * induced_sign_module(k, J).dim for J, mult in blocks)


def test_gg_module_golden_kp():
    blocks = gg_module(kp_cover(4, 0), TypeSpec(r=2, k=2, l0=1))
    assert sum(mult for _J, mult in blocks) == 10     # orbits
    assert total_rank(2, blocks) == 16                # |X|


def test_gg_module_golden_savin():
    blocks = gg_module(savin_cover(4), TypeSpec(r=2, k=2, l0=1))
    # three orbits, of ranks 1, 2, 1
    assert [(J, mult, induced_sign_module(2, J).dim) for J, mult in blocks] == \
        [((2,), 2, 1), ((1, 1), 1, 2)]
    assert total_rank(2, blocks) == 4


def test_gg_module_trivial_cover():
    blocks = gg_module(kp_cover(1, 0), TypeSpec(r=4, k=4, l0=1))
    assert blocks == [((4,), 1)]
    assert induced_sign_module(4, (4,)).dim == 1
    assert total_rank(4, blocks) == 1


def test_gg_module_generic_rejected():
    from ggdim.cover import generic_cover
    with pytest.raises(ValueError):
        gg_module(generic_cover(4, 0, 2), TypeSpec(r=2, k=2, l0=1))


def test_whittaker_dim_hecke_goldens():
    assert whittaker_dim_hecke(kp_cover(4, 0), TypeSpec(r=2, k=2, l0=1)) == 10
    assert whittaker_dim_hecke(savin_cover(4), TypeSpec(r=2, k=2, l0=1)) == 3
    assert whittaker_dim_hecke(kp_cover(1, 0), TypeSpec(r=3, k=3, l0=1)) == 1


def small_cases():
    cases = []
    for n in (1, 2, 3, 4):
        for k in (1, 2, 3):
            for c in range(n):
                cases.append((kp_cover(n, c), TypeSpec(r=k, k=k, l0=1)))
            cases.append((savin_cover(n), TypeSpec(r=2 * k, k=k, l0=1)))
    return cases


def clear_memos():
    for memo in (_quotient, induced_sign_module, sign_hom_dim):
        memo.cache_clear()


def test_triple_agreement_small():
    for cov, ty in small_cases():
        closed = whittaker_dim_closed(cov, ty)
        brute = len(orbits(x_lambda(cov, ty)))
        hecke = whittaker_dim_hecke(cov, ty)
        assert closed == brute == hecke


def test_cold_and_warm_memos_give_equal_results():
    for f in (1, 2):
        cold = []
        for cov, ty in small_cases():
            ty = TypeSpec(r=ty.r, k=ty.k, l0=ty.l0, f=f)
            clear_memos()
            cold.append(whittaker_dim_hecke(cov, ty))
        warm = [whittaker_dim_hecke(cov, TypeSpec(r=ty.r, k=ty.k, l0=ty.l0, f=f))
                for cov, ty in small_cases()]
        assert warm == cold
        assert warm == [whittaker_dim_closed(cov, ty) for cov, ty in small_cases()]
    assert sign_hom_dim.cache_info().hits > 0


def test_hom_memo_keys_f_separately():
    clear_memos()
    assert sign_hom_dim(3, (2, 1), 1) == sign_hom_dim(3, (2, 1), 2) == 1
    info = sign_hom_dim.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 0, 2)
    assert induced_sign_module.cache_info().misses == 1      # one module
    assert sign_hom_dim(3, (2, 1), 2) == 1
    assert sign_hom_dim.cache_info().hits == 1


def test_memo_hits_keep_the_per_instance_checks(monkeypatch):
    cov, ty = kp_cover(4, 0), TypeSpec(r=2, k=2, l0=1)
    assert whittaker_dim_hecke(cov, ty) == 10           # memos warm
    real_census = cover.orbit_census

    def skewed(extra):
        return lambda xg, bound: {**real_census(xg, bound), **extra}

    # block ranks must still sum to |X|
    monkeypatch.setattr(hecke_affine, "orbit_census", skewed({(2,): 5}))
    with pytest.raises(InternalDisagreement):
        gg_module(cov, ty)
    # a non-Young stabilizer is still refused
    monkeypatch.setattr(hecke_affine, "orbit_census", skewed({None: 1}))
    with pytest.raises(ValueError, match="non-Young"):
        gg_module(cov, ty)
    monkeypatch.setattr(hecke_affine, "orbit_census", real_census)
    # x_lambda's order-formula check still runs
    real_params = cover.derive_params
    monkeypatch.setattr(cover, "derive_params", lambda c, t: dataclasses.replace(
        real_params(c, t), d0=real_params(c, t).d0 + 1))
    with pytest.raises(InternalDisagreement):
        whittaker_dim_hecke(cov, ty)


def test_twphi_identity_w():
    lat = savin_lat()
    rep = check_twphi_lemma(lat, identity(2), (0, 2), (0, 3))
    assert rep.terms == [((0, 2), identity(2), RF_ONE)]
    assert rep.all_ok


def test_twphi_commuting_case():
    lat = savin_lat()
    rep = check_twphi_lemma(lat, simple(1, 2), (2, 2), (0, 4))
    assert rep.terms == [((2, 2), simple(1, 2), RF_ONE)]
    assert rep.all_ok


def test_twphi_sorted_example():
    lat = savin_lat()
    rep = check_twphi_lemma(lat, simple(1, 2), (0, 2), (0, 2))
    got = {(tp, wp.one_line): c for tp, wp, c in rep.terms}
    assert got == {
        ((2, 0), (2, 1)): RF_ONE,
        ((0, 2), (1, 2)): Q0M1,
    }
    assert all(sum(tp) == 2 for tp, _w, _c in rep.terms)
    assert rep.all_ok


def test_twphi_descending_reports_negative():
    # for the decreasing tuple the T_e coefficient is -(q0-1): the report
    # must flag it rather than hide it
    lat = savin_lat()
    rep = check_twphi_lemma(lat, simple(1, 2), (2, 0), (0, 2))
    assert rep.length_ok and rep.ord_ok
    assert not rep.nonneg_ok
    assert any("non-negative" in msg for msg in rep.failures)
    got = {(tp, wp.one_line): c for tp, wp, c in rep.terms}
    assert got[((0, 2), (1, 2))] == RF_ONE - RF_Q


def test_twphi_sorted_window_savin():
    lat = savin_lat()
    n0 = 2
    box = (0, 2 * n0)
    perms = all_permutations(2)
    for t in itertools.product(range(0, 2 * n0 + 1), repeat=2):
        if list(t) != sorted(t) or not lat.contains(t):
            continue
        for w in perms:
            rep = check_twphi_lemma(lat, w, t, box)
            assert rep.all_ok, rep.failures


def test_twphi_sorted_window_kp_k3_longest():
    lat = kp_lat_k3()
    w0 = Permutation([3, 2, 1])
    box = (0, 8)
    for t in itertools.combinations_with_replacement(range(0, 9), 3):
        if not lat.contains(t):
            continue
        rep = check_twphi_lemma(lat, w0, t, box)
        assert rep.length_ok and rep.ord_ok
        assert rep.nonneg_ok, rep.failures


def test_twphi_preconditions():
    lat = savin_lat()
    with pytest.raises(ValueError):
        check_twphi_lemma(lat, simple(1, 2), (0, 2), (0, 1))   # outside box
    with pytest.raises(ValueError):
        check_twphi_lemma(lat, simple(1, 2), (0, 1), (0, 2))   # not in Y


def test_twphi_at_f2():
    lat = savin_lat()
    rep = check_twphi_lemma(lat, simple(1, 2), (0, 2), (0, 2), f=2)
    got = {(tp, wp.one_line): c for tp, wp, c in rep.terms}
    assert got[((0, 2), (1, 2))] == q_power(2) - RF_ONE
    assert rep.all_ok
