import random

import pytest

from ggdim import cocycle
from ggdim.cocycle import (
    ONE, UNIFORMIZER, FieldElem, FieldModel, MuN, antisymmetric,
    bimultiplicative, cocycle_identity, commutator_torus, hilbert,
    is_prime_power, nondegenerate, sigma_cover_torus, sigma_det_torus,
    sigma_kp_torus, trivial_on_units, unit,
)
from ggdim.cover import divisors


def field_models():
    out = []
    for q in (5, 7, 13):
        for n in divisors(q - 1):
            out.append(FieldModel(q, n))
    return out


def elems(fm, vals=(0, 1)):
    return [FieldElem(v, e) for v in vals for e in range(fm.q - 1)]


def test_is_prime_power():
    assert is_prime_power(2)
    assert is_prime_power(8)
    assert is_prime_power(13)
    assert is_prime_power(49)
    assert not is_prime_power(1)
    assert not is_prime_power(6)
    assert not is_prime_power(12)


def test_field_model_validation():
    FieldModel(9, 8)
    FieldModel(8, 7)
    with pytest.raises(ValueError):
        FieldModel(6, 1)
    with pytest.raises(ValueError):
        FieldModel(5, 3)
    with pytest.raises(ValueError):
        FieldModel(5, 0)


def test_mun_arithmetic():
    a = MuN(4, 3)
    b = MuN(4, 6)
    assert b.exp == 2
    assert (a * b).exp == 1
    assert a.inverse().exp == 1
    assert MuN(4, 2).order == 2
    assert MuN(4, 1).order == 4
    assert MuN(4, 0).is_identity()
    with pytest.raises(ValueError):
        a * MuN(5, 1)


def test_hilbert_golden_uniformizer_pair():
    # q=5, n=4: (pi, pi)_4 is the residue of -1, exponent 2, order 2
    fm = FieldModel(5, 4)
    got = hilbert(fm, UNIFORMIZER, UNIFORMIZER)
    assert got == MuN(4, 2)
    assert got.order == 2


def test_hilbert_bimultiplicative():
    rng = random.Random(9)
    for fm in field_models():
        pool = elems(fm, vals=(-2, -1, 0, 1, 2))
        triples = [tuple(rng.choice(pool) for _ in range(3))
                   for _ in range(200)]
        assert bimultiplicative(fm, triples)
        for x, y, z in triples:
            assert hilbert(fm, x, y * z) == hilbert(fm, x, y) * hilbert(fm, x, z)


def test_hilbert_kills_nth_powers():
    rng = random.Random(17)
    for fm in field_models():
        pool = elems(fm, vals=(-2, -1, 0, 1, 2))
        for _ in range(50):
            x, y = rng.choice(pool), rng.choice(pool)
            assert hilbert(fm, x.power(fm.n), y).is_identity()


def test_sigma_det_basic():
    fm = FieldModel(5, 4)
    units = (unit(1), unit(3))
    assert sigma_det_torus(fm, units, units).is_identity()
    u, v = FieldElem(1, 2), FieldElem(-1, 3)
    assert sigma_det_torus(fm, (u,), (v,)) == hilbert(fm, u, v)
    with pytest.raises(ValueError):
        sigma_det_torus(fm, (u,), (u, v))


def test_sigma_det_bimultiplicative():
    fm = FieldModel(7, 6)
    rng = random.Random(23)

    def rand_torus(r):
        return tuple(FieldElem(rng.randint(-2, 2), rng.randint(0, 5)) for _ in range(r))

    for _ in range(100):
        r = rng.randint(1, 3)
        t1, t2, tp = rand_torus(r), rand_torus(r), rand_torus(r)
        t12 = tuple(a * b for a, b in zip(t1, t2))
        assert sigma_det_torus(fm, t12, tp) == \
            sigma_det_torus(fm, t1, tp) * sigma_det_torus(fm, t2, tp)
        assert sigma_det_torus(fm, tp, t12) == \
            sigma_det_torus(fm, tp, t1) * sigma_det_torus(fm, tp, t2)


def test_sigma_kp_basic():
    fm = FieldModel(5, 4)
    assert sigma_kp_torus(fm, (UNIFORMIZER,), (UNIFORMIZER,)).is_identity()
    # only the i<j term survives: (t_1, t'_2) = (pi, pi)_4
    got = sigma_kp_torus(fm, (UNIFORMIZER, ONE), (ONE, UNIFORMIZER))
    assert got == MuN(4, 2)
    assert got.order == 2
    units = (unit(1), unit(2), unit(3))
    assert sigma_kp_torus(fm, units, units).is_identity()


def test_sigma_cover_trivial_cases():
    fm = FieldModel(13, 6)
    rng = random.Random(5)
    for _ in range(50):
        r = rng.randint(1, 3)
        t = tuple(FieldElem(rng.randint(-2, 2), rng.randint(0, 11)) for _ in range(r))
        tp = tuple(FieldElem(rng.randint(-2, 2), rng.randint(0, 11)) for _ in range(r))
        assert sigma_cover_torus(fm, 0, 0, t, tp).is_identity()
    units = (unit(2), unit(7))
    assert sigma_cover_torus(fm, -1, 2, units, units).is_identity()


def test_two_cocycle_identity():
    rng = random.Random(41)
    for fm in field_models():
        for c, d in ((0, 1), (1, 1), (-1, 2)):
            for _ in range(200):
                r = rng.randint(1, 3)

                def rand_torus():
                    return tuple(FieldElem(rng.randint(-3, 3), rng.randint(0, fm.q - 2))
                                 for _ in range(r))

                assert cocycle_identity(fm, c, d, rand_torus(), rand_torus(),
                                        rand_torus())


@pytest.mark.parametrize("exponent, check", [
    (lambda a, e, b, f: e * f, trivial_on_units),
    (lambda a, e, b, f: b * e + a * f, lambda fm: antisymmetric(fm, elems(fm))),
    (lambda a, e, b, f: a * a * b,
     lambda fm: bimultiplicative(fm, [(UNIFORMIZER,) * 3])),
    (lambda a, e, b, f: 0, nondegenerate),
    (lambda a, e, b, f: a * a * b,
     lambda fm: cocycle_identity(fm, 1, 0, *[(UNIFORMIZER,)] * 3)),
], ids=["units", "antisymmetry", "bimultiplicativity", "nondegeneracy",
        "2-cocycle"])
def test_each_check_sees_a_wrong_symbol(monkeypatch, exponent, check):
    # zeta^exponent(val u, unit u, val v, unit v) in place of the tame symbol
    monkeypatch.setattr(cocycle, "hilbert", lambda fm, u, v: MuN(
        fm.n, exponent(u.valuation, u.unit_exp, v.valuation, v.unit_exp)))
    assert not check(FieldModel(5, 4))


def test_commutator_basic():
    fm = FieldModel(5, 4)
    t = (FieldElem(1, 2), FieldElem(0, 3))
    tp = (FieldElem(-1, 1), FieldElem(2, 0))
    assert commutator_torus(fm, 1, 1, t, t).is_identity()
    fwd = commutator_torus(fm, 1, 1, t, tp)
    bwd = commutator_torus(fm, 1, 1, tp, t)
    assert (fwd * bwd).is_identity()


def test_commutator_depends_only_on_classes():
    rng = random.Random(77)
    for fm in (FieldModel(5, 4), FieldModel(7, 3), FieldModel(13, 12)):
        for c, d in ((0, 1), (1, 1), (-1, 2)):
            for _ in range(40):
                r = rng.randint(1, 3)
                t = tuple(FieldElem(rng.randint(-2, 2), rng.randint(0, fm.q - 2))
                          for _ in range(r))
                tp = tuple(FieldElem(rng.randint(-2, 2), rng.randint(0, fm.q - 2))
                           for _ in range(r))
                base = commutator_torus(fm, c, d, t, tp)
                i = rng.randrange(r)
                x = FieldElem(rng.randint(-2, 2), rng.randint(0, fm.q - 2))
                shifted = list(t)
                shifted[i] = shifted[i] * x.power(fm.n)
                assert commutator_torus(fm, c, d, tuple(shifted), tp) == base


def test_commutator_bimultiplicative_in_t():
    fm = FieldModel(7, 6)
    rng = random.Random(8)
    for _ in range(100):
        r = rng.randint(1, 3)

        def rand_torus():
            return tuple(FieldElem(rng.randint(-2, 2), rng.randint(0, 5))
                         for _ in range(r))

        t1, t2, tp = rand_torus(), rand_torus(), rand_torus()
        t12 = tuple(a * b for a, b in zip(t1, t2))
        assert commutator_torus(fm, -1, 2, t12, tp) == \
            commutator_torus(fm, -1, 2, t1, tp) * commutator_torus(fm, -1, 2, t2, tp)
