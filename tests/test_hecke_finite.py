import random
from math import factorial

import pytest

from ggdim import hecke_finite
from ggdim.coeff import (
    RF_ONE, RF_Q, RF_ZERO, RatFunc, RFMatrix, kernel_basis, q_power, rf_eval,
)
from ggdim.hecke_finite import (
    ASCENT, DESCENT, FiniteHeckeElement, action_matrix, associative_on,
    braid_relation_holds, h0_multiply, hom_to_sign_dim, induced_sign_module,
    module_act, quadratic_defect, sign_hom_dim,
)
from ggdim.symgroup import (
    Permutation, all_permutations, identity, length, parabolic_decompose,
    simple, young_subgroup,
)

from shared import compositions, frac_rank

T = FiniteHeckeElement.basis


def ts(i, k):
    return T(simple(i, k))


def sign_value(w: Permutation) -> RatFunc:
    """The sign character on the basis: T_w -> (-1)^length(w)."""
    return RatFunc(-1) if length(w) % 2 else RF_ONE


def test_length_additive_product():
    k = 3
    prod = h0_multiply(ts(1, k), ts(2, k))
    w = simple(1, k) * simple(2, k)
    assert prod == T(w)


def test_quadratic_and_braid_relations_all_k():
    for k in range(2, 6):
        for i in range(1, k):
            assert quadratic_defect(i, k).is_zero()
        for i in range(1, k - 1):
            assert braid_relation_holds(i, k)


def test_relations_at_q0_power():
    # same relations with q0 = q^2 (covers f > 1)
    q0 = q_power(2)
    for i in range(1, 3):
        assert quadratic_defect(i, 3, q0).is_zero()
    assert braid_relation_holds(1, 3, q0)


def test_quadratic_defect_sees_a_wrong_q0(monkeypatch):
    real = hecke_finite.h0_multiply
    monkeypatch.setattr(hecke_finite, "h0_multiply",
                        lambda a, b, q0=RF_Q: real(a, b, q_power(2)))
    assert not quadratic_defect(1, 2).is_zero()


@pytest.mark.parametrize("check", [
    lambda: braid_relation_holds(1, 3),
    lambda: associative_on([(ts(2, 3), ts(1, 3), ts(1, 3))]),
], ids=["braid", "associativity"])
def test_check_sees_a_corrupted_structure_constant(monkeypatch, check):
    # every product T_{s_1} * b comes out doubled
    real = hecke_finite.h0_multiply
    monkeypatch.setattr(
        hecke_finite, "h0_multiply", lambda a, b, q0=RF_Q:
        real(a, b, q0).scale(RatFunc(2 if a == ts(1, 3) else 1)))
    assert not check()


def test_products_stay_in_basis_span_and_dim():
    # exhaustive k <= 4: T_v * T_w stays in the span of the k! basis elements
    for k in range(1, 5):
        perms = all_permutations(k)
        assert len(perms) == factorial(k)
        labels = set(perms)
        for v in perms:
            for w in perms:
                prod = h0_multiply(T(v), T(w))
                assert set(prod.support) <= labels


def _random_element(rng, k, perms):
    supp = {}
    for _ in range(rng.randint(1, 3)):
        c = rng.randint(-2, 2)
        if c:
            supp[rng.choice(perms)] = RatFunc(c)
    return FiniteHeckeElement(k, supp)


def test_associativity_random_k4():
    rng = random.Random(2024)
    k = 4
    perms = all_permutations(k)
    triples = [tuple(_random_element(rng, k, perms) for _ in range(3))
               for _ in range(200)]
    assert associative_on(triples)


def test_sign_values():
    assert sign_value(identity(3)) == RF_ONE
    assert sign_value(simple(1, 3)) == RatFunc(-1)
    assert sign_value(simple(1, 3) * simple(2, 3)) == RF_ONE


def test_sign_is_algebra_homomorphism():
    # T_s -> -1 satisfies (x+1)(x-q0) = 0, so eps extends multiplicatively
    # over Q(q); check on random pairs
    rng = random.Random(77)
    k = 3
    perms = all_permutations(k)

    def eps(elt):
        out = RF_ZERO
        for w, c in elt.support.items():
            out = out + c * sign_value(w)
        return out

    for _ in range(200):
        a = _random_element(rng, k, perms)
        b = _random_element(rng, k, perms)
        assert eps(h0_multiply(a, b)) == eps(a) * eps(b)


def test_induced_module_dims_k3():
    assert induced_sign_module(3, (2, 1)).dim == 3
    assert induced_sign_module(3, (3,)).dim == 1
    assert induced_sign_module(3, (1, 1, 1)).dim == 6


def test_induced_module_bad_composition():
    with pytest.raises(ValueError):
        induced_sign_module(3, (2, 2))
    with pytest.raises(ValueError):
        induced_sign_module(3, (3, 0))


def _rewrite_action(h, m, n, q0=RF_Q):
    """Reference: h . e_n by a full product in H_0, rewritten into the basis.

    Each T_w (x) 1 in h*T_x becomes (-1)^length(u) T_x' (x) 1 along the
    length-additive factorisation w = x'*u with u in W_J.
    """
    jset = young_subgroup(m.J)
    out = [RF_ZERO] * m.dim
    prod = h0_multiply(h, T(m.basis[n]), q0)
    for w, c in prod.support.items():
        x, u = parabolic_decompose(w, jset)
        j = m.basis.index(x)
        out[j] = out[j] + c * sign_value(u)
    return out


def test_deodhar_action_matches_product_rewrite():
    for q0 in (RF_Q, q_power(2)):
        for k in range(1, 5):
            for J in compositions(k):
                m = induced_sign_module(k, J)
                for i in range(1, k):
                    for n in range(m.dim):
                        e = [RF_ZERO] * m.dim
                        e[n] = RF_ONE
                        assert m.act_simple(i, e, q0) == \
                            _rewrite_action(ts(i, k), m, n, q0)


def test_module_act_matches_product_rewrite_k4():
    rng = random.Random(12)
    k = 4
    perms = all_permutations(k)
    for J in compositions(k):
        m = induced_sign_module(k, J)
        for _ in range(5):
            h = _random_element(rng, k, perms)
            for n in range(m.dim):
                e = [RF_ZERO] * m.dim
                e[n] = RF_ONE
                assert module_act(h, m, e) == _rewrite_action(h, m, n)


def test_module_act_examples():
    m = induced_sign_module(2, (2,))
    out = module_act(ts(1, 2), m, [RF_ONE])
    assert out == [RatFunc(-1)]

    m = induced_sign_module(3, (2, 1))
    vec = [RF_ZERO] * m.dim
    x = simple(2, 3)
    vec[m.basis.index(x)] = RF_ONE
    out = module_act(ts(1, 3), m, vec)
    expect = [RF_ZERO] * m.dim
    expect[m.basis.index(simple(1, 3) * simple(2, 3))] = RF_ONE
    assert out == expect


def test_action_matrices_satisfy_quadratic():
    for k in range(2, 5):
        for J in compositions(k):
            m = induced_sign_module(k, J)
            for i in range(1, k):
                a = action_matrix(m, ts(i, k))
                # (A + I)(A - q0 I) = 0 entrywise
                n = m.dim
                ai = [[a[r][c] + (RF_ONE if r == c else RF_ZERO) for c in range(n)]
                      for r in range(n)]
                aq = [[a[r][c] - (RF_Q if r == c else RF_ZERO) for c in range(n)]
                      for r in range(n)]
                for r in range(n):
                    for c in range(n):
                        s = RF_ZERO
                        for t in range(n):
                            s = s + ai[r][t] * aq[t][c]
                        assert s == RF_ZERO


def test_module_action_is_algebra_action():
    rng = random.Random(9)
    k = 3
    perms = all_permutations(k)
    for J in compositions(k):
        m = induced_sign_module(k, J)
        for _ in range(20):
            a = _random_element(rng, k, perms)
            b = _random_element(rng, k, perms)
            vec = [RatFunc(rng.randint(-2, 2)) for _ in range(m.dim)]
            lhs = module_act(h0_multiply(a, b), m, vec)
            rhs = module_act(a, m, module_act(b, m, vec))
            assert lhs == rhs


def test_hom_to_sign_dims():
    assert hom_to_sign_dim(induced_sign_module(3, (2, 1))) == 1
    assert hom_to_sign_dim(induced_sign_module(2, (1, 1))) == 1
    for J in compositions(4):
        assert hom_to_sign_dim(induced_sign_module(4, J)) == 1


def test_hom_to_sign_dim_all_compositions_k5():
    for k in range(1, 6):
        for J in compositions(k):
            assert hom_to_sign_dim(induced_sign_module(k, J)) == 1


def _natural_order_hom_dim(m, q0):
    """hom_to_sign_dim with basis vector n as column n (length-ascending)."""
    rows = []
    for table in m.simple_action:
        for n, (case, j) in enumerate(table):
            if case == DESCENT:
                rows.append({j: q0, n: q0})
            elif case == ASCENT:
                rows.append({j: RF_ONE, n: RF_ONE})
    return len(kernel_basis(RFMatrix.sparse(rows, m.dim)))


def test_longest_first_columns_keep_the_dimension():
    for k in range(1, 6):
        for J in compositions(k):
            m = induced_sign_module(k, J)
            for f in (1, 2):
                q0 = q_power(f)
                assert hom_to_sign_dim(m, q0) == _natural_order_hom_dim(m, q0)


def test_free_module_k6_has_one_sign_hom():
    assert sign_hom_dim(6, (1,) * 6, 1) == 1


def test_specialisation_consistency_q7():
    # computing the Hom dimension after evaluating the action matrices at
    # q = 7 gives the same answer as the symbolic computation
    for k in range(2, 5):
        for J in compositions(k):
            m = induced_sign_module(k, J)
            sym = hom_to_sign_dim(m)
            rows = []
            for i in range(1, k):
                a = action_matrix(m, ts(i, k))
                for x in range(m.dim):
                    row = [rf_eval(a[y][x], 7) for y in range(m.dim)]
                    row[x] += 1
                    rows.append(row)
            assert m.dim - frac_rank(rows) == sym
