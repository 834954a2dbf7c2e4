import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ggdim.coeff import (
    IntPoly, RatFunc, RFMatrix, P_ONE, RF_ONE, RF_ZERO, RF_Q,
    add_term, kernel_basis, poly_gcd, q_power, rf_eval,
)
from ggdim.hecke_finite import ASCENT, DESCENT, induced_sign_module

from shared import compositions, echelon, frac_rank


def rf(num, den=1):
    return RatFunc(IntPoly(num) if isinstance(num, (list, tuple)) else num,
                   IntPoly(den) if isinstance(den, (list, tuple)) else den)


def test_canonical_reduction():
    # (q - 1)/(q^2 - 1) reduces to 1/(q + 1)
    a = rf([-1, 1], [-1, 0, 1])
    assert a.num == P_ONE
    assert a.den == IntPoly([1, 1])


def test_mul_inverse_cancels():
    a = rf([0, 1]) * rf(1, [0, 1])     # q * (1/q)
    assert a == RF_ONE


def test_sub_to_zero():
    # (q^2 - 1)/(q - 1) - (q + 1) = 0
    a = rf([-1, 0, 1], [-1, 1]) - rf([1, 1])
    assert a == RF_ZERO
    assert a.den == P_ONE


def test_rational_constant_canonical():
    h = rf(1, 2)
    assert h.num == P_ONE and h.den == IntPoly([2])
    assert h + h == RF_ONE


def test_den_sign_normalised():
    a = rf([1], [-1, 1]) + rf([1], [1, -1])   # 1/(q-1) + 1/(1-q) = 0
    assert a == RF_ZERO
    b = rf([1], [1, -1])
    assert b.den.leading() > 0


def test_eval():
    a = rf([-1, 0, 1], [-1, 1])    # (q^2-1)/(q-1) = q+1 away from q=1
    assert rf_eval(a, 7) == 8
    assert rf_eval(rf(1, [1, 1]), Fraction(1, 2)) == Fraction(2, 3)


def test_eval_pole_raises():
    a = rf([1], [-1, 1])           # 1/(q-1)
    with pytest.raises(ZeroDivisionError):
        rf_eval(a, 1)


def test_div_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        RF_ONE / RF_ZERO
    with pytest.raises(ZeroDivisionError):
        RatFunc(P_ONE, IntPoly())


def test_syntactic_equality_and_hash():
    a = rf([-1, 1], [-1, 0, 1])
    b = rf(1, [1, 1])
    assert a == b
    assert hash(a) == hash(b)
    d = {a: 1}
    d[b] = 2
    assert d == {b: 2}


def test_q_power():
    assert q_power(0) == RF_ONE
    assert q_power(1) == RF_Q
    assert q_power(3) == RF_Q * RF_Q * RF_Q


def test_product_by_one_is_the_other_factor():
    for x in (RatFunc(3), RatFunc(-1), RF_Q - RF_ONE, RF_Q * RF_Q, RF_ZERO):
        for one in (RF_ONE, RatFunc(1)):
            assert x * one is x
            assert one * x is x
    x = rf(1, [1, 1])              # a denominator: an ordinary product
    assert x * RF_ONE == x and RF_ONE * x == x


def test_add_term_accumulates_and_drops_zero_sums():
    acc = {"a": RF_ONE}
    add_term(acc, "b", RF_Q)                 # a new key
    assert acc == {"a": RF_ONE, "b": RF_Q}
    add_term(acc, "a", RF_Q)                 # an existing key
    assert acc == {"a": RF_ONE + RF_Q, "b": RF_Q}
    add_term(acc, "b", -RF_Q)                # cancels to 0: b is dropped
    assert acc == {"a": RF_ONE + RF_Q}
    add_term(acc, "c", RF_ZERO)              # a zero term never enters
    assert acc == {"a": RF_ONE + RF_Q}


# -- kernels ----------------------------------------------------------------

def test_kernel_1x2():
    basis = kernel_basis(RFMatrix([[RF_ONE, RatFunc(-1)]]))
    assert basis == [(RF_ONE, RF_ONE)]


def test_kernel_identity_3():
    rows = [[RF_ONE if i == j else RF_ZERO for j in range(3)] for i in range(3)]
    assert kernel_basis(RFMatrix(rows)) == []


def test_kernel_rank_one_2x2():
    m = RFMatrix([[RF_Q, RF_Q], [RF_ONE, RF_ONE]])
    basis = kernel_basis(m)
    assert basis == [(RF_ONE, RatFunc(-1))]


def test_kernel_of_sparse_rows_with_explicit_zeros():
    # RFMatrix.sparse drops the zero entries, so column 0 is free
    m = RFMatrix.sparse([{0: 0, 1: 1}, {0: 0, 2: 1}], 3)
    assert kernel_basis(m) == [(RF_ONE, RF_ZERO, RF_ZERO)]


def test_kernel_vectors_annihilate():
    rng = random.Random(11)
    for _ in range(25):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rf([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
                 for _ in range(nc)] for _ in range(nr)]
        m = RFMatrix(rows)
        basis = kernel_basis(m)
        for v in basis:
            for row in m.rows:
                s = RF_ZERO
                for e, x in zip(row, v):
                    s = s + e * x
                assert s == RF_ZERO


def test_kernel_dim_matches_specialised_rank():
    # rank over Q(q) >= rank at any specialisation; they agree at a generic
    # prime, so dim ker over Q(q) must match the minimum over a few primes.
    rng = random.Random(23)
    for _ in range(20):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rf([rng.randint(-1, 1) for _ in range(2)])
                 for _ in range(nc)] for _ in range(nr)]
        m = RFMatrix(rows)
        dim = len(kernel_basis(m))
        best = None
        for p in (5, 7, 13):
            try:
                ev = m.eval_at(p)
            except ZeroDivisionError:
                continue
            r = frac_rank(ev)
            best = r if best is None else max(best, r)
        assert best is not None
        assert nc - dim == best


def test_field_axioms_random():
    rng = random.Random(7)

    def rand_rf():
        num = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        den = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        if not any(den):
            den = [1]
        return rf(num, den)

    for _ in range(120):
        a, b, c = rand_rf(), rand_rf(), rand_rf()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a - a == RF_ZERO
        if b:
            assert (a / b) * b == a


def test_gcd_properties_random():
    rng = random.Random(3)
    for _ in range(80):
        a = IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(0, 4))])
        b = IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(0, 4))])
        g = poly_gcd(a, b)
        if a.is_zero() and b.is_zero():
            assert g.is_zero()
            continue
        assert g.leading() > 0
        if not a.is_zero():
            a.divexact(g)
        if not b.is_zero():
            b.divexact(g)


def _entry_cost(e):
    return e.num.degree + e.den.degree


def _full_scan_kernel(m):
    """Reference: Gauss-Jordan elimination, each pivot found by a full scan.

    The next pivot minimises (entry cost, row length, column, row position)
    over all remaining entries.  kernel_basis picks its pivots by another
    rule, so where the kernel has dimension > 1 its basis spans the same
    space through other free columns: compare reduced echelon forms there.
    A 1-dimensional kernel has one normalised basis, so there the two
    bases are equal.
    """
    ncols = m.ncols
    work = [{j: e for j, e in enumerate(row) if e} for row in m.rows]
    work = [row for row in work if row]
    pivots = {}
    while work:
        best = None
        for ri, row in enumerate(work):
            for col, e in row.items():
                key = (_entry_cost(e), len(row), col, ri)
                if best is None or key < best[0]:
                    best = (key, ri, col)
        _, ri, pc = best
        prow = work.pop(ri)
        pe = prow[pc]
        prow = {j: e / pe for j, e in prow.items()}
        for other in list(pivots.values()) + work:
            if pc in other:
                f = other.pop(pc)
                for j, e in prow.items():
                    if j == pc:
                        continue
                    v = other.get(j, RF_ZERO) - f * e
                    if v:
                        other[j] = v
                    else:
                        other.pop(j, None)
        work = [row for row in work if row]
        pivots[pc] = prow
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [RF_ZERO] * ncols
        v[fc] = RF_ONE
        for pc, prow in pivots.items():
            e = prow.get(fc)
            if e:
                v[pc] = -e
        lead = next(x for x in v if x)
        if lead != RF_ONE:
            v = [x / lead for x in v]
        basis.append(tuple(v))
    return basis


def test_kernel_matches_full_scan_pivot_rule():
    rng = random.Random(4)
    pool = [RF_ONE, RatFunc(-1), RatFunc(2), RF_Q, RF_Q - RF_ONE, -RF_Q,
            RF_Q * RF_Q, rf(1, [1, 1]), rf([0, 2], [-1, 1]), rf(3, 2)]
    for _ in range(400):
        nr, nc = rng.randint(0, 14), rng.randint(1, 12)
        rows = []
        for _ in range(nr):
            width = rng.choice((1, 2, 2, 2, 3, 4))
            rows.append({j: rng.choice(pool)
                         for j in rng.sample(range(nc), min(width, nc))})
        m = RFMatrix.sparse(rows, nc)
        got, expect = kernel_basis(m), _full_scan_kernel(m)
        assert len(got) == len(expect)
        assert echelon(got) == echelon(expect)
        if nr:              # dense rows carry no width when there are none
            assert kernel_basis(RFMatrix(m.rows)) == got


def _hom_system(m, q0, longest_first):
    """The Hom-to-sign rows of hom_to_sign_dim, in either column order."""
    col = (lambda n: m.dim - 1 - n) if longest_first else (lambda n: n)
    rows = []
    for table in m.simple_action:
        for n, (case, j) in enumerate(table):
            if case == DESCENT:
                rows.append({col(j): q0, col(n): q0})
            elif case == ASCENT:
                rows.append({col(j): RF_ONE, col(n): RF_ONE})
    return RFMatrix.sparse(rows, m.dim)


def test_kernel_matches_full_scan_on_hom_systems():
    for k in range(1, 6):
        for J in compositions(k):
            m = induced_sign_module(k, J)
            for f in (1, 2):
                for longest_first in (False, True):
                    system = _hom_system(m, q_power(f), longest_first)
                    assert kernel_basis(system) == _full_scan_kernel(system)


def test_kernel_matches_full_scan_with_scalar_twins():
    # Each twin is a scalar multiple of an earlier row, as a Deodhar DESCENT
    # row is q0 times its ASCENT twin, so rows cancel while the pivot rows
    # keep entries in later pivot columns until the back-substitution.
    rng = random.Random(17)
    pool = [RF_ONE, RatFunc(-1), RatFunc(2), RF_Q, RF_Q - RF_ONE, -RF_Q,
            RF_Q * RF_Q, rf(1, [1, 1]), rf([0, 2], [-1, 1]), rf(3, 2)]
    for _ in range(200):
        nc = rng.randint(2, 12)
        rows = []
        for _ in range(rng.randint(1, 12)):
            if rows and rng.random() < 0.4:
                c = rng.choice(pool)
                rows.append({j: c * e for j, e in rng.choice(rows).items()})
            else:
                width = rng.choice((2, 2, 2, 3))
                rows.append({j: rng.choice(pool)
                             for j in rng.sample(range(nc), min(width, nc))})
        rng.shuffle(rows)
        m = RFMatrix.sparse(rows, nc)
        got, expect = kernel_basis(m), _full_scan_kernel(m)
        assert len(got) == len(expect)
        assert echelon(got) == echelon(expect)


def _canonical_poly(p):
    return ((not p.coeffs or p.coeffs[-1] != 0)
            and all(type(c) is int for c in p.coeffs)
            and p == IntPoly(list(p.coeffs)))


int_polys = st.lists(st.integers(-6, 6), max_size=5).map(IntPoly)


@settings(max_examples=200, deadline=None)
@given(int_polys, int_polys, st.integers(-4, 4))
def test_intpoly_results_are_normalised(a, b, c):
    for x in (-2, 3):
        assert (a * b).eval_at(x) == a.eval_at(x) * b.eval_at(x)
        assert (a + b).eval_at(x) == a.eval_at(x) + b.eval_at(x)
        assert a.scale(c).eval_at(x) == c * a.eval_at(x)
        assert (-a).eval_at(x) == -a.eval_at(x)
    for p in (-a, a * b, a.scale(c), a + b):
        assert _canonical_poly(p)


def _canonical_ratfunc(r):
    g = poly_gcd(r.num, r.den)
    return (_canonical_poly(r.num) and _canonical_poly(r.den)
            and r.den.leading() > 0 and g.coeffs in ((1,), (-1,)))


@settings(max_examples=200, deadline=None)
@given(int_polys, int_polys, int_polys, int_polys)
def test_ratfunc_results_are_canonical(an, ad, bn, bd):
    if ad.is_zero() or bd.is_zero():
        return
    a, b = RatFunc(an, ad), RatFunc(bn, bd)
    results = [a + b, a - b, a * b]
    if b:
        results.append(a / b)
    for r in results:
        assert _canonical_ratfunc(r)


def test_sparse_matrix_form():
    m = RFMatrix.sparse([{2: RF_Q, 0: 1}, {}], 3)
    assert (m.nrows, m.ncols) == (2, 3)
    assert m.rows == ((RF_ONE, RF_ZERO, RF_Q), (RF_ZERO, RF_ZERO, RF_ZERO))
    assert m == RFMatrix(m.rows)
    with pytest.raises(ValueError):
        RFMatrix.sparse([{3: RF_ONE}], 3)
