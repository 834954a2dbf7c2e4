from hypothesis import given, settings, strategies as st

from ggdim._intmat import (
    hermite_row_basis, hnf_contains, ident, mat_mul, smith_normal_form,
)


def _det(m):
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    out = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        out += (-1) ** j * m[0][j] * _det(minor)
    return out


def matrices(max_rows=4, max_cols=4, lo=-6, hi=6):
    return st.integers(1, max_cols).flatmap(lambda n: st.lists(
        st.lists(st.integers(lo, hi), min_size=n, max_size=n),
        min_size=1, max_size=max_rows))


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_snf_random(a):
    m, n = len(a), len(a[0])
    u, uinv, d, v = smith_normal_form(a)
    assert mat_mul(mat_mul(u, a), v) == d
    assert mat_mul(u, uinv) == ident(m)
    assert abs(_det(u)) == 1
    assert abs(_det(v)) == 1
    # off-diagonal zero
    assert all(d[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    # nonnegative, divisibility chain, zeros trailing
    diag = [d[i][i] for i in range(min(m, n))]
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        assert y == 0 if x == 0 else y % x == 0


@st.composite
def generator_sets(draw):
    """Generating rows; the same rows permuted and mixed by a unimodular
    matrix (a product of elementary row operations); integer combinations
    of the rows; and a probe vector."""
    rows = draw(matrices(max_rows=5, lo=-5, hi=5))
    k, nrows = len(rows[0]), len(rows)
    permuted = draw(st.permutations(rows))
    mixed = [list(r) for r in rows]
    for _ in range(draw(st.integers(0, 8))):
        i = draw(st.integers(0, nrows - 1))
        j = draw(st.integers(0, nrows - 1))
        op = draw(st.sampled_from(("add", "swap", "negate")))
        if op == "add" and i != j:
            f = draw(st.integers(-3, 3))
            mixed[i] = [x + f * y for x, y in zip(mixed[i], mixed[j])]
        elif op == "swap":
            mixed[i], mixed[j] = mixed[j], mixed[i]
        elif op == "negate":
            mixed[i] = [-x for x in mixed[i]]
    combos = []
    for coeffs in draw(st.lists(st.lists(st.integers(-3, 3), min_size=nrows,
                                         max_size=nrows), max_size=5)):
        combo = [0] * k
        for f, r in zip(coeffs, rows):
            combo = [x + f * y for x, y in zip(combo, r)]
        combos.append(combo)
    probe = draw(st.lists(st.integers(-10, 10), min_size=k, max_size=k))
    return rows, permuted, mixed, combos, probe


@settings(max_examples=200, deadline=None)
@given(generator_sets())
def test_hnf_basis_canonical_and_membership(case):
    rows, permuted, mixed, combos, probe = case
    basis = hermite_row_basis(rows)
    # canonical shape: pivots positive, strictly increasing pivot columns,
    # entries above pivots reduced
    pivots = []
    for row in basis:
        c = next(j for j, x in enumerate(row) if x)
        assert row[c] > 0
        pivots.append(c)
    assert pivots == sorted(set(pivots))
    for i, row in enumerate(basis):
        for j, c in enumerate(pivots):
            if j > i:
                assert 0 <= row[c] < basis[j][c]
    # the same lattice from permuted or unimodularly mixed generators
    assert hermite_row_basis(permuted) == basis
    assert hermite_row_basis(mixed) == basis
    # generators and their integer combinations are members
    assert all(hnf_contains(basis, r) for r in rows + mixed + combos)
    # membership agrees with "adding the vector leaves the lattice unchanged"
    assert hnf_contains(basis, probe) == \
        (hermite_row_basis(rows + [probe]) == basis)


def test_hnf_non_membership():
    basis = hermite_row_basis([[2, 0], [0, 2]])
    assert not hnf_contains(basis, (1, 0))
    assert not hnf_contains(basis, (1, 1))
    assert hnf_contains(basis, (2, -4))


def test_snf_known_lattice():
    # Z^3 / <4e1, 4e2, 4e3, (2,2,2)> has invariant factors (2, 4, 4)
    rows = [[4, 0, 0], [0, 4, 0], [0, 0, 4], [2, 2, 2]]
    basis = hermite_row_basis(rows)
    cols = [[basis[j][i] for j in range(3)] for i in range(3)]
    _u, _uinv, d, _v = smith_normal_form(cols)
    assert [d[i][i] for i in range(3)] == [2, 4, 4]
