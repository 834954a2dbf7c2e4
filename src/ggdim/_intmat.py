"""Exact integer matrix helpers: Smith and Hermite normal forms.

Everything here works on small dense matrices (k <= 7 in practice) given as
lists of lists of Python ints, so there is no overflow to worry about.

smith_normal_form returns (U, Uinv, D, V) with U*A*V = D, U and V unimodular,
D diagonal with nonnegative entries satisfying the divisibility chain
d_1 | d_2 | ... .  Uinv is maintained alongside U because callers use both
directions of the change of basis (QuotientGroup.perm_matrix conjugates by
U and Uinv).

hermite_row_basis returns the canonical row-style Hermite normal form of the
lattice generated by the input rows: pivot columns strictly increasing,
pivots positive, entries above each pivot reduced into [0, pivot).  The
canonical form makes lattice equality a tuple comparison, and membership
testing is a triangular reduction against it.
"""

from __future__ import annotations


def ident(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: list, b: list) -> list:
    n, m, p = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(m)) for j in range(p)]
            for i in range(n)]


def mat_vec(a: list, v) -> tuple:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def _row_op(mat, i, j, f):
    """row_i += f * row_j"""
    mat[i] = [x + f * y for x, y in zip(mat[i], mat[j])]


def _col_op(mat, i, j, f):
    """col_i += f * col_j"""
    for row in mat:
        row[i] += f * row[j]


def smith_normal_form(a: list):
    """U*A*V = D.  Returns (U, Uinv, D, V); see module docstring."""
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(row) for row in a]
    u, uinv, v = ident(m), ident(m), ident(n)

    # Elementary ops keep U*A*V = D and U*Uinv = I in sync:
    #   row_i += f*row_j on (D, U)  <->  col_j -= f*col_i on Uinv
    #   swap rows i,j on (D, U)     <->  swap cols i,j on Uinv
    #   col ops touch only (D, V).

    def row_add(i, j, f):
        _row_op(d, i, j, f)
        _row_op(u, i, j, f)
        _col_op(uinv, j, i, -f)

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        for row in uinv:
            row[i], row[j] = row[j], row[i]

    def row_neg(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]
        for row in uinv:
            row[i] = -row[i]

    def col_add(i, j, f):
        _col_op(d, i, j, f)
        _col_op(v, i, j, f)

    def col_swap(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    rank = min(m, n)
    for t in range(rank):
        # choose the entry of smallest absolute value as pivot
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            rank = t
            break
        if best[0] != t:
            row_swap(t, best[0])
        if best[1] != t:
            col_swap(t, best[1])
        # clear row t and column t; swaps keep shrinking |pivot|, so this ends
        while True:
            dirty = False
            for i in range(t + 1, m):
                if d[i][t]:
                    f = d[i][t] // d[t][t]
                    row_add(i, t, -f)
                    if d[i][t]:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if d[t][j]:
                    f = d[t][j] // d[t][t]
                    col_add(j, t, -f)
                    if d[t][j]:
                        col_swap(t, j)
                        dirty = True
            if not dirty:
                break
        if d[t][t] < 0:
            row_neg(t)

    # enforce the divisibility chain with 2x2 blocks diag(a,b) -> diag(g,lcm)
    changed = True
    while changed:
        changed = False
        for t in range(rank - 1):
            a1, b1 = d[t][t], d[t + 1][t + 1]
            if a1 and b1 % a1 != 0:
                changed = True
                g, x, y = _xgcd(a1, b1)
                # [[a,0],[0,b]] --row--> [[a,0],[b? no: col]]: use the
                # classical identity via one row op and one unimodular col op
                row_add(t, t + 1, 1)                   # row_t += row_{t+1}: [[a, b],[0, b]]
                # right-multiply cols (t, t+1) by [[x, -b/g],[y, a/g]]
                _col_pair_op(d, t, t + 1, x, y, -b1 // g, a1 // g)
                _col_pair_op(v, t, t + 1, x, y, -b1 // g, a1 // g)
                # now d[t][t] = g, d[t+1][t] = b*y, d[t+1][t+1] = a*b/g
                f = d[t + 1][t] // g
                row_add(t + 1, t, -f)
                if d[t][t] < 0:
                    row_neg(t)
                if d[t + 1][t + 1] < 0:
                    row_neg(t + 1)
            elif a1 == 0 and b1 != 0:
                # push zeros to the end of the diagonal
                changed = True
                row_swap(t, t + 1)
                col_swap(t, t + 1)
    dd = [[d[i][j] for j in range(n)] for i in range(m)]
    return u, uinv, dd, v


def _col_pair_op(mat, i, j, a, c, b, e):
    """Replace (col_i, col_j) by (a*col_i + c*col_j, b*col_i + e*col_j)."""
    for row in mat:
        ci, cj = row[i], row[j]
        row[i] = a * ci + c * cj
        row[j] = b * ci + e * cj


def _xgcd(a: int, b: int):
    """g, x, y with x*a + y*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_s, s = s, old_s - qt * s
        old_t, t = t, old_t - qt * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hermite_row_basis(rows) -> tuple:
    """Canonical HNF basis (as a tuple of row tuples) of the row lattice."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return ()
    n = len(work[0])
    basis = []          # list of rows, pivot columns strictly increasing
    r = 0
    for c in range(n):
        # gcd-reduce all rows below r in column c
        while True:
            nz = [i for i in range(r, len(work)) if work[i][c]]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(work[i][c]))
            i0 = nz[0]
            for i in nz[1:]:
                f = work[i][c] // work[i0][c]
                _row_op(work, i, i0, -f)
        nz = [i for i in range(r, len(work)) if work[i][c]]
        if not nz:
            continue
        i0 = nz[0]
        work[r], work[i0] = work[i0], work[r]
        if work[r][c] < 0:
            work[r] = [-x for x in work[r]]
        # canonical: entries above the pivot reduced into [0, pivot)
        for i in range(r):
            f = work[i][c] // work[r][c]
            if f:
                _row_op(work, i, r, -f)
        r += 1
    return tuple(tuple(row) for row in work[:r] if any(row))


def hnf_contains(basis, vec) -> bool:
    """Is vec in the lattice generated by an HNF row basis?"""
    v = list(vec)
    for row in basis:
        c = next(j for j, x in enumerate(row) if x)
        if v[c] % row[c] != 0:
            return False
        f = v[c] // row[c]
        if f:
            v = [x - f * y for x, y in zip(v, row)]
    return not any(v)
