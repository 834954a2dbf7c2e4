"""Exact arithmetic over the rational function field Q(q).

Every Hecke-algebra computation in this package keeps its coefficients in
Q(q), with q a formal variable (specialised to a prime power only at the very
end, if at all).  Floating point is never acceptable here: the quantities we
care about are dimensions of solution spaces of linear systems over Q(q), and
those collapse under rounding.

The representation is the obvious one: a rational function is a pair of
integer polynomials (num, den).  What matters is that the pair is *canonical*,
because downstream code stores algebra elements as dicts mapping basis labels
to coefficients and relies on syntactic equality (and hashing) of RatFunc
values:

  * den is nonzero and its leading coefficient is positive;
  * the full gcd of num and den in Z[q] -- including the integer contents --
    is cancelled, so gcd(num, den) = +-1.

With that normalisation two RatFunc values are mathematically equal iff their
tuples of coefficients are equal, so __eq__/__hash__ are structural.

Polynomial gcds use the primitive Euclidean algorithm (primitive part after
each pseudo-remainder).  Degrees stay tiny in this application; no need for
subresultants.

kernel_basis eliminates over Q(q) on sparse rows and picks its pivots by
Markowitz's rule, column first: each pivot costs one row update per other
live row in its column, so the next pivot column is the one with the fewest
live rows, and within it the pivot row has the smallest (entry cost = size
of numerator plus size of denominator, row length, original row order).
Ties go to the lowest column, so the pivots are deterministic.  A column ->
rows index names the live rows of each column, and a lazy heap holds
(live-row count, column) keys: a popped key whose count no longer matches
is skipped, and after each pivot only the pivot row's columns, whose counts
fill-in, cancellation and the pivot row's removal change, get fresh keys.
Elimination is forward only: a pivot clears its column from the live rows,
not from the earlier pivot rows, and one back-substitution pass, latest
pivot first, brings the pivot rows to reduced form at the end.  A pivot row
never re-enters a live row, so the basis is that of full Gauss-Jordan
elimination with the same pivots.  The homomorphism-space computations in
the Hecke modules feed it systems that are large but very sparse (at most
two entries per row, most of them 1).  Their cost is the number of row
updates, each a few RatFunc operations, so a product by 1 returns the other
factor without allocating (see hecke_finite.hom_to_sign_dim for the counts).
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd as _igcd


# ---------------------------------------------------------------------------
# integer polynomials
# ---------------------------------------------------------------------------

class IntPoly:
    """Polynomial in q with integer coefficients, coeffs[i] = coefficient of q^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int):
                raise TypeError("IntPoly coefficients must be int, got %r" % (c,))
        self.coeffs = tuple(cs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _of(coeffs: tuple) -> "IntPoly":
        """Wrap a tuple of ints with no trailing zero, unchecked."""
        p = IntPoly.__new__(IntPoly)
        p.coeffs = coeffs
        return p

    @staticmethod
    def const(c: int) -> "IntPoly":
        return IntPoly((c,))

    @staticmethod
    def monomial(deg: int, c: int = 1) -> "IntPoly":
        if deg < 0:
            raise ValueError("monomial degree must be >= 0")
        return IntPoly((0,) * deg + (c,))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial getting -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = _igcd(g, c)
        return g

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        while out and not out[-1]:
            out.pop()
        return IntPoly._of(tuple(out))

    def __neg__(self) -> "IntPoly":
        return IntPoly._of(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return P_ZERO
        # both nonzero, so the leading coefficient of the product is too
        if len(a) == 1:
            return other.scale(a[0])
        if len(b) == 1:
            return self.scale(b[0])
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly._of(tuple(out))

    def scale(self, c: int) -> "IntPoly":
        if not c:
            return P_ZERO
        return IntPoly._of(tuple(c * x for x in self.coeffs))

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def eval_at(self, x):
        """Evaluate by Horner; x may be int or Fraction."""
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divexact(self, other: "IntPoly") -> "IntPoly":
        """Exact division in Z[q]; raises ValueError if not divisible."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        q_out = [0] * max(len(rem) - len(other.coeffs) + 1, 0)
        ob = other.coeffs
        lead = ob[-1]
        for i in range(len(rem) - 1, len(ob) - 2, -1):
            c = rem[i]
            if c == 0:
                continue
            if c % lead != 0:
                raise ValueError("inexact polynomial division")
            f = c // lead
            pos = i - (len(ob) - 1)
            q_out[pos] = f
            for j, oc in enumerate(ob):
                rem[pos + j] -= f * oc
        if any(rem):
            raise ValueError("inexact polynomial division")
        return IntPoly(q_out)

    def primitive(self) -> "IntPoly":
        """Primitive part with positive leading coefficient (zero stays zero)."""
        if self.is_zero():
            return self
        c = self.content()
        if self.leading() < 0:
            c = -c
        return IntPoly(tuple(x // c for x in self.coeffs))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                qpow = "q" if i == 1 else "q^%d" % i
                term = qpow if abs(c) == 1 else "%d*%s" % (abs(c), qpow)
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append((" + " if c > 0 else " - ") + term)
        return "".join(parts)

    def __repr__(self) -> str:
        return "IntPoly(%s)" % (self,)


P_ZERO = IntPoly()
P_ONE = IntPoly((1,))
P_Q = IntPoly((0, 1))


def _pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Pseudo-remainder of a by b (b nonzero, deg a >= deg b)."""
    rem = a
    d = b.degree
    lead = b.leading()
    while not rem.is_zero() and rem.degree >= d:
        shift = rem.degree - d
        rem = rem.scale(lead) - b * IntPoly.monomial(shift, rem.leading())
    return rem


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """gcd in Z[q], normalised primitive-positive times the content gcd."""
    if a.is_zero():
        return _abs_poly(b)
    if b.is_zero():
        return _abs_poly(a)
    cont = _igcd(a.content(), b.content())
    pa, pb = a.primitive(), b.primitive()
    while not pb.is_zero():
        if pa.degree < pb.degree:
            pa, pb = pb, pa
            continue
        r = _pseudo_rem(pa, pb).primitive()
        pa, pb = pb, r
    return pa.scale(cont)


def _abs_poly(p: IntPoly) -> IntPoly:
    return -p if p.leading() < 0 else p


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RatFunc:
    """Element of Q(q) in canonical form (see module docstring)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=P_ONE):
        if isinstance(num, int):
            num = IntPoly.const(num)
        if isinstance(den, int):
            den = IntPoly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in RatFunc")
        if num.is_zero():
            self.num = P_ZERO
            self.den = P_ONE
            return
        if den.coeffs == (1,):
            self.num = num
            self.den = den
            return
        g = poly_gcd(num, den)
        if g.degree > 0 or abs(g.leading()) != 1:
            num = num.divexact(g)
            den = den.divexact(g)
        if den.leading() < 0:
            num = -num
            den = -den
        self.num = num
        self.den = den

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    # -- field operations ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if self.den.coeffs == (1,) and other.den.coeffs == (1,):
            out = RatFunc.__new__(RatFunc)
            out.num = self.num + other.num
            out.den = P_ONE
            return out
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        out = RatFunc.__new__(RatFunc)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if self.den.coeffs == (1,) and other.den.coeffs == (1,):
            # immutable, so a product by 1 can be the other factor itself
            if self.num.coeffs == (1,):
                return other
            if other.num.coeffs == (1,):
                return self
            out = RatFunc.__new__(RatFunc)
            out.num = self.num * other.num
            out.den = P_ONE
            return out
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Q(q)")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.den == P_ONE and self.num == IntPoly.const(other)
        return (isinstance(other, RatFunc)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num.coeffs, self.den.coeffs))

    def __str__(self) -> str:
        if self.den == P_ONE:
            return str(self.num)
        return "(%s)/(%s)" % (self.num, self.den)

    def __repr__(self) -> str:
        return "RatFunc(%s)" % (self,)


def _coerce(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, IntPoly):
        return RatFunc(x)
    if isinstance(x, int):
        return RatFunc(IntPoly.const(x))
    raise TypeError("cannot coerce %r into Q(q)" % (x,))


RF_ZERO = RatFunc(P_ZERO)
RF_ONE = RatFunc(P_ONE)
RF_Q = RatFunc(P_Q)


def add_term(acc: dict, key, c: RatFunc) -> None:
    """acc[key] += c in place, dropping key when the sum is zero."""
    v = acc.get(key, RF_ZERO) + c
    if v:
        acc[key] = v
    else:
        acc.pop(key, None)


def q_power(f: int) -> RatFunc:
    """The monomial q^f as a RatFunc (f >= 0)."""
    return RatFunc(IntPoly.monomial(f))


def rf_eval(a: RatFunc, q_value) -> Fraction:
    """Evaluate at a rational point.  Raises ZeroDivisionError at a pole."""
    x = Fraction(q_value)
    den = a.den.eval_at(x)
    if den == 0:
        raise ZeroDivisionError("pole of %s at q=%s" % (a, q_value))
    return Fraction(a.num.eval_at(x)) / den


# ---------------------------------------------------------------------------
# matrices and kernels
# ---------------------------------------------------------------------------

class RFMatrix:
    """Rectangular matrix over Q(q), stored as sparse rows.

    RFMatrix(rows) takes dense rows of equal length; RFMatrix.sparse(rows,
    ncols) takes rows as dicts column -> entry.  entries holds one dict per
    row with the zero entries dropped.
    """

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, rows):
        rows = [tuple(_coerce(e) for e in row) for row in rows]
        w = len(rows[0]) if rows else 0
        if any(len(row) != w for row in rows):
            raise ValueError("ragged rows in RFMatrix")
        self.entries = tuple({j: e for j, e in enumerate(row) if e} for row in rows)
        self.nrows = len(rows)
        self.ncols = w

    @classmethod
    def sparse(cls, rows, ncols: int) -> "RFMatrix":
        entries = []
        for row in rows:
            d = {}
            for j, e in row.items():
                if not 0 <= j < ncols:
                    raise ValueError("column %d outside 0..%d" % (j, ncols - 1))
                e = _coerce(e)
                if e:
                    d[j] = e
            entries.append(d)
        out = cls.__new__(cls)
        out.entries = tuple(entries)
        out.nrows = len(entries)
        out.ncols = ncols
        return out

    @property
    def rows(self) -> tuple:
        """Dense rows."""
        return tuple(tuple(row.get(j, RF_ZERO) for j in range(self.ncols))
                     for row in self.entries)

    def eval_at(self, q_value):
        """Entrywise evaluation to a list-of-lists of Fractions."""
        return [[rf_eval(e, q_value) for e in row] for row in self.rows]

    def __eq__(self, other):
        return (isinstance(other, RFMatrix) and self.ncols == other.ncols
                and self.entries == other.entries)

    def __repr__(self):
        return "RFMatrix(%d x %d)" % (self.nrows, self.ncols)


def _entry_cost(e: RatFunc) -> int:
    # the degree sum plus 2, read without the degree property
    return len(e.num.coeffs) + len(e.den.coeffs)


def kernel_basis(m) -> list:
    """Basis of the right kernel {v : m v = 0} over Q(q).

    Accepts an RFMatrix (dense or sparse) or a list of dense rows.  Returns a
    list of tuples of RatFunc, one per free column of the reduced system, each
    scaled so that its first nonzero entry is 1.  The result is
    deterministic: basis vectors are ordered by their free column index.
    """
    if not isinstance(m, RFMatrix):
        m = RFMatrix(m)
    ncols = m.ncols
    # row id = position among the nonzero rows, the last tie-break of a pivot
    rows = [dict(row) for row in m.entries if row]
    cols: dict[int, set] = {}       # column -> ids of live rows nonzero there
    for rid, row in enumerate(rows):
        for j in row:
            cols.setdefault(j, set()).add(rid)
    heap = [(len(ids), j) for j, ids in cols.items()]
    heapq.heapify(heap)
    pivots = []                     # (pivot column, pivot row), in pivot order

    while heap:
        count, pc = heapq.heappop(heap)
        ids = cols.get(pc)
        # a stale key: the column was a pivot column, or its count changed
        if ids is None or len(ids) != count:
            continue
        rid = min(ids, key=lambda i: (_entry_cost(rows[i][pc]), len(rows[i]), i))
        pe = rows[rid][pc]
        prow = {j: e / pe for j, e in rows[rid].items()}
        for j in prow:
            cols[j].discard(rid)
        pivots.append((pc, prow))
        negs = [(j, -e) for j, e in prow.items() if j != pc]
        # eliminate pc from the live rows only; no later fill-in reaches pc
        for oid in cols.pop(pc):
            other = rows[oid]
            f = other.pop(pc)
            for j, ne in negs:
                x = other.get(j)
                if x is None:               # fill-in: nonzero, as f and ne are
                    other[j] = f * ne
                    cols[j].add(oid)
                    continue
                v = x + f * ne
                if v:
                    other[j] = v
                else:
                    del other[j]
                    cols[j].discard(oid)
        # only the pivot row's columns changed their counts
        for j, _ in negs:
            if cols[j]:
                heapq.heappush(heap, (len(cols[j]), j))

    # back-substitution, latest pivot first: a pivot row holds no earlier
    # pivot column, and the later pivot rows it refers to are reduced already
    reduced: dict[int, dict] = {}   # pivot column -> reduced pivot row
    for pc, prow in reversed(pivots):
        for lc in [j for j in prow if j in reduced]:
            nf = -prow.pop(lc)
            for j, e in reduced[lc].items():
                if j == lc:
                    continue
                x = prow.get(j)
                v = nf * e if x is None else x + nf * e
                if v:
                    prow[j] = v
                else:
                    del prow[j]
        reduced[pc] = prow

    refs: dict[int, list] = {}      # free column -> (pivot column, entry)
    for pc, prow in reduced.items():
        for j, e in prow.items():
            if j != pc:
                refs.setdefault(j, []).append((pc, e))
    basis = []
    for fc in range(ncols):
        if fc in reduced:
            continue
        v = [RF_ZERO] * ncols
        v[fc] = RF_ONE
        for pc, e in refs.get(fc, ()):
            v[pc] = -e
        lead = next(x for x in v if x)
        if lead != RF_ONE:
            v = [x / lead for x in v]
        basis.append(tuple(v))
    return basis
