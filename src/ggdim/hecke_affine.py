"""The affine Hecke algebra in Bernstein presentation, over the lattice Y.

Here Y = T(b, rho) is a finite-index S_k-stable sublattice of Z^k, passed
as the cover module's QuotientGroup X(lambda) = Z^k / Y, which carries the
lattice facts used here: membership (contains) and the coroot multiplier.
The algebra H has underlying vector space C[Y] (x) H_0, with C[Y] spanned
by phi_t (t in Y, phi_t*phi_u = phi_{t+u}) and H_0 the finite Hecke algebra
with parameter q0.  Elements are kept in lattice-left normal form: linear
combinations of phi_t * T_w.

The two subalgebra structures are glued by the Bernstein relation

    phi_t * T_s - T_s * phi_{s.t} = (q0 - 1) (phi_t - phi_{s.t}) / (1 - phi_{-a}),

where, for the simple reflection s = s_i, the coroot direction must be
rescaled to the minimal lattice multiple a = c*(e_i - e_{i+1}) with c the
coroot_multiplier of Y (e_i - e_{i+1} itself need not lie in Y; c is the
order of its class in Z^k / Y, so minimal by construction).  The right-hand
side is the finite geometric sum

    (q0 - 1) * sum_{j=0}^{m-1} phi_{t - j*a}          for m > 0,
  - (q0 - 1) * sum_{j=1}^{|m|}  phi_{t + j*a}          for m < 0,
    0                                                  for m = 0,

with m = (t_i - t_{i+1})/c, and it equals both phi_t*T_s - T_s*phi_{s.t} and
T_s*phi_t - phi_{s.t}*T_s (the relation is symmetric in that sense).
bernstein_cross returns the normal form of T_{s_i} * phi_t, i.e. the element
phi_{s.t}*T_s plus that lattice part; general products rewrite T_s past
lattice factors with it, one reduced-word letter at a time, and multiply the
finite parts by hecke_finite.finite_product, the one product rule of H_0.
Coefficients accumulate through coeff.add_term.

The check that `ggdim verify`, the acceptance criteria and the unit tests
share: bernstein_relation_holds (the relation at one t and s_i, both as a
normal form and times 1 - phi_{-a}).  Associativity is checked by
hecke_finite.associative_on, which multiplies by * and so covers this
algebra as well.

The Gelfand-Graev module attached to a cover and type decomposes into one
summand per S_k-orbit on X(lambda); each is the free C[Y]-module on the sign
module induced from the orbit's stabilizer composition J.  Orbits with the
same J give isomorphic summands, so a block is (J, N_J): the composition
and its number of orbits from the lattice's orbit census.  A block has rank
N_J * k!/|W_J| over C[Y], and gg_module checks that the ranks sum to |X|.
The induced module itself is built only inside sign_hom_dim, once per
(k, J).  A homomorphism from C[Y] (x) W to a one-dimensional module is
determined by its restriction to W, so the Whittaker dimension is
sum_J N_J * dim Hom(H_0 (x)_{H_J} eps_J, sign), each Hom dimension computed
once per (k, J, f).  (The one-dimensional C[Y]-action on the target is a
scalar normalisation with no effect on dimensions; it is fixed to 1
throughout.)  Before any module is built the Hecke leg's kernel width, sum
over the distinct J of k!/|W_J| columns, is checked against
MAX_HECKE_COLUMNS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial

from .coeff import IntPoly, RF_ONE, RF_Q, RatFunc, add_term, q_power
from .cover import (
    CoverSpec, TypeSpec, DEFAULT_ORBIT_BOUND, QuotientGroup, orbit_census,
    ord_sum, x_lambda,
)
from .errors import InternalDisagreement, WorkLimitExceeded
from .hecke_finite import RF_MINUS_ONE, finite_product, sign_hom_dim
from .symgroup import (
    Permutation, act, identity, length, reduced_word, simple, young_order,
)

# largest kernel width (sum over the distinct stabilizer compositions J of
# k!/|W_J| columns) the Hecke leg takes on.  KP n=4, k=7 needs 6133 columns
# and its whole dims run takes about 0.7-0.8 s; the Hom kernel of the free
# module of S_7 alone, 5040 columns, takes about 0.5-0.6 s (2-core x86 VM,
# Python 3.11), so the width is only a proxy for the cost.
MAX_HECKE_COLUMNS = 10 ** 4


class AffineHeckeElement:
    """Linear combination of phi_t * T_w (normal form), t in Y."""

    __slots__ = ("lattice", "support")

    def __init__(self, lattice: QuotientGroup, support=None, _checked=False):
        self.lattice = lattice
        clean = {}
        for (t, w), c in (support or {}).items():
            t = tuple(t)
            if not _checked:
                if len(t) != lattice.k or not lattice.contains(t):
                    raise ValueError("lattice vector %r is not in Y" % (t,))
                if not isinstance(w, Permutation) or w.k != lattice.k:
                    raise ValueError("bad Weyl label %r" % (w,))
            if c:
                clean[(t, w)] = c
        self.support = clean

    def __add__(self, other: "AffineHeckeElement") -> "AffineHeckeElement":
        self._check_same(other)
        out = dict(self.support)
        for key, c in other.support.items():
            add_term(out, key, c)
        return AffineHeckeElement(self.lattice, out, _checked=True)

    def scale(self, c) -> "AffineHeckeElement":
        if not c:
            return AffineHeckeElement(self.lattice, {}, _checked=True)
        return AffineHeckeElement(
            self.lattice, {k: x * c for k, x in self.support.items()}, _checked=True)

    def __sub__(self, other):
        return self + other.scale(RF_MINUS_ONE)

    def __mul__(self, other):
        return ah_multiply(self, other)

    def __eq__(self, other) -> bool:
        return (isinstance(other, AffineHeckeElement)
                and self.lattice == other.lattice
                and self.support == other.support)

    def is_zero(self) -> bool:
        return not self.support

    def _check_same(self, other):
        if self.lattice != other.lattice:
            raise ValueError("lattice mismatch")

    def __repr__(self):
        if not self.support:
            return "AffineHeckeElement(0)"
        keys = sorted(self.support, key=lambda kw: (kw[0], kw[1].one_line))
        return " + ".join("(%s)*phi%s*T%s" % (self.support[kw], list(kw[0]),
                                              list(kw[1].one_line))
                          for kw in keys)


def ah_phi(lat: QuotientGroup, t) -> AffineHeckeElement:
    """The basis element phi_t."""
    return AffineHeckeElement(lat, {(tuple(t), identity(lat.k)): RF_ONE})


def ah_t(lat: QuotientGroup, w: Permutation) -> AffineHeckeElement:
    """The basis element T_w."""
    zero = (0,) * lat.k
    return AffineHeckeElement(lat, {(zero, w): RF_ONE})


def ah_one(lat: QuotientGroup) -> AffineHeckeElement:
    return ah_t(lat, identity(lat.k))


def bernstein_cross(lat: QuotientGroup, t, i: int,
                    q0: RatFunc = RF_Q) -> AffineHeckeElement:
    """Normal form of T_{s_i} * phi_t: phi_{s.t}*T_{s_i} + geometric lattice part.

    By the symmetry of the Bernstein relation the same lattice part also
    witnesses phi_t*T_{s_i} - T_{s_i}*phi_{s.t}.
    """
    t = tuple(t)
    if not lat.contains(t):
        raise ValueError("lattice vector %r is not in Y" % (t,))
    k = lat.k
    if not 1 <= i <= k - 1:
        raise ValueError("simple index %d out of range" % i)
    cm = lat.coroot_multiplier
    diff = t[i - 1] - t[i]
    if diff % cm != 0:
        raise ValueError(
            "t_i - t_{i+1} = %d is not divisible by the coroot multiplier %d "
            "(quotient-group bug)" % (diff, cm))
    m = diff // cm
    s = simple(i, k)
    supp = {(act(s, t), s): RF_ONE}
    # the geometric sum over phi_{t - j*a}: j = 0..m-1 with +(q0-1) for
    # m > 0, j = -1..m with -(q0-1) for m < 0, nothing for m = 0
    step = 1 if m > 0 else -1
    start = 0 if m > 0 else -1
    coef = (q0 - RF_ONE) * step
    for j in range(start, start + m, step):
        lab = list(t)
        lab[i - 1] -= j * cm
        lab[i] += j * cm
        add_term(supp, (tuple(lab), identity(k)), coef)
    return AffineHeckeElement(lat, supp, _checked=True)


def bernstein_relation_holds(lat: QuotientGroup, t, i: int) -> bool:
    """The Bernstein relation at t and s = s_i: normal form and telescoping."""
    t = tuple(t)
    s = simple(i, lat.k)
    st = act(s, t)
    lattice_part = bernstein_cross(lat, t, i) - \
        AffineHeckeElement(lat, {(st, s): RF_ONE})
    lhs = ah_multiply(ah_phi(lat, t), ah_t(lat, s)) - \
        ah_multiply(ah_t(lat, s), ah_phi(lat, st))
    if lhs != lattice_part:
        return False
    neg_a = [0] * lat.k
    neg_a[i - 1], neg_a[i] = -lat.coroot_multiplier, lat.coroot_multiplier
    check = ah_multiply(lattice_part, ah_one(lat) - ah_phi(lat, neg_a))
    return check == (ah_phi(lat, t) - ah_phi(lat, st)).scale(RF_Q - RF_ONE)


def _cross_word_phi(lat: QuotientGroup, word: tuple, u: tuple, q0: RatFunc,
                    memo: dict) -> dict:
    """Normal form of T_{s_{word}} * phi_u as a support dict."""
    if not word:
        return {(u, identity(lat.k)): RF_ONE}
    key = (word, u)
    hit = memo.get(key)
    if hit is not None:
        return hit
    out: dict = {}
    for (x, y), c in _cross_word_phi(lat, word[1:], u, q0, memo).items():
        for (x2, y2), c2 in bernstein_cross(lat, x, word[0], q0).support.items():
            # phi_{x2} * T_{y2} * T_y
            for z, cz in finite_product({y2: c * c2}, {y: RF_ONE}, lat.k,
                                        q0).items():
                add_term(out, (x2, z), cz)
    memo[key] = out
    return out


def ah_multiply(a: AffineHeckeElement, b: AffineHeckeElement,
                q0: RatFunc = RF_Q) -> AffineHeckeElement:
    """Normal-form product in H = C[Y] (x) H_0."""
    a._check_same(b)
    lat = a.lattice
    memo: dict = {}
    acc: dict = {}
    for (t, w), ca in a.support.items():
        word = reduced_word(w)
        for (u, v), cb in b.support.items():
            cab = ca * cb
            for (x, y), c in _cross_word_phi(lat, word, u, q0, memo).items():
                # phi_t * (phi_x * T_y) * T_v
                lab = tuple(ti + xi for ti, xi in zip(t, x))
                for z, cz in finite_product({y: cab * c}, {v: RF_ONE}, lat.k,
                                            q0).items():
                    add_term(acc, (lab, z), cz)
    return AffineHeckeElement(lat, acc, _checked=True)


def gg_module(cov: CoverSpec, ty: TypeSpec,
              bound: int = DEFAULT_ORBIT_BOUND) -> list:
    """The blocks (J, N_J) of the Gelfand-Graev module, from the orbit census."""
    if cov.kind not in ("kp", "savin"):
        raise ValueError("module decomposition asserted only for KP/Savin")
    xg = x_lambda(cov, ty)
    census = orbit_census(xg, bound=bound)
    if None in census:
        raise ValueError("%d orbits with a non-Young stabilizer" % census[None])
    rank = {J: factorial(ty.k) // young_order(J) for J in census}
    width = sum(rank.values())
    if width > MAX_HECKE_COLUMNS:
        raise WorkLimitExceeded(
            "the Hecke leg needs kernels of %d columns in all, over the "
            "limit of %d" % (width, MAX_HECKE_COLUMNS))
    total = sum(mult * rank[J] for J, mult in census.items())
    if total != xg.order:
        raise InternalDisagreement(
            "block ranks sum to %d, |X| = %d" % (total, xg.order))
    return list(census.items())


def whittaker_dim_hecke(cov: CoverSpec, ty: TypeSpec,
                        bound: int = DEFAULT_ORBIT_BOUND) -> int:
    """Sum of Hom-to-sign dimensions over the blocks, weighted by orbit count."""
    return sum(mult * sign_hom_dim(ty.k, J, ty.f)
               for J, mult in gg_module(cov, ty, bound=bound))


@dataclass
class TwPhiReport:
    """Expansion of T_w * phi_{-t} in the basis {phi_{-t'} * T_{w'}}.

    terms holds (t', w', coefficient) with the sign-flipped labels, so the
    report reads in the inverted-element coordinates: t' label means the
    basis element phi_{-t'} * T_{w'}.
    """
    w: Permutation
    t: tuple
    terms: list
    length_ok: bool
    ord_ok: bool
    nonneg_ok: bool
    failures: list = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return self.length_ok and self.ord_ok and self.nonneg_ok


def _nonneg_poly_in_q0(c: RatFunc, f: int) -> bool:
    """Is c a q0-polynomial with non-negative coefficients in powers of (q0-1)?

    The structure constants produced by the crossings are built from q0 and
    (q0 - 1) with non-negative multiplicities, so the shifted basis is the
    one in which positivity is visible: q0 - 1 itself must count as positive
    while -(q0 - 1) must not.  Membership in N[q0 - 1] implies non-negative
    integer values at every integer q0 >= 1, in particular at prime powers.
    """
    if c.den.degree != 0 or c.den.leading() != 1:
        return False
    # coefficients a_j of c as a polynomial in q0 = q^f
    a = []
    for deg, coef in enumerate(c.num.coeffs):
        if deg % f == 0:
            a.append(coef)
        elif coef != 0:
            return False            # not a polynomial in q0 at all
    # expand sum a_j*(u+1)^j in u = q0 - 1 by Horner
    shifted = IntPoly()
    u_plus_1 = IntPoly((1, 1))
    for coef in reversed(a):
        shifted = shifted * u_plus_1 + IntPoly.const(coef)
    return all(x >= 0 for x in shifted.coeffs)


def check_twphi_lemma(lat: QuotientGroup, w: Permutation, t, box, f: int = 1) -> TwPhiReport:
    """Expand T_w * phi_{-t} and check the three expected properties.

    box = (lo, hi) is the coordinate window the caller sweeps; t must lie in
    it (and in Y).  The checks: (a) support permutations no longer than w,
    (b) ord preserved on the sign-flipped labels, (c) coefficients are
    q0-polynomials with non-negative integer coefficients in powers of
    (q0 - 1) (see _nonneg_poly_in_q0).  Failures are recorded in the report,
    never silently dropped.  Expect (c) to hold for nondecreasing t; for a
    decreasing t the T_e coefficient of a single crossing is -(q0-1) and the
    report will say so.
    """
    t = tuple(t)
    lo, hi = box
    if not all(lo <= x <= hi for x in t):
        raise ValueError("t=%r outside the box window [%d, %d]" % (t, lo, hi))
    if not lat.contains(t):
        raise ValueError("t=%r is not in Y" % (t,))
    q0 = q_power(f)
    neg_t = tuple(-x for x in t)
    prod = ah_multiply(ah_t(lat, w), ah_phi(lat, neg_t), q0)
    terms = []
    for (u, wp), c in sorted(prod.support.items(),
                             key=lambda kw: (kw[0][0], kw[0][1].one_line)):
        terms.append((tuple(-x for x in u), wp, c))
    lw = length(w)
    failures = []
    length_ok = True
    ord_ok = True
    nonneg_ok = True
    base_ord = ord_sum(t)
    for tp, wp, c in terms:
        if length(wp) > lw:
            length_ok = False
            failures.append("length(%r) > length(w) in term %r" % (wp, tp))
        if ord_sum(tp) != base_ord:
            ord_ok = False
            failures.append("ord %d != %d at term %r" % (ord_sum(tp), base_ord, tp))
        if not _nonneg_poly_in_q0(c, f):
            nonneg_ok = False
            failures.append("coefficient %s at term (%r, %r) is not a "
                            "non-negative q0-polynomial" % (c, tp, wp.one_line))
    return TwPhiReport(w=w, t=t, terms=terms, length_ok=length_ok,
                       ord_ok=ord_ok, nonneg_ok=nonneg_ok, failures=failures)
