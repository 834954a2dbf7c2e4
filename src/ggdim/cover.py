"""Cover parameters, the finite quotient X(lambda), and orbit combinatorics.

A degree-n cover of GL_r is described here by the pair of integers (c, d)
weighting the two basic torus 2-cocycles (determinant type and block type);
d = 1 gives the Kazhdan-Patterson family, (c, d) = (-1, 2) the Savin cover.
A simple type inside GL_r is described by the block count k (so r = k*r0)
and a twist order l0 dividing n.

Everything this package ultimately counts lives in the finite abelian group

    X(lambda) = T(b) / T(b, rho),

where T(b) = Z^k records block valuations of diagonal torus elements
diag(w^{s_1} I_{r0}, ..., w^{s_k} I_{r0}) and T(b, rho) is the sublattice cut
out by the k congruences

    l0 * [ (s_1+...+s_k)*(2c+d)*r0 - s_i*d ] = 0  (mod n),   i = 1..k.

The derived constants are

    n0 = n / gcd(n, (2c+d)*r0*l0, d*l0),
    d0 = n / gcd(n, l0*(2cr + dr - d)),

with d0 | n0 | n; n0*Z^k (the lattice T0(b)) always sits inside T(b, rho).

The congruence system is the primary definition: x_lambda solves it by Smith
normal form, yielding the invariant factors of X(lambda), a projection
Z^k -> X(lambda) with kernel exactly T(b, rho), and an integer-matrix model
of the coordinate-permutation action of S_k on the quotient.  The structural
formulas |X| = n0^(k-1)*d0 (KP) and n0^k (Savin) are asserted against it, and
the generator description of T(b, rho) is checked by tests rather than taken
as the definition, so the Generic kind is supported by the same code path.

Orbit enumeration is exhaustive (vectorised over the element table) and acts
only through the k-1 simple reflections s_i: their images of every element
are computed once, and the canonical representative of an orbit, its
lexicographically smallest element in projected coordinates, is found by
propagating minimum codes along those involutions until nothing changes
(they generate S_k, so the fixed point is the minimum over each orbit).  The
recorded stabilizer is that of the first orbit element (in canonical order)
whose stabilizer is a standard Young subgroup, stored as the composition of
its block sizes.  The s_i fixing an element generate a Young subgroup inside
its stabilizer, so the stabilizer is Young exactly when that subgroup's order
is k!/|orbit|.  Orbits where no such element exists are flagged instead of
guessed (not observed for KP/Savin, conceivable for Generic).

QuotientGroup is the one object for the lattice T(b, rho) and its quotient:
besides the Smith data it refuses a lattice that is not full rank or not
S_k-stable (checked on the generators s_1 and (1 2 ... k) of S_k), tests
membership (contains), and gives the coroot multiplier
that the Bernstein presentation over Y = T(b, rho) needs, as the order of
the class of e_1 - e_2 in X(lambda).  quotient_group keeps one object per
HNF basis and process, so instances sharing a lattice share its orbit census
(how many orbits carry each stabilizer composition), which is computed on
first use and kept on the object; orbits() itself is not memoised.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, lcm

import numpy as np

from ._intmat import (
    hermite_row_basis, hnf_contains, mat_mul, mat_vec, smith_normal_form,
)
from .errors import InternalDisagreement
from .symgroup import Permutation, act, simple, young_composition, young_order

KIND_KP = "kp"
KIND_SAVIN = "savin"
KIND_GENERIC = "generic"

DEFAULT_ORBIT_BOUND = 10 ** 6
MAX_ORBIT_K = 63        # one int64 bit per simple reflection in orbits()


@dataclass(frozen=True)
class CoverSpec:
    """Degree-n cover with cocycle exponents (c, d)."""
    kind: str
    n: int
    c: int
    d: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("cover degree n must be >= 1, got %d" % self.n)
        if self.kind == KIND_KP:
            if self.d != 1:
                raise ValueError("KP covers have d = 1")
        elif self.kind == KIND_SAVIN:
            if (self.c, self.d) != (-1, 2):
                raise ValueError("the Savin cover has (c, d) = (-1, 2)")
        elif self.kind != KIND_GENERIC:
            raise ValueError("unknown cover kind %r" % (self.kind,))


def kp_cover(n: int, c: int) -> CoverSpec:
    return CoverSpec(KIND_KP, n, c, 1)


def savin_cover(n: int) -> CoverSpec:
    return CoverSpec(KIND_SAVIN, n, -1, 2)


def generic_cover(n: int, c: int, d: int) -> CoverSpec:
    return CoverSpec(KIND_GENERIC, n, c, d)


@dataclass(frozen=True)
class TypeSpec:
    """Block shape of a simple type: r = k*r0 blocks of size r0, twist order l0."""
    r: int
    k: int
    l0: int = 1
    f: int = 1

    def __post_init__(self):
        for name in ("r", "k", "l0", "f"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be >= 1" % name)
        if self.r % self.k != 0:
            raise ValueError("k=%d does not divide r=%d" % (self.k, self.r))


@dataclass(frozen=True)
class DerivedParams:
    r0: int
    n0: int
    d0: int


def divisors(m: int) -> list[int]:
    """The positive divisors of m, i.e. the twist orders l0 with l0 | m."""
    return [d for d in range(1, m + 1) if m % d == 0]


def derive_params(cov: CoverSpec, ty: TypeSpec) -> DerivedParams:
    """The constants (r0, n0, d0); raises if l0 does not divide n."""
    if cov.n % ty.l0 != 0:
        raise ValueError("l0=%d does not divide n=%d" % (ty.l0, cov.n))
    r0 = ty.r // ty.k
    n, c, d, l0, r = cov.n, cov.c, cov.d, ty.l0, ty.r
    n0 = n // gcd(n, (2 * c + d) * r0 * l0, d * l0)
    d0 = n // gcd(n, l0 * (2 * c * r + d * r - d))
    if n0 % d0 or n % n0 or n % d0:
        raise InternalDisagreement(
            "derived constants violate d0 | n0 | n: n=%d, n0=%d, d0=%d"
            % (n, n0, d0))
    return DerivedParams(r0=r0, n0=n0, d0=d0)


def ord_sum(t) -> int:
    """Coordinate sum of a torus exponent vector (permutation invariant)."""
    return sum(t)


def _congruence_rows(cov: CoverSpec, ty: TypeSpec) -> list:
    r0 = ty.r // ty.k
    a = ty.l0 * (2 * cov.c + cov.d) * r0
    b = ty.l0 * cov.d
    return [[a - (b if i == j else 0) for j in range(ty.k)]
            for i in range(ty.k)]


def in_T_brho(cov: CoverSpec, ty: TypeSpec, t) -> bool:
    """Does the exponent vector t satisfy all k defining congruences mod n?"""
    if len(t) != ty.k:
        raise ValueError("expected a vector of length k=%d" % ty.k)
    derive_params(cov, ty)          # validates the pairing
    rows = _congruence_rows(cov, ty)
    return all(sum(row[j] * t[j] for j in range(ty.k)) % cov.n == 0
               for row in rows)


class QuotientGroup:
    """X = Z^k / Y for a full-rank S_k-stable lattice Y, with its S_k action.

    The constructor takes the HNF basis of Y (hermite_row_basis output, as
    quotient_group passes it) and stores it as relation_lattice without
    reducing it again; contains tests membership in Y.  project maps an
    exponent vector to its canonical tuple of residues (coordinates along the
    Smith basis, reduced mod the invariant factors).  The kernel of project
    is exactly Y.
    coroot_multiplier is the order of the class of e_1 - e_2 in X, i.e. the
    least c > 0 with c*(e_1 - e_2) in Y; S_k-stability makes it the same for
    every e_i - e_{i+1}.  census is the orbit census, computed on first use
    and kept on the object; quotient_group keeps one object per lattice.
    """

    def __init__(self, k: int, hnf_basis: tuple):
        self.k = k
        self.relation_lattice = hnf_basis
        if len(self.relation_lattice) != k:
            raise ValueError("relation lattice does not have full rank %d" % k)
        # S_k-stability, which perm_matrix presumes: s_1 and the k-cycle,
        # which generate S_k, map every basis vector into Y
        if k > 1:
            gens = (simple(1, k), Permutation(tuple(range(2, k + 1)) + (1,)))
            if not all(self.contains(act(g, row)) for g in gens
                       for row in self.relation_lattice):
                raise ValueError("relation lattice is not S_k-stable")
        # Smith form of the basis matrix B (basis vectors as columns)
        b = [[self.relation_lattice[j][i] for j in range(k)] for i in range(k)]
        u, uinv, dd, _v = smith_normal_form(b)
        self._u = u
        self._uinv = uinv
        self.invariant_factors = tuple(dd[i][i] for i in range(k))
        if any(f < 1 for f in self.invariant_factors):
            raise InternalDisagreement(
                "Smith form of a full-rank lattice has invariant factors %s"
                % (self.invariant_factors,))
        self.order = 1
        for f in self.invariant_factors:
            self.order *= f
        # the order of the class of e_1 - e_2 (1 when k = 1: no roots)
        root = self.project((1, -1) + (0,) * (k - 2)) if k > 1 else ()
        self.coroot_multiplier = lcm(*(f // gcd(f, x) for x, f in
                                       zip(root, self.invariant_factors)))

    def project(self, t) -> tuple:
        if len(t) != self.k:
            raise ValueError("expected a vector of length k=%d" % self.k)
        raw = mat_vec(self._u, t)
        return tuple(x % f for x, f in zip(raw, self.invariant_factors))

    def contains(self, t) -> bool:
        """Is t in the relation lattice (i.e. projects to 0)?"""
        return hnf_contains(self.relation_lattice, t)

    def perm_matrix(self, w) -> list:
        """Integer matrix of the action of w on projected coordinates."""
        # U times the permutation matrix of w is U with its columns permuted
        up = [[row[w(j + 1) - 1] for j in range(self.k)] for row in self._u]
        return mat_mul(up, self._uinv)

    @functools.cached_property
    def census(self) -> tuple:
        """(stabilizer composition, orbit count) pairs from one orbits() call."""
        recs = orbits(self, bound=self.order)
        return tuple(Counter(rec.stabilizer for rec in recs).items())

    def __repr__(self):
        return "QuotientGroup(k=%d, order=%d, factors=%s)" % (
            self.k, self.order, list(self.invariant_factors))


def quotient_group(rows) -> QuotientGroup:
    """Z^k / <rows> for rows of length k, one object per lattice and process.

    Memoised on the HNF basis of the rows; cache_info() and cache_clear() of
    _quotient count and empty the memo.
    """
    return _quotient(len(rows[0]), hermite_row_basis(rows))


@functools.cache
def _quotient(k: int, basis: tuple) -> QuotientGroup:
    return QuotientGroup(k, basis)


def x_lambda(cov: CoverSpec, ty: TypeSpec) -> QuotientGroup:
    """The quotient X(lambda), from the congruence system by Smith reduction."""
    dp = derive_params(cov, ty)
    k, n = ty.k, cov.n
    a = _congruence_rows(cov, ty)
    # solution lattice of A s = 0 (mod n): with U A V = D diagonal,
    # s = V z where d_i z_i = 0 (mod n), i.e. z_i in (n/gcd(n, d_i)) Z
    _u, _uinv, dd, v = smith_normal_form(a)
    mult = [n // gcd(n, dd[i][i]) for i in range(k)]
    basis_rows = [[v[i][j] * mult[j] for i in range(k)] for j in range(k)]
    xg = quotient_group(basis_rows)
    if cov.kind == KIND_KP:
        expect = dp.n0 ** (k - 1) * dp.d0
    elif cov.kind == KIND_SAVIN:
        expect = dp.n0 ** k
    else:
        return xg
    if xg.order != expect:
        raise InternalDisagreement(
            "%s order formula gives %d, the Smith form %d"
            % (cov.kind, expect, xg.order))
    return xg


@dataclass(frozen=True)
class OrbitRecord:
    """One S_k-orbit on X(lambda).

    stabilizer is the composition of the point stabilizer of the first orbit
    element (in canonical order) whose stabilizer is standard Young; when no
    orbit element has a Young stabilizer it is None and young is False (the
    stabilizer order is still recorded).
    """
    representative: tuple
    size: int
    stabilizer: tuple | None
    stabilizer_order: int
    young: bool


def _check_enumerable(xg: QuotientGroup, bound: int) -> None:
    if xg.order > bound:
        raise ValueError("enumeration bound exceeded: |X| = %d > %d"
                         % (xg.order, bound))
    if xg.k > MAX_ORBIT_K:
        raise ValueError("orbit enumeration handles k <= %d, got k=%d"
                         % (MAX_ORBIT_K, xg.k))


def orbits(xg: QuotientGroup, bound: int = DEFAULT_ORBIT_BOUND) -> list:
    """Exhaustive S_k-orbit decomposition of X(lambda).

    Elements are encoded as mixed-radix codes over the invariant factors
    (big-endian, so code order = lexicographic order on projected tuples);
    each simple reflection acts through an integer matrix on projected
    coordinates and the canonical representative of an orbit is its smallest
    code, reached by propagating minima along the simple reflections.
    """
    _check_enumerable(xg, bound)
    k = xg.k
    factors = np.array(xg.invariant_factors, dtype=np.int64)
    weights = np.ones(k, dtype=np.int64)
    for i in range(k - 2, -1, -1):
        weights[i] = weights[i + 1] * factors[i + 1]
    n_el = xg.order

    # element table: row ix = digits of code ix
    codes = np.arange(n_el, dtype=np.int64)
    table = (codes[:, None] // weights[None, :]) % factors[None, :]

    # codes of s_i . x; matrix rows reduced mod their output factor keep the
    # int64 products below k * max(factor)^2
    imgs = []
    for i in range(1, k):
        mat = np.array(xg.perm_matrix(simple(i, k)), dtype=np.int64)
        mat %= factors[:, None]
        imgs.append(((table @ mat.T) % factors[None, :]) @ weights)

    canon = codes.copy()
    while True:
        before = canon.copy()
        for img in imgs:
            np.minimum(canon, canon[img], out=canon)
        if np.array_equal(before, canon):
            break
    reps, counts = np.unique(canon, return_counts=True)
    orbit_of = np.searchsorted(reps, canon)

    # bit i-1 of fixed[x] says s_i fixes x; the stabilizer of x is Young iff
    # the subgroup those s_i generate has order k!/|orbit|
    fixed = np.zeros(n_el, dtype=np.int64)
    for i, img in enumerate(imgs):
        fixed |= (img == codes).astype(np.int64) << i
    masks, mask_of = np.unique(fixed, return_inverse=True)
    comps = [young_composition([i for i in range(1, k) if mask >> (i - 1) & 1],
                               k) for mask in masks.tolist()]
    full = factorial(k)
    # orbit size a Young stabilizer of each mask implies (0: none fits in X)
    sizes = (full // young_order(c) for c in comps)
    young_size = np.array([s if s <= n_el else 0 for s in sizes], dtype=np.int64)
    young = young_size[mask_of] == counts[orbit_of]
    # first Young element of each orbit in code order
    young_orbits, first = np.unique(orbit_of[young], return_index=True)
    chosen = dict(zip(young_orbits.tolist(), codes[young][first].tolist()))

    rep_digits = ((reps[:, None] // weights[None, :]) % factors[None, :]).tolist()
    records = []
    for oi, size in enumerate(counts.tolist()):
        code = chosen.get(oi)
        comp = None if code is None else comps[mask_of[code]]
        records.append(OrbitRecord(
            representative=tuple(rep_digits[oi]),
            size=size,
            stabilizer=comp,
            stabilizer_order=full // size,
            young=comp is not None,
        ))
    return records


def orbit_census(xg: QuotientGroup, bound: int = DEFAULT_ORBIT_BOUND) -> dict:
    """Number of orbits per stabilizer composition (None: not Young).

    A fresh dict of xg.census; the bound and k refusals of orbits() run
    before every lookup.
    """
    _check_enumerable(xg, bound)
    return dict(xg.census)


def whittaker_dim_closed(cov: CoverSpec, ty: TypeSpec) -> int:
    """Closed-form orbit count: C(k+n0-1, k) * d0/n0 for KP, C(k+n0-1, k) for Savin."""
    dp = derive_params(cov, ty)
    if cov.kind == KIND_KP:
        val = Fraction(comb(ty.k + dp.n0 - 1, ty.k) * dp.d0, dp.n0)
    elif cov.kind == KIND_SAVIN:
        val = Fraction(comb(ty.k + dp.n0 - 1, ty.k))
    else:
        raise ValueError("no closed form asserted for kind %r" % (cov.kind,))
    if val.denominator != 1 or val <= 0:
        raise InternalDisagreement("closed form is not a positive integer: %s" % val)
    return int(val)


def verify_kp_lemma(cov: CoverSpec, ty: TypeSpec) -> bool:
    """Check n0/d0 = gcd(n/l0, 2cr + r - 1) and gcd(n0/d0, k) = 1."""
    if cov.kind != KIND_KP:
        raise ValueError("KP-only lemma")
    dp = derive_params(cov, ty)
    lhs = dp.n0 // dp.d0
    rhs = gcd(cov.n // ty.l0, 2 * cov.c * ty.r + ty.r - 1)
    return lhs == rhs and gcd(lhs, ty.k) == 1


def select_representatives(cov: CoverSpec, ty: TypeSpec) -> list:
    """Sorted-box orbit representatives in T(b).

    All nondecreasing tuples in {0..n0-1}^k for Savin; for KP the subset with
    coordinate sum mod n0 in {0..d0-1}.  Their images in X(lambda) meet every
    S_k-orbit exactly once (tested, not assumed).
    """
    dp = derive_params(cov, ty)
    if cov.kind == KIND_KP:
        return [t for t in itertools.combinations_with_replacement(range(dp.n0), ty.k)
                if ord_sum(t) % dp.n0 < dp.d0]
    if cov.kind == KIND_SAVIN:
        return list(itertools.combinations_with_replacement(range(dp.n0), ty.k))
    raise ValueError("no representative rule asserted for kind %r" % (cov.kind,))


def kp_class_test(cov: CoverSpec, ty: TypeSpec, t1, t2) -> bool:
    """For t1 ~ t2 mod T(b, rho): is t1 - t2 in T0(b) = n0*Z^k?

    Raises if t1 and t2 are not equivalent.  The return value must agree with
    the congruence ord(t1) = ord(t2) mod n0; that agreement is what the
    verifier checks.
    """
    if cov.kind != KIND_KP:
        raise ValueError("KP-only test")
    dp = derive_params(cov, ty)
    diff = tuple(a - b for a, b in zip(t1, t2))
    if not in_T_brho(cov, ty, diff):
        raise ValueError("t1 and t2 are not equivalent mod T(b, rho)")
    return all(x % dp.n0 == 0 for x in diff)
