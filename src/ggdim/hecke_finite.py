"""The finite Hecke algebra H_0 = H(S_k, q0) and its induced sign modules.

H_0 has vector basis {T_w : w in S_k} over Q(q), with multiplication fixed by

    T_w * T_{s} = T_{ws}                     if length(ws) > length(w),
    T_w * T_{s} = q0*T_{ws} + (q0-1)*T_w     otherwise,

extended along reduced words; equivalently (T_s + 1)(T_s - q0) = 0 plus the
braid relations.  The parameter q0 is passed explicitly to the operations (it
is q^f for the cover at hand, default the monomial q), so elements themselves
are plain linear combinations and carry no algebra state.  finite_product is
the one place where this rule is applied: h0_multiply wraps it, and the
affine algebra multiplies its finite parts with it.  Coefficients accumulate
through coeff.add_term.

For a composition J of k, the parabolic subalgebra H_J is spanned by the T_u
with u in the Young subgroup W_J, and eps_J denotes its sign character,
T_u -> (-1)^length(u).  The induced module H_0 tensor_{H_J} eps_J has basis
{T_x (x) 1 : x a minimal coset representative of x W_J}.  Each simple T_s
acts on that basis by Deodhar's lemma (Humphreys, Reflection Groups and
Coxeter Groups, section 7; Geck-Pfeiffer, section 2.1):

    T_s . x = q0*sx + (q0-1)*x     if sx < x,
    T_s . x = sx                   if sx > x and sx is minimal in sx W_J,
    T_s . x = -x                   otherwise (then sx = x*s' with s' in J),

so a simple reflection costs O(dim), and a general T_w acts letter by letter
along a reduced word of w.

hom_to_sign_dim computes dim Hom(M, eps) for such a module M, i.e. the space
of linear functionals f with f(T_s . v) = -f(v) for every simple s, by exact
kernel computation over Q(q) on the sparse constraint rows that the rule
above gives (at most two entries each).

induced_sign_module memoises the module on (k, J) and sign_hom_dim its Hom
dimension on (k, J, f) for the life of the process; their cache_info()
counts hits and misses and cache_clear() empties them.

The checks of the relations that `ggdim verify`, the acceptance criteria and
the unit tests share: quadratic_defect, braid_relation_holds, associative_on
(the last multiplies by *, so it checks the affine algebra too).
"""

from __future__ import annotations

import functools
from math import factorial

from .coeff import (
    RF_ONE, RF_Q, RF_ZERO, RatFunc, RFMatrix, add_term, kernel_basis, q_power,
)
from .errors import InternalDisagreement
from .symgroup import (
    Permutation, identity, length, min_coset_reps, reduced_word, simple,
    young_order, young_subgroup,
)

RF_MINUS_ONE = RatFunc(-1)


class FiniteHeckeElement:
    """Linear combination of basis elements T_w, stored sparsely."""

    __slots__ = ("k", "support")

    def __init__(self, k: int, support=None):
        self.k = k
        clean = {}
        for w, c in (support or {}).items():
            if not isinstance(w, Permutation) or w.k != k:
                raise ValueError("bad basis label %r for k=%d" % (w, k))
            if c:
                clean[w] = c
        self.support = clean

    @staticmethod
    def basis(w: Permutation) -> "FiniteHeckeElement":
        return FiniteHeckeElement(w.k, {w: RF_ONE})

    @staticmethod
    def unit(k: int) -> "FiniteHeckeElement":
        return FiniteHeckeElement(k, {identity(k): RF_ONE})

    def __add__(self, other: "FiniteHeckeElement") -> "FiniteHeckeElement":
        if self.k != other.k:
            raise ValueError("rank mismatch: %d vs %d" % (self.k, other.k))
        out = dict(self.support)
        for w, c in other.support.items():
            add_term(out, w, c)
        return FiniteHeckeElement(self.k, out)

    def scale(self, c) -> "FiniteHeckeElement":
        if not c:
            return FiniteHeckeElement(self.k, {})
        return FiniteHeckeElement(self.k, {w: x * c for w, x in self.support.items()})

    def __sub__(self, other):
        return self + other.scale(RF_MINUS_ONE)

    def __mul__(self, other):
        return h0_multiply(self, other)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FiniteHeckeElement)
                and self.k == other.k and self.support == other.support)

    def is_zero(self) -> bool:
        return not self.support

    def __repr__(self):
        if not self.support:
            return "FiniteHeckeElement(0)"
        terms = sorted(self.support.items(), key=lambda it: (length(it[0]), it[0].one_line))
        return " + ".join("(%s)*T%s" % (c, list(w.one_line)) for w, c in terms)


def _right_mult_simple(k: int, support: dict, i: int, q0: RatFunc) -> dict:
    """Multiply a support dict by T_{s_i} on the right."""
    s = simple(i, k)
    q0m1 = q0 - RF_ONE
    out: dict = {}
    for w, c in support.items():
        ws = w * s
        if w(i) < w(i + 1):          # length goes up
            add_term(out, ws, c)
        else:
            add_term(out, ws, c * q0)
            add_term(out, w, c * q0m1)
    return out


def finite_product(a: dict, b: dict, k: int, q0: RatFunc) -> dict:
    """Product of two support dicts of H(S_k, q0), each T_v of b applied to a
    on the right letter by letter along the reduced word of v."""
    acc: dict = {}
    for v, cb in b.items():
        cur = a
        for i in reduced_word(v):
            cur = _right_mult_simple(k, cur, i, q0)
        for w, c in cur.items():
            add_term(acc, w, c * cb)
    return acc


def h0_multiply(a: FiniteHeckeElement, b: FiniteHeckeElement,
                q0: RatFunc = RF_Q) -> FiniteHeckeElement:
    """Product in H_0 with parameter q0."""
    if a.k != b.k:
        raise ValueError("rank mismatch: %d vs %d" % (a.k, b.k))
    return FiniteHeckeElement(a.k, finite_product(a.support, b.support, a.k, q0))


def quadratic_defect(i: int, k: int, q0: RatFunc = RF_Q) -> FiniteHeckeElement:
    """T_s*T_s - (q0-1)*T_s - q0 for s = s_i in H(S_k, q0).

    Zero iff the quadratic relation holds at s_i.
    """
    ts = FiniteHeckeElement.basis(simple(i, k))
    return h0_multiply(ts, ts, q0) - (
        ts.scale(q0 - RF_ONE) + FiniteHeckeElement.unit(k).scale(q0))


def braid_relation_holds(i: int, k: int, q0: RatFunc = RF_Q) -> bool:
    """T_s T_t T_s = T_t T_s T_t in H(S_k, q0) for s = s_i, t = s_{i+1}."""
    a = FiniteHeckeElement.basis(simple(i, k))
    b = FiniteHeckeElement.basis(simple(i + 1, k))
    return h0_multiply(h0_multiply(a, b, q0), a, q0) == \
        h0_multiply(h0_multiply(b, a, q0), b, q0)


def associative_on(triples) -> bool:
    """(a*b)*c = a*(b*c) for every (a, b, c) in triples.

    The elements multiply by *, at q0 = q, so the triples may come from
    H(S_k, q) or from the affine algebra of hecke_affine.
    """
    return all((a * b) * c == a * (b * c) for a, b, c in triples)


# the three cases of Deodhar's lemma for T_s . x
DESCENT = 0       # sx < x:            q0*sx + (q0-1)*x
ASCENT = 1        # sx > x, sx in W^J: sx
SIGN = 2          # sx > x, sx not in W^J: -x


class InducedSignModule:
    """H_0 tensor_{H_J} eps_J with its minimal-coset-representative basis.

    simple_action[i-1][n] = (case, target) describes T_{s_i} on basis vector
    n: case is DESCENT, ASCENT or SIGN, target the index of s_i*x (n itself
    for SIGN).
    """

    __slots__ = ("k", "J", "basis", "dim", "simple_action")

    def __init__(self, k: int, J):
        J = tuple(J)
        if sum(J) != k or any(p < 1 for p in J):
            raise ValueError("not a composition of %d: %r" % (k, J))
        self.k = k
        self.J = J
        self.basis = tuple(min_coset_reps(k, young_subgroup(J)))
        self.dim = len(self.basis)
        if self.dim != factorial(k) // young_order(J):
            raise InternalDisagreement(
                "%d minimal coset representatives for J=%s, expected %d"
                % (self.dim, J, factorial(k) // young_order(J)))
        index = {x: n for n, x in enumerate(self.basis)}
        actions = []
        for i in range(1, k):
            s = simple(i, k)
            table = []
            for n, x in enumerate(self.basis):
                ol = x.one_line
                sx = s * x
                if ol.index(i) > ol.index(i + 1):
                    table.append((DESCENT, index[sx]))
                elif sx in index:
                    table.append((ASCENT, index[sx]))
                else:
                    table.append((SIGN, n))
            actions.append(tuple(table))
        self.simple_action = tuple(actions)

    def act_simple(self, i: int, vec, q0: RatFunc = RF_Q) -> list:
        """T_{s_i} applied to a coefficient vector indexed by the basis."""
        q0m1 = q0 - RF_ONE
        out = [RF_ZERO] * self.dim
        for n, (case, j) in enumerate(self.simple_action[i - 1]):
            c = vec[n]
            if not c:
                continue
            if case == DESCENT:
                out[j] = out[j] + c * q0
                out[n] = out[n] + c * q0m1
            elif case == ASCENT:
                out[j] = out[j] + c
            else:
                out[n] = out[n] - c
        return out

    def __repr__(self):
        return "InducedSignModule(k=%d, J=%s, dim=%d)" % (self.k, self.J, self.dim)


@functools.cache
def induced_sign_module(k: int, J: tuple) -> InducedSignModule:
    """The module for (k, J), built once per process (J a tuple)."""
    return InducedSignModule(k, J)


def module_act(h: FiniteHeckeElement, m: InducedSignModule, vec,
               q0: RatFunc = RF_Q) -> list:
    """Left action of h on a coefficient vector indexed by m.basis.

    T_w = T_{s_a} * ... * T_{s_z} along the reduced word (a, ..., z) of w,
    so the letters act on the vector right to left.
    """
    if h.k != m.k:
        raise ValueError("rank mismatch: %d vs %d" % (h.k, m.k))
    if len(vec) != m.dim:
        raise ValueError("vector length %d does not match dim %d" % (len(vec), m.dim))
    out = [RF_ZERO] * m.dim
    for w, c in h.support.items():
        cur = list(vec)
        for i in reversed(reduced_word(w)):
            cur = m.act_simple(i, cur, q0)
        out = [a + c * b for a, b in zip(out, cur)]
    return out


def action_matrix(m: InducedSignModule, h: FiniteHeckeElement,
                  q0: RatFunc = RF_Q) -> list:
    """Matrix of h acting on m, columns indexed by basis vectors."""
    cols = []
    for n in range(m.dim):
        e = [RF_ZERO] * m.dim
        e[n] = RF_ONE
        cols.append(module_act(h, m, e, q0))
    return [[cols[c][r] for c in range(m.dim)] for r in range(m.dim)]


def hom_to_sign_dim(m: InducedSignModule, q0: RatFunc = RF_Q) -> int:
    """dim of {f linear : f(T_s . v) = -f(v) for all simple s}, over Q(q).

    One constraint per simple reflection s and basis vector x:
    f(T_s . x) + f(x) = 0.  By Deodhar's lemma that row is
    q0*f(sx) + q0*f(x) for a descent, f(sx) + f(x) for an ascent inside W^J,
    and zero (no constraint) when T_s . x = -x.

    Basis vector n is column dim - 1 - n, so the longest coset
    representatives come first.  A column permutation leaves the rank,
    hence the dimension, unchanged.  kernel_basis picks the column with the
    fewest live rows and breaks ties towards the lowest column.  Both orders
    then make the same live-row updates (13465 on the free module of S_6,
    138673 on that of S_7), but in this one fewer of the products have a
    factor 1, which costs no allocation: on free S_7, 64647 products of
    other entries against 81492 in the length-ascending order, and
    0.48-0.61 s against 0.57-0.68 s (three runs each).
    """
    last = m.dim - 1
    rows = []
    for table in m.simple_action:
        for n, (case, j) in enumerate(table):
            if case == DESCENT:
                rows.append({last - j: q0, last - n: q0})
            elif case == ASCENT:
                rows.append({last - j: RF_ONE, last - n: RF_ONE})
    return len(kernel_basis(RFMatrix.sparse(rows, m.dim)))


@functools.cache
def sign_hom_dim(k: int, J: tuple, f: int) -> int:
    """dim Hom(H_0 tensor_{H_J} eps_J, sign) at q0 = q^f, once per process."""
    return hom_to_sign_dim(induced_sign_module(k, J), q_power(f))
