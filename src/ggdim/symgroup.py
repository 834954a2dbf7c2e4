"""The symmetric group S_k as a Weyl group: lengths, reduced words, parabolics.

Conventions, fixed once here and shared by every other module:

  * a Permutation stores its one-line form, w(i) = one_line[i-1], values 1..k;
  * composition w * w' means "apply w' first", (w*w')(i) = w(w'(i));
  * the action on integer vectors permutes coordinates by (w.v)_i = v_{w^{-1}(i)},
    which makes act(w, act(w', v)) = act(w*w', v) a left action;
  * reduced words are lexicographically smallest, with the leftmost factor
    applied last, so the word (2, 1) stands for s_2 * s_1.

Simple reflections are indexed 1..k-1, s_i swapping i and i+1.  A Young
subgroup is given by a composition (k_1,...,k_l) of k and realised as the
standard parabolic generated by the simple indices that are not partial sums
of the composition.
"""

from __future__ import annotations

import itertools
from math import factorial

from .errors import InternalDisagreement


class Permutation:
    """Element of S_k in one-line notation (values 1..k)."""

    __slots__ = ("one_line",)

    def __init__(self, one_line):
        ol = tuple(one_line)
        k = len(ol)
        if sorted(ol) != list(range(1, k + 1)):
            raise ValueError("not a permutation of 1..%d: %r" % (k, ol))
        self.one_line = ol

    @property
    def k(self) -> int:
        return len(self.one_line)

    def __call__(self, i: int) -> int:
        return self.one_line[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # apply other first
        if self.k != other.k:
            raise ValueError("size mismatch")
        out = Permutation.__new__(Permutation)
        out.one_line = tuple(self.one_line[j - 1] for j in other.one_line)
        return out

    def inverse(self) -> "Permutation":
        inv = [0] * self.k
        for i, v in enumerate(self.one_line):
            inv[v - 1] = i + 1
        out = Permutation.__new__(Permutation)
        out.one_line = tuple(inv)
        return out

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.one_line))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.one_line == other.one_line

    def __hash__(self):
        return hash(self.one_line)

    def __repr__(self) -> str:
        return "Permutation(%s)" % (list(self.one_line),)


def identity(k: int) -> Permutation:
    return Permutation(range(1, k + 1))


def simple(i: int, k: int) -> Permutation:
    """The simple reflection s_i in S_k, swapping i and i+1."""
    if not 1 <= i <= k - 1:
        raise ValueError("simple reflection index %d out of range for k=%d" % (i, k))
    ol = list(range(1, k + 1))
    ol[i - 1], ol[i] = ol[i], ol[i - 1]
    return Permutation(ol)


def all_permutations(k: int):
    """All of S_k in lexicographic one-line order."""
    return [Permutation(p) for p in itertools.permutations(range(1, k + 1))]


def length(w: Permutation) -> int:
    """Coxeter length = inversion count."""
    ol = w.one_line
    n = 0
    for i in range(len(ol)):
        for j in range(i + 1, len(ol)):
            if ol[i] > ol[j]:
                n += 1
    return n


def reduced_word(w: Permutation) -> tuple:
    """Lexicographically smallest reduced word, leftmost factor applied last.

    Peels letters off the left: the possible first letters are the left
    descents of w, and taking the smallest at each step gives the lex-min
    word.
    """
    word = []
    cur = w
    inv = cur.inverse().one_line
    while True:
        k = len(inv)
        i = next((i for i in range(1, k) if inv[i - 1] > inv[i]), None)
        if i is None:
            break
        word.append(i)
        # cur <- s_i * cur ; its inverse swaps entries i-1, i
        inv = list(inv)
        inv[i - 1], inv[i] = inv[i], inv[i - 1]
    return tuple(word)


def young_subgroup(c) -> frozenset:
    """Simple indices generating S_{k_1} x ... x S_{k_l} inside S_k.

    These are the i in 1..k-1 that are not partial sums of the composition.
    """
    parts = tuple(c)
    if not parts or any(p < 1 for p in parts):
        raise ValueError("composition parts must be positive: %r" % (parts,))
    k = sum(parts)
    cuts = set(itertools.accumulate(parts))
    return frozenset(i for i in range(1, k) if i not in cuts)


def young_composition(J, k: int) -> tuple:
    """The composition of k whose Young subgroup the simple indices J generate."""
    J = set(J)
    parts, run = [], 1
    for i in range(1, k):
        if i in J:
            run += 1
        else:
            parts.append(run)
            run = 1
    parts.append(run)
    return tuple(parts)


def young_order(c) -> int:
    """Order of the Young subgroup for a composition."""
    out = 1
    for p in c:
        out *= factorial(p)
    return out


def min_coset_reps(k: int, J) -> list:
    """Minimal-length representatives of the cosets x W_J, sorted by length.

    Ties are broken by one-line form.  x is minimal in x W_J iff
    x(j) < x(j+1) for every j in J, i.e. its one-line form increases on each
    block of the composition that J cuts 1..k into.  The representatives are
    therefore the ordered set partitions of the values 1..k into blocks of
    those sizes (Bjorner-Brenti, Combinatorics of Coxeter Groups, section
    2.4), generated directly instead of by filtering all k! permutations.
    """
    reps = [Permutation(ol) for ol in _ordered_set_partitions(
        tuple(range(1, k + 1)), young_composition(J, k))]
    reps.sort(key=lambda w: (length(w), w.one_line))
    return reps


def _ordered_set_partitions(values: tuple, sizes: tuple):
    """Concatenations of increasing blocks of the given sizes that use every value once."""
    if not sizes:
        yield ()
        return
    for block in itertools.combinations(values, sizes[0]):
        rest = tuple(v for v in values if v not in block)
        for tail in _ordered_set_partitions(rest, sizes[1:]):
            yield block + tail


def parabolic_decompose(w: Permutation, J):
    """Factor w = x*u with u in W_J, x minimal in xW_J, lengths adding."""
    J = sorted(J)
    k = w.k
    x = w
    u = identity(k)
    moved = True
    while moved:
        moved = False
        for j in J:
            if x(j) > x(j + 1):
                s = simple(j, k)
                x = x * s
                u = s * u
                moved = True
                break
    if length(w) != length(x) + length(u):
        raise InternalDisagreement(
            "w = x*u is not length-additive for w=%r, J=%r" % (w, J))
    return x, u


def act(w: Permutation, v):
    """Permute coordinates: (w.v)_i = v_{w^{-1}(i)}."""
    ol = w.one_line
    if len(v) != len(ol):
        raise ValueError("vector length %d does not match k=%d" % (len(v), len(ol)))
    out = [0] * len(v)
    for j, wj in enumerate(ol):
        out[wj - 1] = v[j]
    return tuple(out)
