import itertools
import random
from math import factorial

import pytest

from ggdim.symgroup import (
    Permutation, act, all_permutations, identity, length, min_coset_reps,
    parabolic_decompose, reduced_word, simple, young_composition, young_order,
    young_subgroup,
)


def compose_word(word, k: int) -> Permutation:
    """Product s_{word[0]} * s_{word[1]} * ... (so the leftmost acts last)."""
    w = identity(k)
    for i in word:
        w = w * simple(i, k)
    return w


def subgroup_elements(k: int, J) -> list:
    """All elements of the standard parabolic W_J, by closure under generators."""
    gens = [simple(j, k) for j in sorted(J)]
    seen = {identity(k)}
    frontier = [identity(k)]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                u = w * g
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return sorted(seen, key=lambda w: (length(w), w.one_line))


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation([1, 1, 2])
    with pytest.raises(ValueError):
        Permutation([0, 1, 2])


def test_length_basics():
    assert length(identity(3)) == 0
    assert length(Permutation([2, 1, 3])) == 1
    w0 = Permutation([4, 3, 2, 1])
    assert length(w0) == 6


def test_reduced_word_basics():
    assert reduced_word(simple(1, 3)) == (1,)
    assert reduced_word(identity(4)) == ()


def test_reduced_word_312():
    # brute force: the length-2 words giving [3,1,2] under
    # "leftmost applied last" are exactly (2,1); lex-min is (2,1)
    w = Permutation([3, 1, 2])
    words = [word for word in itertools.product((1, 2), repeat=2)
             if compose_word(word, 3) == w]
    assert reduced_word(w) == min(words) == (2, 1)


def test_reduced_word_roundtrip_and_lexmin():
    for k in range(1, 6):
        for w in all_permutations(k):
            word = reduced_word(w)
            assert len(word) == length(w)
            assert compose_word(word, k) == w
    # lex-minimality, exhaustively for k=4
    for w in all_permutations(4):
        word = reduced_word(w)
        l = length(w)
        for cand in itertools.product(range(1, 4), repeat=l):
            if cand < word:
                assert compose_word(cand, 4) != w


def test_length_changes_by_one():
    for k in range(2, 6):
        for w in all_permutations(k):
            for i in range(1, k):
                assert abs(length(w * simple(i, k)) - length(w)) == 1


def test_young_subgroup_indices():
    assert young_subgroup((2, 1)) == {1}
    assert young_subgroup((1, 1, 1)) == frozenset()
    assert young_subgroup((3,)) == {1, 2}
    with pytest.raises(ValueError):
        young_subgroup((2, 0, 1))


def test_min_coset_reps_counts():
    assert len(min_coset_reps(3, {1})) == 3
    assert len(min_coset_reps(3, set())) == 6
    assert min_coset_reps(3, {1, 2}) == [identity(3)]
    for k in range(1, 7):
        for nparts in range(1, k + 1):
            for cuts in itertools.combinations(range(1, k), nparts - 1):
                parts = []
                prev = 0
                for c in list(cuts) + [k]:
                    parts.append(c - prev)
                    prev = c
                J = young_subgroup(parts)
                expected = factorial(k) // young_order(parts)
                assert len(min_coset_reps(k, J)) == expected


def test_min_coset_reps_are_coset_minimal():
    k = 4
    J = young_subgroup((2, 2))
    reps = min_coset_reps(k, J)
    wj = subgroup_elements(k, J)
    seen = set()
    for x in reps:
        coset = frozenset(x * u for u in wj)
        assert coset not in seen
        seen.add(coset)
        assert all(length(x) <= length(y) for y in coset)
    assert len(seen) * len(wj) == factorial(k)


def test_parabolic_decompose_examples():
    x, u = parabolic_decompose(simple(1, 3), {1})
    assert x == identity(3) and u == simple(1, 3)
    x, u = parabolic_decompose(simple(2, 3), {1})
    assert x == simple(2, 3) and u == identity(3)
    w0 = Permutation([3, 2, 1])
    x, u = parabolic_decompose(w0, {1})
    assert length(x) == 2 and u == simple(1, 3)
    assert x * u == w0


def test_parabolic_decompose_unique():
    for k in range(2, 5):
        for parts in [(k,), (1,) * k, (k - 1, 1)]:
            J = young_subgroup(parts)
            wj = subgroup_elements(k, J)
            for w in all_permutations(k):
                x, u = parabolic_decompose(w, J)
                assert u in wj
                assert x * u == w
                assert length(x) + length(u) == length(w)
                others = [(x2, u2) for u2 in wj
                          for x2 in [w * u2.inverse()]
                          if length(x2) + length(u2) == length(w)
                          and all(x2(j) < x2(j + 1) for j in J)]
                assert others == [(x, u)]


def test_act_examples():
    assert act(identity(3), (5, 6, 7)) == (5, 6, 7)
    assert act(simple(1, 3), (1, 2, 3)) == (2, 1, 3)


def test_act_is_left_action():
    rng = random.Random(5)
    for _ in range(100):
        k = rng.randint(2, 6)
        perms = all_permutations(k)
        w = rng.choice(perms)
        w2 = rng.choice(perms)
        v = tuple(rng.randint(-5, 5) for _ in range(k))
        assert act(w, act(w2, v)) == act(w * w2, v)


def test_inverse_and_compose():
    for w in all_permutations(4):
        assert (w * w.inverse()).is_identity()
        assert w.inverse().inverse() == w


def _filtered_coset_reps(k, J):
    """The former rule, kept as the reference: filter all of S_k."""
    reps = [x for x in all_permutations(k)
            if all(x(j) < x(j + 1) for j in J)]
    reps.sort(key=lambda w: (length(w), w.one_line))
    return reps


def test_min_coset_reps_equal_filter_of_all_permutations():
    for k in range(1, 7):
        for cuts in itertools.product((False, True), repeat=k - 1):
            J = {i for i, cut in enumerate(cuts, 1) if not cut}
            assert young_subgroup(young_composition(J, k)) == J
            assert min_coset_reps(k, J) == _filtered_coset_reps(k, J)


def test_min_coset_reps_never_enumerate_s_k(monkeypatch):
    from ggdim import symgroup
    from ggdim.hecke_finite import InducedSignModule

    def refuse(k):
        raise AssertionError("all_permutations(%d) called" % k)

    monkeypatch.setattr(symgroup, "all_permutations", refuse)
    m = InducedSignModule(12, (12,))
    assert m.dim == 1 and m.basis == (identity(12),)
    assert len(min_coset_reps(9, young_subgroup((3, 3, 3)))) == 1680
