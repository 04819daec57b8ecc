import re

import pytest
from hypothesis import given, settings, strategies as st

from loopchains.signkoszul import (
    ConstraintError,
    bullet_exponent,
    dagger_exponent,
    diamond_exponent,
    flat_exponent,
    homotopy_identity_check,
    koszul_permutation_sign,
    maltese_exponent,
    sharp_exponent,
    sweep_identity,
)

from oracle_signs import per_tuple_sweep_identity


def test_dagger_example():
    assert dagger_exponent((0, 1, 2)) == 8


def test_maltese_example():
    assert maltese_exponent((0, 1), 1, 2) == 3


def test_flat_example_degree_independent():
    # (d2+1) gets even and d1+1 gets even, so the parity is 0 outright
    for deg in (-3, 0, 5):
        assert flat_exponent((deg,), 1, 1) % 2 == 0


def test_constraint_errors_name_the_constraint():
    with pytest.raises(ConstraintError, match="i >= 1"):
        maltese_exponent((0, 1), 0, 1)
    with pytest.raises(ConstraintError, match="j <= d"):
        maltese_exponent((0, 1), 1, 3)
    with pytest.raises(ConstraintError, match="r >= 0"):
        diamond_exponent((0, 1), 1, -1)


degree_tuples = st.lists(st.integers(min_value=-3, max_value=3),
                         min_size=1, max_size=6).map(tuple)


@settings(max_examples=80, deadline=None)
@given(degree_tuples, st.data())
def test_each_exponent_is_an_integer_on_its_whole_domain(degrees, data):
    d = len(degrees)
    ints = lambda lo, hi: data.draw(st.integers(min_value=lo, max_value=hi))
    kind = data.draw(st.sampled_from(
        ["dagger", "maltese", "flat", "sharp", "diamond", "bullet"]))
    if kind == "dagger":
        value = dagger_exponent(degrees)
    elif kind in ("maltese", "bullet"):
        j = ints(0, d)
        lo = 1 if kind == "maltese" else 0
        i = ints(lo, max(lo, j))
        if kind == "maltese" and j == 0:
            j = 1
        exponent = maltese_exponent if kind == "maltese" else bullet_exponent
        value = exponent(degrees, min(i, j), j)
    elif kind == "flat":
        value = flat_exponent(degrees, ints(1, d), ints(1, 4))
    elif kind == "sharp":
        d2 = ints(1, d)
        value = sharp_exponent(degrees, ints(0, d - d2), d2)
    else:
        d1 = ints(0, d)
        value = diamond_exponent(degrees, d1, ints(0, d - d1))
    assert type(value) is int


@settings(max_examples=60, deadline=None)
@given(degree_tuples, st.integers(min_value=0, max_value=6))
def test_bullet_at_i_zero_is_trailing_maltese(degrees, j):
    d = len(degrees)
    j = min(j, d)
    expected = maltese_exponent(degrees, j + 1, d - 1) if j + 1 <= d - 1 else 0
    assert bullet_exponent(degrees, 0, j) % 2 == expected % 2


def test_koszul_basics():
    assert koszul_permutation_sign((0, 0), (0, 1)) == 0
    # two even letters have odd reduced degree: transposing them flips sign
    assert koszul_permutation_sign((0, 0), (1, 0)) == 1
    # an odd letter (reduced degree even) transposes freely
    assert koszul_permutation_sign((1, 0), (1, 0)) == 0
    with pytest.raises(ConstraintError):
        koszul_permutation_sign((0, 0), (0, 0))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_koszul_composition_is_additive(n, data):
    degrees = tuple(data.draw(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=n,
                 max_size=n)))
    p = tuple(data.draw(st.permutations(range(n))))
    q = tuple(data.draw(st.permutations(range(n))))
    after_p = tuple(degrees[p[t]] for t in range(n))
    composite = tuple(p[q[t]] for t in range(n))
    assert koszul_permutation_sign(degrees, composite) == (
        koszul_permutation_sign(degrees, p)
        + koszul_permutation_sign(after_p, q)) % 2


def test_identity_interior_example_holds():
    report = homotopy_identity_check((0, 1, -1), 1, 0)
    assert report.equal


def test_identity_boundary_example_fails():
    # arity one, empty inner block, full rotation: a known boundary case
    report = homotopy_identity_check((0,), 0, 1)
    assert not report.equal


def test_identity_domain_errors():
    with pytest.raises(ConstraintError, match="r <= d2"):
        homotopy_identity_check((0, 0), 1, 2)
    with pytest.raises(ConstraintError, match="0 <= d1"):
        homotopy_identity_check((0, 0), 3, 0)


def test_sweep_frozen_counts():
    sweep = sweep_identity(d_max=4, degree_window=(-2, 2))
    assert sweep.total == 10790
    assert len(sweep.failures) == 2226
    assert sweep.interior_total == 7080
    assert sweep.interior_failures == 0
    assert sweep.all_failures_on_boundary
    assert sweep.failing_combos == (
        (1, 0, 1), (1, 1, 0), (2, 0, 2), (2, 1, 1), (2, 2, 0),
        (3, 0, 3), (3, 1, 2), (3, 2, 1), (3, 3, 0),
        (4, 0, 4), (4, 1, 3), (4, 2, 2), (4, 3, 1), (4, 4, 0))


@pytest.mark.parametrize("d_max, window", [
    (4, (-2, 2)), (3, (-3, 3)), (5, (-1, 1)), (3, (1, 1)), (3, (2, 2)),
    (4, (0, 1)), (4, (-1, 2)), (3, (-3, -3)), (0, (-2, 2)), (1, (-2, 2)),
])
def test_sweep_equals_the_per_tuple_oracle(d_max, window):
    assert sweep_identity(d_max, window) == \
        per_tuple_sweep_identity(d_max, window)


@pytest.mark.parametrize("d_max, window, named", [
    (3, (2, 1), "degree_window=(2, 1)"), (-1, (-2, 2), "d_max=-1"),
])
def test_sweep_refuses_a_reversed_window_or_a_negative_arity(d_max, window,
                                                             named):
    with pytest.raises(ConstraintError, match=re.escape(named)):
        sweep_identity(d_max, window)


def test_sweep_of_arity_zero_is_empty():
    assert sweep_identity(0, (-2, 2)) == (0, (), (), 0, 0, 0)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_identity_depends_only_on_degree_parities(data):
    d = data.draw(st.integers(min_value=1, max_value=6))
    degrees = tuple(data.draw(st.lists(st.integers(-5, 5), min_size=d,
                                       max_size=d)))
    shift = data.draw(st.lists(st.integers(-4, 4), min_size=d, max_size=d))
    d1 = data.draw(st.integers(min_value=0, max_value=d))
    r = data.draw(st.integers(min_value=0, max_value=d - d1))
    moved = tuple(x + 2 * s for x, s in zip(degrees, shift))
    assert homotopy_identity_check(moved, d1, r).equal == \
        homotopy_identity_check(degrees, d1, r).equal
