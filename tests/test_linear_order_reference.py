"""Pair orders as int64 permutations against the tuple reference.

``tests/reference_linear_order.py`` keeps the implementation that held a
linear order as a tuple of pair tuples.  Both must induce the same generic
systems, accept and reject the same pair lists, agree on every accessor of
an accepted order, and collect the same white components.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_linear_order as ref
from nndlab import concordance
from nndlab.concordance import (
    LinearOrder,
    all_pairs,
    baranyai_order,
    generic_crs,
    n_pairs,
    powers_of_two_order,
)
from nndlab.errors import InputError


@pytest.mark.parametrize("n", [2, 3, 5, 64, 512])
@pytest.mark.parametrize("seed", range(10))
def test_generic_crs_table_matches_reference(n, seed):
    assert generic_crs(n, seed).table == ref.generic_crs(n, seed).table


@pytest.mark.parametrize("n,dtype", [(1625, np.int32), (1626, np.int64)])
def test_generic_crs_table_matches_reference_across_key_width(n, dtype):
    # phi sorts (position, partner) keys in int32 while N * n < 2^31, in int64 above
    N = n_pairs(n)
    assert concordance._phi_orders(np.empty((0, N), dtype=np.int64), n).dtype == dtype
    # the reference generic_crs spends seconds in tuples of pairs at this n,
    # so its phi gets the same seeded order directly
    order = LinearOrder.from_perm(n, np.random.default_rng(n).permutation(N))
    assert generic_crs(n, n).table == ref.phi(order).table


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
@pytest.mark.parametrize("seed", range(3))
def test_linear_extension_matches_reference(n, seed):
    crs = generic_crs(n, seed)
    new = concordance._linear_extension(crs, seed + 7)
    assert new.pairs == ref._linear_extension(crs, seed + 7).pairs


@st.composite
def pair_lists(draw):
    """(n, pairs): a shuffled, possibly flipped enumeration of the pairs of
    [n] with at most one edit, or an arbitrary list of integer pairs."""
    n = draw(st.integers(min_value=0, max_value=6))
    item = st.one_of(
        st.integers(min_value=-2, max_value=n + 2),
        st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    )
    stray = st.tuples(item, item)
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        return n, draw(st.lists(stray, max_size=n_pairs(n) + 2))
    pairs = draw(st.permutations(all_pairs(n)))
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    pairs = [(j, i) if flip else (i, j) for (i, j), flip in zip(pairs, flips)]
    edit = draw(st.sampled_from(["none", "duplicate", "overwrite", "drop", "insert", "replace"]))
    at = draw(st.integers(min_value=0, max_value=max(len(pairs) - 1, 0)))
    other = draw(st.integers(min_value=0, max_value=max(len(pairs) - 1, 0)))
    if edit == "duplicate" and pairs:
        pairs.insert(at, pairs[other])
    elif edit == "overwrite" and pairs:
        pairs[at] = pairs[other]
    elif edit == "drop" and pairs:
        del pairs[at]
    elif edit == "insert":
        pairs.insert(at, draw(stray))
    elif edit == "replace" and pairs:
        pairs[at] = draw(stray)
    return n, pairs


def build(cls, n, pairs):
    try:
        return cls(n, pairs)
    except InputError:
        return None


@settings(max_examples=400, deadline=None)
@given(pair_lists())
def test_constructor_and_accessors_match_reference(drawn):
    n, pairs = drawn
    old = build(ref.LinearOrder, n, pairs)
    new = build(LinearOrder, n, pairs)  # anything but InputError fails the test
    assert (new is None) == (old is None)
    if new is None:
        return
    assert new.N == old.N
    assert new.pairs == old.pairs
    assert repr(new) == repr(old)
    np.testing.assert_array_equal(new.positions_array(), old.positions_array())
    assert concordance.is_isolated(new) == ref.is_isolated(old)
    same = LinearOrder(n, old.pairs)
    assert new == same and hash(new) == hash(same)
    if n >= 2:
        assert concordance.phi(new).table == ref.phi(old).table
    for k in range(1, new.N):
        assert concordance._disjoint(*new.perm[k - 1 : k + 1], n) == ref.swap_is_white(old, k)


START_ORDERS = {
    "baranyai4": baranyai_order(4),
    "baranyai6": baranyai_order(6),
    "powers6": powers_of_two_order(6),
}


@pytest.mark.parametrize("name", START_ORDERS)
@pytest.mark.parametrize("cap", [1, 50, 8500])
def test_white_component_matches_reference(name, cap, monkeypatch):
    start = START_ORDERS[name]
    old = ref.white_component(ref.LinearOrder(start.n, start.pairs), cap=cap)
    listed = None
    # one frontier row or neighbour per block, seven of each, and the default
    for entries in (1, 7 * start.N, concordance._BLOCK_ENTRIES):
        monkeypatch.setattr(concordance, "_BLOCK_ENTRIES", entries)
        new = concordance.white_component(start, cap=cap)
        orders = [o.pairs for o in new.orders]
        assert new.complete == old.complete
        assert set(orders) == {o.pairs for o in old.orders}
        assert len(set(orders)) == len(orders) and new.orders[0] == start
        # discovery order does not depend on how a level is split into blocks
        assert listed is None or orders == listed
        listed = orders


def test_white_component_order_ignores_hash_seed():
    code = (
        "from nndlab.concordance import baranyai_order, white_component\n"
        "print([o.perm.tolist() for o in white_component(baranyai_order(6), cap=300).orders])"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outputs = set()
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        outputs.add(done.stdout)
    assert len(outputs) == 1
