"""The integer-index concordancy certificate against the tuple-and-dict reference.

``tests/reference_concordance.py`` keeps the earlier implementation.  On
random ranking tables, generic concordant systems, the worked five-point
system and tables with a planted 3-cycle, both must agree on concordancy,
on the DAG arcs and on the order type; every returned cycle must be a cycle
of consecutive-relation arcs.
"""

import itertools

import numpy as np
import pytest

import reference_concordance as ref
from nndlab import concordance
from nndlab.concordance import all_pairs, concordant5_system, generic_crs
from nndlab.errors import NotConcordantError
from nndlab.ranking import RankTable
from nndlab.spaces import random_ranking_table


def planted_cycle(n, seed):
    """A generic table whose rows a, b, c are edited so that (a,b) -> (a,c)
    -> (b,c) -> (a,b) are consecutive-relation arcs."""
    rng = np.random.default_rng(seed)
    order = generic_crs(n, seed).table.order.tolist()
    a, b, c = (int(v) for v in rng.choice(n, size=3, replace=False))
    for x, u, v in ((a, b, c), (b, c, a), (c, a, b)):
        row = order[x]
        row.remove(v)
        row.insert(row.index(u) + 1, v)
    return RankTable(np.array(order))


TABLES = (
    [(f"random{n}-{s}", random_ranking_table(n, s)) for n in range(3, 13) for s in range(40)]
    + [(f"generic{n}-{s}", generic_crs(n, s).table)
       for n in (2, 3, 4, 5, 8, 13, 32, 64) for s in range(3)]
    + [("concordant5", concordant5_system()[0])]
    + [(f"planted{n}-{s}", planted_cycle(n, s)) for n in (3, 4, 6, 9, 20, 64) for s in range(4)]
)


@pytest.mark.parametrize("name,table", TABLES, ids=[name for name, _ in TABLES])
def test_certificate_matches_reference(name, table):
    new = concordance.concordancy_check(table)
    old = ref.concordancy_check(table)
    assert new.is_concordant == old.is_concordant
    assert new.dag_arcs == old.dag_arcs
    if name.startswith(("generic", "concordant5")):
        assert new.is_concordant
    if name.startswith("planted"):
        assert not new.is_concordant
    if new.is_concordant:
        for seed in (0, 1):
            assert concordance._linear_extension(new, seed) == ref._linear_extension(old, seed)
    else:
        arcs = ref._consecutive_arcs(table)
        cycle = new.cycle
        assert len(cycle) >= 3
        assert all((p, q) in arcs for p, q in zip(cycle, cycle[1:] + cycle[:1]))


@pytest.mark.parametrize(
    "name,table",
    [(name, table) for name, table in TABLES if table.n <= 8],
    ids=[name for name, table in TABLES if table.n <= 8],
)
def test_order_leq_matches_reference(name, table):
    new = concordance.concordancy_check(table)
    old = ref.concordancy_check(table)
    pairs = all_pairs(table.n)
    if not old.is_concordant:
        with pytest.raises(NotConcordantError):
            new.order_leq(pairs[0], pairs[-1])
        return
    for p, q in itertools.product(pairs, repeat=2):
        assert new.order_leq(p, q) == old.order_leq(p, q), (p, q)
        assert new.order_leq(p[::-1], q) == old.order_leq(p[::-1], q)
