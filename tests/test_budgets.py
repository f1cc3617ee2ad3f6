"""Every budgeted search stops at the same step as before the searches
shared one counter: the least budget at which each succeeds, and the
bounds and message it raises one step short of it."""

import pytest

from dichroma.defective import exact_defective_index
from dichroma.errors import BudgetExceeded
from dichroma.extremal import directed_hajos_join, recognize_k_extremal
from dichroma.families import shannon_multigraph
from dichroma.heroes import contains_induced, gen_fk, pattern

from helpers import sym_complete


def _k4_chain():
    k4 = sym_complete(4)
    return directed_hajos_join(directed_hajos_join(k4, (0, 1), k4, (0, 1)), (2, 3), k4, (0, 1))


# (search(budget), least budget that succeeds, (lower, upper, message) one short of it)
THRESHOLDS = [
    (lambda b: recognize_k_extremal(_k4_chain(), 3, budget=b),
     5, (0, None, "recognition budget exceeded")),
    (lambda b: contains_induced(gen_fk(3, 3).digraph, pattern("c3_1_1_2"), budget=b),
     4, (0, None, "pattern search budget")),
    (lambda b: exact_defective_index(shannon_multigraph(7), 2, budget=b),
     20, (4, 5, "defective index search budget")),
]


@pytest.mark.parametrize("search, least, raised", THRESHOLDS,
                         ids=["recognize", "contains_induced", "defective"])
def test_budget_threshold_is_pinned(search, least, raised):
    with pytest.raises(BudgetExceeded) as exc:
        search(least - 1)
    assert (exc.value.lower, exc.value.upper, str(exc.value)) == raised
    search(least)
