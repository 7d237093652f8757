"""Golden NDroid counters: every count NDroid keeps, every leak row and
every ledger edge, over the 11 scenarios, the 8 Monkey-driven market
apps and one warmed CF-Bench pass, compared with the recorded file in
full.  A change that only makes NDroid cheaper (bound hooks, clean
model variants, filtered branch events) must leave all of it as it was.
"""

import json

import pytest

from tests.core.ndroid_counters import (GOLDEN_PATH, TARGETS, counters,
                                        run_target)

with open(GOLDEN_PATH) as handle:
    GOLDEN = json.load(handle)


def test_golden_file_covers_every_target():
    assert sorted(GOLDEN) == sorted(TARGETS)


@pytest.mark.parametrize("target", TARGETS)
def test_ndroid_counters_match_the_golden_file(target):
    # A JSON round trip turns tuples into lists and int keys into text.
    observed = json.loads(json.dumps(counters(run_target(target))))
    assert observed == GOLDEN[target]


def test_untraced_cfbench_pass_counts_the_same():
    # The benchmark runs NDroid without the ledger; on clean data the
    # traced pass records no edge, so the whole record must match.
    untraced = json.loads(json.dumps(
        counters(run_target("cfbench:warm", trace=False))))
    assert untraced == GOLDEN["cfbench:warm"]
