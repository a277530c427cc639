"""The paper's shapes at the quick size, as claims.

Each test names the claims of :data:`repro.analysis.validation.CLAIMS`
that carry its assertions: who wins, what is guaranteed, where curves
bend. All of them read the session's one quick evaluation
(``quick_paper`` in conftest.py), so no experiment runs twice.
"""

import pytest


@pytest.fixture
def holds(quick_paper):
    _, verdicts = quick_paper

    def check(*claims):
        assert not {claim: verdicts[claim] for claim in claims if verdicts[claim]}

    return check


class TestFig10:
    def test_d0_is_compact(self, holds): holds("fig10-compact")
    def test_load_declines_with_d(self, holds): holds("fig10-load-declines")
    def test_m_has_interior_minimum_or_decline(self, holds): holds("fig10-minimum")
    def test_growth_rate_at_full_load(self, holds): holds("fig10-growth-rate")


class TestFig11:
    def test_d0_is_compact(self, holds): holds("fig11-compact")
    def test_m_drops_then_flattens(self, holds): holds("fig11-saving")
    def test_load_stays_high_for_small_d(self, holds): holds("fig11-load-high")


class TestSec31:
    def test_random_loads(self, holds):
        holds("random-seventy", "sec31-nil-negligible", "sec31-trie-smaller",
              "sec31-cell-per-bucket")


class TestSec32:
    def test_unexpected_ordered(self, holds):
        holds("sec32-ascending", "sec32-descending", "sec32-lower-m")

    def test_expected_ordered_capped_by_basic_method(self, holds):
        holds("fig5-6-band", "fig5-nil-nodes")


class TestSec45:
    def test_guarantees(self, holds):
        holds("compact-ascending", "compact-descending", "guaranteed-half",
              "thcl-random-seventy", "deletion-floor")

    def test_redistribution(self, holds):
        holds("redistribution-beats-plain", "redistribution", "redistribution-ordered")


class TestGrowthRate:
    def test_trie_grows_cheaper_than_btree(self, holds):
        holds("growth-cheaper", "growth-full-load-fastest")


class TestSec5:
    def test_th_beats_btree_on_accesses(self, holds): holds("btree-comparison")
    def test_compact_parity_on_ordered(self, holds): holds("sec5-ordered-full")
    def test_th_search_is_one_access(self, holds): holds("sec5-one-access")


class TestMLTH:
    def test_two_page_levels_suffice(self, holds): holds("mlth-levels", "mlth-two-accesses")


class TestDeletions:
    def test_table_shape(self, holds):
        holds("deletions-thcl-floor", "deletions-basic-unbounded", "deletions-rotations")


class TestAblations:
    def test_nil_nodes(self, holds): holds("nil-shared-leaves")
    def test_balance(self, holds): holds("balance-shallower")
    def test_buffer(self, holds): holds("one-access", "buffer-absorbs-reads")
