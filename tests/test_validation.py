"""The claims table and the one-command validation.

The claims are judged once per session on the quick paper tables
(``quick_paper`` in conftest.py); the ``validate`` checks replay those
tables instead of running every experiment again.
"""

import pytest

import repro.analysis.validation as validation
from repro.analysis.experiments import EXPERIMENTS
from repro.analysis.validation import CLAIMS, validate_all
from repro.cli import main


@pytest.fixture
def replay(monkeypatch, quick_paper):
    """Make ``validate`` judge the session's tables, not re-run them."""
    tables, _ = quick_paper
    monkeypatch.setattr(
        validation, "run_experiment", lambda experiment_id, **_: tables[experiment_id]
    )


class TestValidation:
    def test_all_claims_pass(self, quick_paper):
        tables, verdicts = quick_paper
        assert set(tables) == set(EXPERIMENTS)
        assert set(verdicts) == set(CLAIMS)
        failed = {claim: reason for claim, reason in verdicts.items() if reason}
        assert not failed

    def test_claim_registry_well_formed(self):
        for claim_id, (experiment_id, statement, predicate) in CLAIMS.items():
            assert experiment_id in EXPERIMENTS, claim_id
            assert isinstance(statement, str) and statement
            assert callable(predicate)
            assert claim_id == claim_id.lower()
        # Every registry table carries at least one claim.
        assert {experiment for experiment, _, _ in CLAIMS.values()} == set(
            EXPERIMENTS
        )

    def test_failure_reported_not_raised(self, monkeypatch, replay):
        def broken(rows):
            raise RuntimeError("boom")

        monkeypatch.setitem(CLAIMS, "broken", ("sec31", "always crashes", broken))
        monkeypatch.setitem(CLAIMS, "false", ("sec31", "never holds", lambda rows: False))
        lines = []
        results = {r["claim"]: r for r in validate_all(printer=lines.append)}
        assert not results["broken"]["ok"] and "boom" in results["broken"]["reason"]
        assert not results["false"]["ok"]
        assert any(line.startswith("[FAIL] broken") and "boom" in line for line in lines)
        assert lines[-1] == (
            f"{len(CLAIMS) - 2}/{len(CLAIMS)} claims reproduced - 2 FAILED"
        )

    def test_crashing_experiment_fails_only_its_claims(self, monkeypatch, quick_paper):
        tables, _ = quick_paper

        def run(experiment_id, **_):
            if experiment_id == "sec5":
                raise RuntimeError("disk on fire")
            return tables[experiment_id]

        monkeypatch.setattr(validation, "run_experiment", run)
        crashed_tables, verdicts = validation.evaluate()
        assert "sec5" not in crashed_tables
        for claim_id, (experiment_id, _, _) in CLAIMS.items():
            if experiment_id == "sec5":
                assert "disk on fire" in verdicts[claim_id]
            else:
                assert verdicts[claim_id] is None, claim_id

    def test_cli_validate_exit_code(self, capsys, monkeypatch, replay):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert f"{len(CLAIMS)}/{len(CLAIMS)} claims reproduced" in out
        assert "FAIL" not in out
        monkeypatch.setitem(CLAIMS, "false", ("sec31", "never holds", lambda rows: False))
        assert main(["validate"]) == 1
        assert "[FAIL] false" in capsys.readouterr().out
