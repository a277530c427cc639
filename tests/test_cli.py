"""CLI entry-point tests."""

import pytest

from repro.analysis.experiments import EXPERIMENTS
from repro.cli import main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "31 most-used English words" in out
        assert "buckets=11" in out
        assert "for from" in out

    def test_run_experiment(self, capsys):
        assert main(["run", "sec32-expected", "--count", "300",
                     "--bucket-capacity", "6"]) == 0
        out = capsys.readouterr().out
        assert "a_a% (m=b)" in out

    def test_run_with_seed(self, capsys):
        assert main(["run", "ablation-balance", "--count", "200",
                     "--seed", "5"]) == 0
        assert "balanced depth" in capsys.readouterr().out

    def test_run_rejects_unknown(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "not-an-experiment"])

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out

    def test_bucket_capacities_plural_mapping(self, capsys):
        # Experiments taking bucket_capacities receive a 1-tuple.
        assert main(["run", "sec31", "--count", "300",
                     "--bucket-capacity", "8"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 4

    def test_run_refuses_flags_the_experiment_does_not_take(self, capsys):
        assert main(["run", "mlth", "--count", "200"]) == 2
        err = capsys.readouterr().err
        assert "mlth does not take --count" in err
        assert "it takes --seed, --bucket-capacity" in err
        assert main(["run", "chaos", "--bucket-capacity", "8"]) == 2
        assert "it takes --count, --seed" in capsys.readouterr().err
        assert main(["run", "capacity", "--count", "5", "--seed", "3"]) == 2
        err = capsys.readouterr().err
        assert "does not take --count, --seed; it takes none of them" in err

    def test_every_experiment_runs_small(self, capsys):
        # Smoke: each registered experiment completes at minimal size,
        # given only the flags it takes (the fixed-size ones take none).
        b = ["--bucket-capacity", "8"]
        small = {
            "fig8": ["--count", "200"],
            "fig10": ["--count", "200", *b],
            "fig11": ["--count", "200", *b],
            "boundary-length": [],
            "sec31": ["--count", "200", *b],
            "sec32-unexpected": ["--count", "200", *b],
            "sec32-expected": ["--count", "200", *b],
            "sec45": ["--count", "200", *b],
            "sec45-redistribution": ["--count", "200", *b],
            "oscillation": [],
            "growth": ["--count", "200", *b],
            "capacity": [],
            "sec5": ["--count", "200", *b],
            "concurrency": ["--count", "300", *b],
            "mlth": b,
            "mlth-split-shift": [],
            "multikey": ["--count", "300", *b],
            "deletions": ["--count", "200", *b],
            "ablation-nil": ["--count", "200", *b],
            "ablation-balance": ["--count", "200", *b],
            "ablation-buffer": ["--count", "200", *b],
            "ablation-overflow": ["--count", "200", *b],
            "seed-stability": [],
            "reconstruction": ["--seed", "7"],
            "distributed": ["--count", "200", *b],
            "chaos": ["--count", "200"],
        }
        assert set(small) == set(EXPERIMENTS)
        for name, args in small.items():
            assert main(["run", name] + args) == 0, name
