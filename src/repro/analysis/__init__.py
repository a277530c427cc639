"""Measurement and experiment harness.

``metrics`` computes the paper's quantities (load factor ``a``, trie size
``M``, growth rate ``s``, access counts); ``simulator`` drives files
through workloads collecting time series; ``experiments`` defines one
function per reproduced table/figure and the ``EXPERIMENTS`` registry of
them (see EXPERIMENTS.md for the index); ``validation`` holds the
paper's claims as predicates over the registry's rows; ``reporting``
renders the rows the way the paper prints them.
"""

from .experiments import (
    ablation_balance,
    ablation_overflow,
    concurrency_table,
    ablation_buffer,
    ablation_nil_nodes,
    deletions_table,
    fig10_ascending,
    fig11_descending,
    growth_rate_table,
    mlth_access_table,
    multikey_grid_table,
    sec31_random,
    sec32_expected,
    sec32_unexpected,
    sec45_guarantees,
    sec45_redistribution,
    sec5_btree_comparison,
)
from .capacity import capacity_table
from .metrics import access_cost, file_metrics
from .reporting import format_table
from .simulator import insert_all, load_series

__all__ = [
    "ablation_balance",
    "ablation_overflow",
    "concurrency_table",
    "ablation_buffer",
    "ablation_nil_nodes",
    "deletions_table",
    "fig10_ascending",
    "fig11_descending",
    "growth_rate_table",
    "mlth_access_table",
    "multikey_grid_table",
    "sec31_random",
    "sec32_expected",
    "sec32_unexpected",
    "sec45_guarantees",
    "sec45_redistribution",
    "sec5_btree_comparison",
    "access_cost",
    "capacity_table",
    "file_metrics",
    "format_table",
    "insert_all",
    "load_series",
]
