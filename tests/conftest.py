"""Shared fixtures for the test suite.

Hypothesis budgets are profile-driven: the ``default`` profile keeps
local runs fast, ``ci`` pins reproducible output for the workflow jobs,
and ``nightly`` multiplies the example and step budgets for the
scheduled deep run. Select with ``HYPOTHESIS_PROFILE=nightly pytest``.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro import LOWERCASE, THFile
from repro.workloads import MOST_USED_WORDS, KeyGenerator

settings.register_profile(
    "default", max_examples=25, stateful_step_count=40, deadline=None
)
settings.register_profile(
    "ci",
    max_examples=40,
    stateful_step_count=50,
    deadline=None,
    print_blob=True,
    derandomize=True,
)
settings.register_profile(
    "nightly",
    max_examples=300,
    stateful_step_count=150,
    deadline=None,
    print_blob=True,
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def alphabet():
    """The paper's example alphabet: space + lowercase letters."""
    return LOWERCASE


@pytest.fixture
def words():
    """The 31 most-used English words of Fig 1, in insertion order."""
    return list(MOST_USED_WORDS)


@pytest.fixture
def fig1_file(words):
    """The paper's example file: the 31 words inserted with b = 4."""
    f = THFile(bucket_capacity=4)
    for word in words:
        f.insert(word)
    return f


@pytest.fixture
def generator():
    """A deterministic key generator."""
    return KeyGenerator(seed=1234)


@pytest.fixture
def small_keys(generator):
    """300 unique random keys in random order."""
    return generator.uniform(300)


@pytest.fixture
def sorted_keys(small_keys):
    """The same 300 keys, ascending."""
    return sorted(small_keys)


def build_file(keys, b=8, policy=None, check_every=None):
    """Insert ``keys`` into a fresh file, optionally checking as we go."""
    f = THFile(bucket_capacity=b, policy=policy)
    for i, key in enumerate(keys):
        f.insert(key)
        if check_every and i % check_every == 0:
            f.check()
    return f


@pytest.fixture(scope="session")
def quick_paper():
    """The quick paper suite's tables and claim verdicts, computed once.

    These are exactly what ``trie-hashing validate`` judges (the quick
    profile's count, the paper suite's seed); every claim test in the
    session shares this one pass over the experiment registry.
    """
    from repro.analysis.validation import evaluate
    from repro.bench import PROFILES, SUITES

    return evaluate(PROFILES["quick"]["paper"], SUITES["paper"][1])
