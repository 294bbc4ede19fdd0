"""Shared pytest setup.

Hypothesis, when installed, runs derandomized and without an example
database, so every run draws the same examples. Its remaining on-disk
cache (constants read from the source files) goes to a temporary
directory that is removed after the run, so no ``.hypothesis/`` directory
appears in the checkout. Each test's own ``max_examples`` and
``deadline`` still apply.

``criteria.critical_structure`` keeps its last answer, so that ``classify``
and the audit's replay share one; the cache is emptied before each test,
so that no test reads a structure an earlier one built, perhaps under a
stub.

``count_calls(module, name)`` rebinds ``module.name`` to a wrapper that
records the positional arguments of each call, for the rest of the test,
and returns the list it records into; pass that list as ``calls`` to
count two names together.
"""

import shutil
import tempfile

import pytest

from uniqpoly import criteria

try:
    import hypothesis
except ImportError:
    hypothesis = None

if hypothesis is not None:
    hypothesis.settings.register_profile(
        "deterministic", derandomize=True, database=None)
    hypothesis.settings.load_profile("deterministic")


def pytest_configure(config):
    if hypothesis is not None:
        home = tempfile.mkdtemp(prefix="hypothesis-")
        config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
        hypothesis.configuration.set_hypothesis_home_dir(home)


@pytest.fixture(autouse=True)
def _fresh_critical_structure():
    criteria.critical_structure.cache_clear()


@pytest.fixture
def count_calls(monkeypatch):
    def count(module, name: str, calls=None) -> list:
        calls = [] if calls is None else calls
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return count
