"""Shared pytest setup.

Hypothesis, when installed, runs derandomized and without an example
database, so every run draws the same examples. Its remaining on-disk
cache (constants read from the source files) goes to a temporary
directory that is removed after the run, so no ``.hypothesis/`` directory
appears in the checkout. Each test's own ``max_examples`` and
``deadline`` still apply.
"""

import shutil
import tempfile

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
