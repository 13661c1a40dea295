"""Test-suite settings: hypothesis runs a fixed sequence of examples and
keeps no example database, so every run checks the same cases.  Its other
cache (constants read from the source, filled while tests are collected)
goes to a temporary directory removed at exit, so a test run leaves no
.hypothesis/ behind."""
import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def pytest_configure(config):
    home = tempfile.mkdtemp(prefix="hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    set_hypothesis_home_dir(home)
