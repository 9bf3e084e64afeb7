import pytest

from dignn import threads


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs, whatever the host gives the process, so that
    ``threads.run_in_two`` starts a thread and splits its work."""
    monkeypatch.setattr(threads, "_cpus", lambda: 2)
