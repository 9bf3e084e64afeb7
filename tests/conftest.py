import pytest

from dignn import threads


@pytest.fixture
def worker(monkeypatch):
    """The process's worker thread, started whatever CPUs the host gives the
    process, so that ``threads.run_in_two`` splits its work."""
    monkeypatch.setattr(threads, "_cpus", lambda: 2)
    started = threads._current_worker()
    assert started is not None
    return started

