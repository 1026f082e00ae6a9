"""Watch the commits into one memory region from a test.

A region notifies nothing but its one doorbell, so a test that needs
every commit's instant wraps :meth:`MemoryRegion.commit` itself for the
rest of the test (or of a ``pytest.MonkeyPatch.context()``).
"""

from repro.rdma.memory import MemoryRegion


def watch_commits(monkeypatch, region: MemoryRegion, observe) -> None:
    """Call ``observe(offset, length)`` after every commit into
    ``region``, where its doorbell rings: a commit that raises calls
    nothing."""
    commit = MemoryRegion.commit

    def watched(self, record):
        commit(self, record)
        if self is region:
            observe(record[0], record[2])

    monkeypatch.setattr(MemoryRegion, "commit", watched)
