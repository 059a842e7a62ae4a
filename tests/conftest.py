import pytest
from hypothesis import settings

from rskcheck import enumeration

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one pass/fail line per acceptance test at the end of the run."""
    lines = []
    for status, label in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py" in nodeid and getattr(report, "when", "") == "call":
                name = nodeid.split("::")[-1]
                lines.append(f"{label}  {name}")
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines, key=lambda s: s.split()[-1]):
            terminalreporter.write_line(line)


class SerialPool:
    """Stands in for the forked pool, enumeration._Workers: records its
    size, when it starts and closes, and the function name and argument of
    each task queued on it. It runs every task in this process as it
    starts, and keeps what each task raised for take, so no test that uses
    it forks a worker. It does not run _start_worker, which would make this
    process ignore Ctrl-C."""

    sizes: list[int] = []
    events: list[object] = []
    queued: list[tuple[str, object]] = []

    def __init__(self, size, queued):
        self.sizes.append(size)
        self.events.append("start")
        self.replies = {}
        self.closed = False
        for i, (run, arg) in enumerate(queued):
            self.queued.append((run.__name__, arg))
            try:
                self.replies[i] = True, enumeration._timed(run, arg)
            except BaseException as exc:
                self.replies[i] = False, exc

    def take(self, i):
        returned, value = self.replies.pop(i)
        if not returned:
            raise value
        return value

    def close(self):
        if not self.closed:
            self.events.append("close")
        self.closed = True


@pytest.fixture
def serial_pool(monkeypatch):
    monkeypatch.setattr(SerialPool, "sizes", [])
    monkeypatch.setattr(SerialPool, "events", [])
    monkeypatch.setattr(SerialPool, "queued", [])
    monkeypatch.setattr(enumeration, "_Workers", SerialPool)
    return SerialPool
