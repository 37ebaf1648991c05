import re

import pytest

import seistile.data


class _FailingFile:
    """A file whose n-th write raises, as a full disk would."""

    def __init__(self, fh, fail_at):
        self.fh, self.fail_at, self.writes = fh, fail_at, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes >= self.fail_at:
            raise OSError("no space left on device")
        return self.fh.write(data)


@pytest.fixture
def failing_writes(monkeypatch):
    """``failing_writes(n)`` makes the n-th write of every file that
    ``atomic_open`` opens from then on raise OSError."""

    def arm(fail_at):
        monkeypatch.setattr(seistile.data, "open", lambda *a, **k: _FailingFile(open(*a, **k), fail_at),
                            raising=False)

    return arm


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or not report.failed:
        return
    if "test_acceptance" not in str(item.fspath):
        return
    m = re.search(r"criterion_(\d+)_(\w+)", item.name)
    if m:
        reason = report.longreprtext.strip().splitlines()[-1] if report.longreprtext else ""
        print(f"\nACCEPTANCE {m.group(1)} {m.group(2).replace('_', '-')}: FAIL  {reason}")
