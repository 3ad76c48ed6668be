import pytest

from slchaos.analysis import conjecture_report


@pytest.fixture(autouse=True)
def fresh_fixed_point_tables():
    # `conjecture_report` is memoised per coefficient set; a test that
    # monkeypatches what it calls must not be served an earlier test's table.
    conjecture_report.cache_clear()
    yield
    conjecture_report.cache_clear()
