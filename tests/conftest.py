import pytest

from slchaos.analysis import conjecture_report, stable_tails


@pytest.fixture(autouse=True)
def fresh_fixed_point_tables():
    # `conjecture_report` and `stable_tails` are memoised per coefficient
    # set; a test that monkeypatches what they call must not be served an
    # earlier test's table.
    conjecture_report.cache_clear()
    stable_tails.cache_clear()
    yield
    conjecture_report.cache_clear()
    stable_tails.cache_clear()
