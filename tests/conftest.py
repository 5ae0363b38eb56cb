import sys

import pytest


@pytest.fixture
def int_str_limit():
    """The setter of Python's int-to-str digit limit (0 disables it); the
    limit in force before the test comes back on teardown."""
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)
