import os

import pytest


@pytest.fixture(autouse=True)
def no_forked_child_outlives_the_test():
    """Every process a test forks, directly or through the code it runs, is reaped before the test ends."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
