import os

import pytest


@pytest.fixture
def no_child_left():
    """Fails the test if a worker process outlives it, finished or not."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
