import signal
import time

import pytest


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_overrunning_test_fails_instead_of_stalling():
    # the autouse fixture in conftest.py installs the handler; fire it early
    with pytest.raises(pytest.fail.Exception, match="test ran past"):
        signal.alarm(1)
        time.sleep(10)
