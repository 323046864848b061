import signal

import pytest

from lehmer_ff import field_from_order, field_make, lehmer_set_bruteforce

# seconds a test may run; the slowest takes about 2.5 s
TEST_TIME_LIMIT = 60


@pytest.fixture(autouse=True)
def time_limit():
    """Fail the running test once it has run TEST_TIME_LIMIT seconds, so a
    kernel that loops forever fails one test instead of hanging the run."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran past the {TEST_TIME_LIMIT} s limit", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def f2():
    return field_make(2)


@pytest.fixture(scope="session")
def f3():
    return field_make(3)


@pytest.fixture(scope="session")
def f4():
    return field_make(2, 2)


@pytest.fixture(scope="session")
def f5():
    return field_make(5)


@pytest.fixture(scope="session")
def f9():
    return field_make(3, 2)


@pytest.fixture(scope="session")
def lehmer_sets():
    """One brute-force oracle sweep per field, shared by every test that
    inspects the hits or checks the structured sweep against them."""
    bounds = {2: 12, 3: 8, 4: 7, 5: 7}
    return {
        q: lehmer_set_bruteforce(field_from_order(q), bound)
        for q, bound in bounds.items()
    }
