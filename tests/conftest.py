import pytest

from lehmer_ff import field_from_order, field_make, lehmer_set_bruteforce


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
