import time

import pytest

from oracles import square_oracle as _square_oracle
from turankit import certificate, enumerate_all


@pytest.fixture(scope="session")
def h4_classes():
    return enumerate_all(4, 3)


@pytest.fixture(scope="session")
def h5_classes():
    return enumerate_all(5, 3)


@pytest.fixture(scope="session")
def e5free_classes():
    return certificate.e5free_six_classes()


@pytest.fixture(scope="session")
def term_vectors():
    """The size-6 expansion of each of the six certificate squares."""
    return certificate._term_vectors()


@pytest.fixture(scope="session")
def certificate_run():
    """(report, wall seconds) for the default certificate verification."""
    t0 = time.monotonic()
    report = certificate.verify_certificate()
    return report, time.monotonic() - t0


@pytest.fixture(scope="session")
def square_oracle():
    """The per-placement reference value of an averaged square on one host."""
    return _square_oracle
