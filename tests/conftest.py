import math
import time
from fractions import Fraction

import pytest

from turankit import certificate, enumerate_all, extension_density, pair_density, type_embeddings


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
def certificate_run():
    """(report, wall seconds) for the default certificate verification."""
    t0 = time.monotonic()
    report = certificate.verify_certificate()
    return report, time.monotonic() - t0


def _square_oracle(sigma, terms, constant, H):
    """Average over every injective type placement in H of the square
    (sum a_i F_i - c sigma)^2, one placement at a time through the public
    type_embeddings / pair_density / extension_density: no class tables,
    no whole-class arrays and no chain lift."""
    total = Fraction(0)
    for theta in type_embeddings(sigma, H):
        pair_part = sum(
            (a * b * pair_density(Fa, Fb, H, theta) for a, Fa in terms for b, Fb in terms),
            Fraction(0),
        )
        single_part = sum(
            (a * extension_density(F, H, theta) for a, F in terms), Fraction(0)
        )
        total += pair_part - 2 * constant * single_part + constant * constant
    return total / math.perm(H.n, sigma.n)


@pytest.fixture(scope="session")
def square_oracle():
    """The per-placement reference value of an averaged square on one host."""
    return _square_oracle
