import pytest

from qell.charmod import ScalarContext
from qell.groups import Permutation, cyclic, dihedral, symmetric


@pytest.fixture(scope="session")
def S3():
    return symmetric(3)


@pytest.fixture(scope="session")
def D4():
    return dihedral(4)


@pytest.fixture(scope="session")
def C4():
    return cyclic(4)


@pytest.fixture(scope="session")
def s3_ctx(S3):
    return ScalarContext.for_groups([S3])


@pytest.fixture(scope="session")
def c2_in_s3(S3):
    return S3.subgroup([Permutation([1, 0, 2])])


@pytest.fixture(scope="session")
def c3_in_s3(S3):
    return S3.subgroup([Permutation([1, 2, 0])])


@pytest.fixture(scope="session")
def assert_pass():
    """Assert that every (name, ok, detail) check from qell.verify passed."""
    def check(checks):
        assert all(ok for _, ok, _ in checks), [c for c in checks if not c[1]]
    return check
