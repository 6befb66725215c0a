import pytest

from ontodesc.reasoner import reason
from ontodesc.syntax import load_seed


@pytest.fixture
def seed_world():
    return load_seed()


@pytest.fixture
def reasoned_seed():
    onto = load_seed()
    reason(onto)
    return onto
