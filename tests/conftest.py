import pytest

from ptstrace import build_rep, linear

from systems import (CANTOR, CONGRUENCE_XZ, HALF_LOOP_XY,
                     SINGLE_LETTER_CHAIN, TWO_LETTER_YZ, load)


@pytest.fixture
def chain_pts():
    return load(SINGLE_LETTER_CHAIN)


@pytest.fixture
def chain_rep(chain_pts):
    return build_rep(chain_pts)


@pytest.fixture
def cantor_pts():
    return load(CANTOR)


@pytest.fixture
def cantor_rep(cantor_pts):
    return build_rep(cantor_pts)


@pytest.fixture
def worked_pts():
    return load(CONGRUENCE_XZ)


@pytest.fixture
def worked_rep(worked_pts):
    return build_rep(worked_pts)


@pytest.fixture
def yz_pts():
    return load(TWO_LETTER_YZ)


@pytest.fixture
def yz_rep(yz_pts):
    return build_rep(yz_pts)


@pytest.fixture
def half_loop_pts():
    return load(HALF_LOOP_XY)


@pytest.fixture
def half_loop_rep(half_loop_pts):
    return build_rep(half_loop_pts)


@pytest.fixture
def walk_steps(monkeypatch):
    """Every kernel product as ``(accumulator, input vector)``, in call
    order: every step goes through the one selection site,
    ``linear._product``, which hands it to the dict accumulator
    (``"sparse"``, ``linear._sparse_product``) or the list one (``"dense"``,
    ``linear._dense_product``)."""
    steps, sparse, dense = [], linear._sparse_product, linear._dense_product

    def sparse_step(columns, nums):
        steps.append(("sparse", nums))
        return sparse(columns, nums)

    def dense_step(columns, nums):
        steps.append(("dense", nums))
        return dense(columns, nums)

    monkeypatch.setattr(linear, "_sparse_product", sparse_step)
    monkeypatch.setattr(linear, "_dense_product", dense_step)
    return steps
