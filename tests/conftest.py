import numpy as np
import pytest


@pytest.fixture
def split_levels():
    """The level list [1, x_1, ..., x_order] of a flat levels-1..order row
    over R^dim, such as one row of signature_many."""

    def split(row, dim, order):
        return [np.ones(())] + np.split(row, np.cumsum([dim**k for k in range(1, order)]))

    return split
