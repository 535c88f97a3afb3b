import numpy as np

from sigclass.tensor_algebra import exp_levels, feature_length, log_levels, mul_levels


def random_tensor(rng, dim, order, grouplike=False, lielike=False):
    levels = [rng.normal(size=dim**k) for k in range(order + 1)]
    levels[0] = levels[0].reshape(())
    if grouplike:
        levels[0] = np.ones(())
    elif lielike:
        levels[0] = np.zeros(())
    return levels


def identity(dim, order):
    return [np.ones(())] + [np.zeros(dim**k) for k in range(1, order + 1)]


def from_level1(vec, order):
    """Level 1 = vec, every other level zero."""
    v = np.asarray(vec, dtype=np.float64)
    return [np.zeros(()), v] + [np.zeros(v.size**k) for k in range(2, order + 1)]


def flat(levels):
    return np.concatenate([lv.reshape(-1) for lv in levels])


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------


def test_identity_is_left_unit():
    rng = np.random.default_rng(0)
    b = random_tensor(rng, 2, 3)
    out = mul_levels(identity(2, 3), b)
    assert np.allclose(flat(out), flat(b), atol=0, rtol=0)


def test_product_of_unit_increment_exponentials():
    a = exp_levels(from_level1([1.0, 0.0], 2))
    b = exp_levels(from_level1([0.0, 1.0], 2))
    ab = mul_levels(a, b)
    assert np.allclose(ab[1], [1.0, 1.0])
    assert np.allclose(ab[2], [0.5, 1.0, 0.0, 0.5])


def test_collinear_exponentials_compose():
    delta = np.array([0.3, -0.2, 0.1])
    a = exp_levels(from_level1(delta, 3))
    twice = exp_levels(from_level1(2 * delta, 3))
    prod = mul_levels(a, a)
    assert np.allclose(flat(prod), flat(twice), atol=1e-14)


def test_exp_of_zero_is_identity():
    out = exp_levels(from_level1(np.zeros(3), 3))
    assert np.allclose(flat(out), flat(identity(3, 3)), atol=0)


def test_exp_closed_form_level2():
    e = exp_levels(from_level1([1.0, 2.0], 2))
    assert np.allclose(e[1], [1.0, 2.0])
    assert np.allclose(e[2], [0.5, 1.0, 1.0, 2.0])


def test_exp_closed_form_level3():
    v = np.array([0.5, -1.0, 2.0])
    e = exp_levels(from_level1(v, 3))
    expected = np.einsum("i,j,k->ijk", v, v, v).reshape(-1) / 6.0
    assert np.allclose(e[3], expected, atol=1e-15)


def test_log_of_identity_is_zero():
    out = log_levels(identity(2, 3))
    assert np.allclose(flat(out), 0.0, atol=0)


def test_log_exp_roundtrip_level1_only():
    back = log_levels(exp_levels(from_level1([0.7, -0.3], 2)))
    assert np.allclose(back[1], [0.7, -0.3], atol=1e-15)
    assert np.allclose(back[2], 0.0, atol=1e-15)


def test_log_first_bracket():
    a = exp_levels(from_level1([1.0, 0.0], 2))
    b = exp_levels(from_level1([0.0, 1.0], 2))
    lg = log_levels(mul_levels(a, b))
    assert np.allclose(lg[1], [1.0, 1.0])
    assert np.allclose(lg[2], [0.0, 0.5, -0.5, 0.0], atol=1e-15)


# ---------------------------------------------------------------------------
# randomized invariants
# ---------------------------------------------------------------------------


def test_product_associative():
    rng = np.random.default_rng(42)
    for _ in range(60):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        a, b, c = (random_tensor(rng, d, n) for _ in range(3))
        left = flat(mul_levels(mul_levels(a, b), c))
        right = flat(mul_levels(a, mul_levels(b, c)))
        scale = max(np.abs(right).max(), 1.0)
        assert np.abs(left - right).max() / scale < 1e-12


def test_log_exp_roundtrip_random():
    rng = np.random.default_rng(7)
    for _ in range(60):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        x = random_tensor(rng, d, n, lielike=True)
        back = log_levels(exp_levels(x))
        scale = max(np.abs(flat(x)).max(), 1.0)
        assert np.abs(flat(back) - flat(x)).max() / scale < 1e-12


def test_parallel_level1_exponentials_add():
    rng = np.random.default_rng(11)
    for _ in range(40):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        v = rng.normal(size=d)
        s, t = rng.normal(size=2)
        prod = mul_levels(exp_levels(from_level1(s * v, n)), exp_levels(from_level1(t * v, n)))
        joint = exp_levels(from_level1((s + t) * v, n))
        scale = max(np.abs(flat(joint)).max(), 1.0)
        assert np.abs(flat(prod) - flat(joint)).max() / scale < 1e-12


def test_feature_count_formula():
    for d in range(1, 5):
        for n in range(1, 5):
            assert feature_length(d, n) == sum(d**k for k in range(1, n + 1))
            e = exp_levels(from_level1(np.ones(d), n))
            assert np.concatenate(e[1:]).size == feature_length(d, n)
