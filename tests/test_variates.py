import numpy as np
import pytest

from qvar import (
    ConfigError,
    Distribution,
    InvalidRateError,
    draw_variates,
    make_streams,
    parse_distribution,
)


def test_deterministic_always_same():
    d = Distribution.deterministic(2.0)
    rng = np.random.default_rng(0)
    assert np.array_equal(draw_variates(d, rng, 10), np.full(10, 2.0))


def test_exponential_mean():
    d = Distribution.exponential(1.0)
    rng = np.random.default_rng(42)
    xs = draw_variates(d, rng, 10**6)
    assert xs.mean() == pytest.approx(1.0, abs=0.01)
    assert xs.min() > 0.0


def test_uniform_mean():
    d = Distribution.uniform(0.0, 2.0)
    rng = np.random.default_rng(42)
    xs = draw_variates(d, rng, 10**6)
    assert xs.mean() == pytest.approx(1.0, abs=0.01)
    assert xs.min() >= 0.0 and xs.max() < 2.0


def test_block_draw_equals_single_draws_bitwise():
    for d in (
        Distribution.exponential(0.7),
        Distribution.uniform(0.25, 1.75),
        Distribution.deterministic(1.5),
    ):
        # Chunks of 1, 65,535 and 34,464 draws, one stream, equal one block
        # of 100,000: a run may draw its variates block by block.
        block = draw_variates(d, np.random.default_rng(9), 100_000)
        rng = np.random.default_rng(9)
        chunks = [draw_variates(d, rng, k) for k in (1, 65_535, 34_464)]
        assert np.array_equal(block, np.concatenate(chunks))


class FixedUniforms:
    """A stand-in generator whose ``random`` returns given uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        assert size == len(self.u)
        return self.u.copy()


@pytest.mark.parametrize(
    "d",
    [
        Distribution.exponential(0.7),
        Distribution.uniform(0.25, 1.75),
        Distribution.deterministic(1.5),
    ],
    ids=lambda d: d.kind,
)
def test_draws_keep_the_bits_of_the_plain_expressions(d):
    # The transforms run in place on the uniforms, with the bits of the
    # plain expressions, also at the ends of [0, 1).
    u = np.concatenate(
        ([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53], np.random.default_rng(5).random(10_000))
    )
    expected = {
        "exponential": lambda: -np.log(1.0 - u) / d.rate,
        "uniform": lambda: d.lo + (d.hi - d.lo) * u,
        "deterministic": lambda: np.full(len(u), d.value, dtype=np.float64),
    }[d.kind]()
    got = draw_variates(d, FixedUniforms(u), len(u))
    assert got.dtype == np.float64
    assert got.tobytes() == expected.tobytes()


def test_means():
    assert Distribution.exponential(4.0).mean == 0.25
    assert Distribution.deterministic(1.5).mean == 1.5
    assert Distribution.uniform(1.0, 3.0).mean == 2.0


def test_parameter_validation():
    with pytest.raises(InvalidRateError):
        Distribution.exponential(0.0)
    with pytest.raises(InvalidRateError):
        Distribution.exponential(float("nan"))
    with pytest.raises(ConfigError):
        Distribution.deterministic(-1.0)
    with pytest.raises(ConfigError):
        Distribution.uniform(2.0, 1.0)
    with pytest.raises(ConfigError):
        Distribution.uniform(-0.5, 1.0)
    with pytest.raises(ConfigError):
        Distribution(kind="gamma", rate=1.0)


def test_parse_words():
    assert parse_distribution("exponential", 2.0) == Distribution.exponential(2.0)
    assert parse_distribution("deterministic", 2.0) == Distribution.deterministic(0.5)
    assert parse_distribution("uniform", 2.0) == Distribution.uniform(0.0, 1.0)


def test_parse_explicit_uniform_bounds():
    d = parse_distribution("uniform:0.5,1.5", 1.0)
    assert (d.lo, d.hi) == (0.5, 1.5)
    # bounds whose mean contradicts the rate are refused
    with pytest.raises(ConfigError):
        parse_distribution("uniform:0,1", 2.5)
    with pytest.raises(ConfigError):
        parse_distribution("uniform:1,nope", 1.0)


def test_parse_rejects_unknown():
    with pytest.raises(ConfigError):
        parse_distribution("cauchy", 1.0)
    with pytest.raises(ConfigError):
        parse_distribution("exponential:1", 1.0)
    with pytest.raises(InvalidRateError):
        parse_distribution("exponential", -1.0)


def test_describe_and_dict():
    d = Distribution.uniform(0.0, 2.0)
    assert "uniform" in d.describe()
    assert d.to_dict() == {"kind": "uniform", "lo": 0.0, "hi": 2.0}


def test_streams_deterministic_and_independent():
    a1, s1, d1 = make_streams(31337)
    a2, s2, d2 = make_streams(31337)
    assert np.array_equal(a1.random(64), a2.random(64))
    assert np.array_equal(s1.random(64), s2.random(64))
    assert np.array_equal(d1.random(64), d2.random(64))
    # the three streams are distinct children, not copies of one another
    b1, b2, b3 = (g.random(64) for g in make_streams(1))
    assert not np.array_equal(b1, b2)
    assert not np.array_equal(b2, b3)


def test_stream_seed_validation():
    with pytest.raises(ConfigError):
        make_streams(-1)
    with pytest.raises(ConfigError):
        make_streams(2**64)
    with pytest.raises(ConfigError):
        make_streams(1.5)  # type: ignore[arg-type]


def test_draw_size_validation():
    with pytest.raises(ConfigError):
        draw_variates(Distribution.exponential(1.0), np.random.default_rng(0), -1)
