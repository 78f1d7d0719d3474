"""The bound-check sampler against the per-value loop it replaced.

``list_samples`` is ``cli.unit_polydisk_samples`` as it was before the
points were drawn as one array: one ``random.uniform`` call per real
and per imaginary part, parameter by parameter, sample by sample. The
array must hold the same float64 bits in the same order, since every
bound-check ratio in a report is computed from them.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanscope.cli import unit_polydisk_samples
from jordanscope.scanner import MAX_SAMPLES


def list_samples(nparams, count, seed):
    rng = random.Random(seed)
    return [
        [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(nparams)]
        for _ in range(count)
    ]


def assert_same_bits(nparams, count, seed):
    got = unit_polydisk_samples(nparams, count, seed)
    want = np.array(list_samples(nparams, count, seed), dtype=complex)
    assert got.shape == want.shape == (count, nparams)
    assert got.dtype == np.complex128
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.one_of(st.integers(-(2**70), -1), st.just(0), st.integers(1, 2**16),
                   st.integers(2**64, 2**80)),
    nparams=st.integers(1, 3),
    count=st.integers(1, 2000),
)
def test_samples_have_the_bits_of_the_uniform_loop(seed, nparams, count):
    assert_same_bits(nparams, count, seed)


def test_samples_at_the_cap_have_the_bits_of_the_uniform_loop():
    assert_same_bits(2, MAX_SAMPLES, 1)
