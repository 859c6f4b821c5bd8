"""Physical invariances of the closed-form secrecy model.

Properties that every correct implementation has, whatever its conventions:
they rest on the physics, not on outputs of the code under test.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from irs_secrecy.scenario import dbm_to_watts
from irs_secrecy.secrecy import build_multi_eve_model

from conftest import make_stats, rand_psd

_PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)

# Each scalar is solved to a residual below TOL = 1e-10, and a mean moves by
# at most about its dimension times that: 1e-9 nats, relative to the mean
# where it is larger than 1. The covariance entries are cross traces of the
# same resolvents, held to 1e-8 of the largest entry.
MU_RTOL = 1e-9
Q_RTOL = 1e-8


def _scaled_noise(stats, c: float):
    """The statistics with every receiver's noise power scaled by c."""
    receivers = {tag: dataclasses.replace(rx, sigma2=c * rx.sigma2)
                 for tag, rx in stats.receivers.items()}
    return dataclasses.replace(stats, receivers=receivers)


class TestJointPowerNoiseScaling:
    """Scaling every precoder and every noise power by one c > 0 leaves every
    SNR, hence every rate, unchanged: the means mu and the covariance Q of
    the per-eavesdropper secrecy rates stay put."""

    @_PROPERTY
    @given(kind=st.sampled_from(["lbi", "double"]), n_eves=st.integers(1, 2),
           an=st.booleans(), seed=st.integers(0, 20), p_dbm=st.floats(0.0, 150.0),
           log10_c=st.floats(-18.0, 12.0))
    def test_means_and_covariance_are_invariant(self, kind, n_eves, an, seed, p_dbm,
                                                log10_c):
        stats = make_stats(kind, seed=seed, N_E=(3, 2)[:n_eves])
        rng = np.random.default_rng(seed)
        p = dbm_to_watts(p_dbm)
        P_W = rand_psd(stats.M, rng, scale=p)
        P_V = rand_psd(stats.M, rng, scale=0.1 * p) if an else None
        c = 10.0 ** log10_c
        base = build_multi_eve_model(stats, P_W, P_V)
        scaled = build_multi_eve_model(_scaled_noise(stats, c), c * P_W,
                                       None if P_V is None else c * P_V)
        assert np.all(np.abs(scaled.mu - base.mu)
                      <= MU_RTOL * np.maximum(np.abs(base.mu), 1.0)), (scaled.mu, base.mu)
        assert np.max(np.abs(scaled.Q - base.Q)) <= Q_RTOL * np.max(np.abs(base.Q))
