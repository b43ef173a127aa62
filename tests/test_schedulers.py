import math

import numpy as np
import pytest

from graphbandit.errors import ConfigError
from graphbandit.schedulers import (
    DoublingSchedule,
    DoublingState,
    FixedEta,
    InverseSqrtEta,
    eta_at,
    format_schedule,
    gr_doubling_params,
    ip_doubling_step,
    parse_schedule,
    up_doubling_params,
    up_start_epoch,
)

# Hand-evaluated: sqrt(ln 4 / 2^6); ceil(2^4/2 + ln 16); (2*sqrt(2)+3)*sqrt(ln 1024).
ETA_K4_B5 = 0.14717625281443433
M_UP_K4_B5 = 11
XI_K4_B5 = 15.344901365320545
# Hand-evaluated: ceil(6 * 4 * ln 2 / (0.25 * sqrt(ln 4))) = ceil(56.5157).
M_GR_K4_B5 = 57


class TestParsing:
    def test_round_trips(self):
        for text in ("fixed:0.125", "inverse-sqrt", "doubling"):
            assert format_schedule(parse_schedule(text)) == text

    def test_bad_specs(self):
        for text in ("fixed:", "fixed:abc", "sqrt", "fixed:1.5", "fixed:0"):
            with pytest.raises(ConfigError):
                parse_schedule(text)

    def test_eta_at(self):
        assert eta_at(FixedEta(0.2), 99) == 0.2
        assert eta_at(InverseSqrtEta(), 4) == 0.5
        with pytest.raises(ValueError):
            eta_at(DoublingSchedule(), 1)


class TestUpDoublingParams:
    def test_frozen_values(self):
        eta, m, xi = up_doubling_params(5, 4)
        assert eta == pytest.approx(ETA_K4_B5, rel=1e-4)
        assert m == M_UP_K4_B5
        assert xi == pytest.approx(XI_K4_B5, rel=1e-4)

    def test_start_epoch_guard(self):
        assert up_start_epoch(4) == 2
        with pytest.raises(ValueError, match="start epoch"):
            up_doubling_params(1, 4)

    def test_eta_halves_in_sqrt_sense(self):
        for k in (2, 4, 16):
            b0 = up_start_epoch(k)
            etas = [up_doubling_params(b, k)[0] for b in range(b0, b0 + 6)]
            for a, b in zip(etas, etas[1:]):
                assert b / a == pytest.approx(1 / math.sqrt(2), abs=1e-15)
            for a, b in zip(etas, etas[2:]):
                assert b / a == 0.5  # two epochs divide the squared rate by 4 exactly

    def test_sample_floor_supports_the_confidence_width(self):
        # M must be at least (4 xi L / (xi^2 - L))^2 for L = ln(4K 2^(b+1)),
        # the condition that keeps all per-edge deviation bounds summable.
        for k in range(2, 65):
            for b in range(up_start_epoch(k), up_start_epoch(k) + 20):
                eta, m, xi = up_doubling_params(b, k)
                bound_log = math.log(4 * k * 2.0 ** (b + 1))
                assert xi**2 > bound_log
                assert m >= (4 * xi * bound_log / (xi**2 - bound_log)) ** 2


class TestGrDoublingParams:
    def test_frozen_values(self):
        eta, m = gr_doubling_params(5, 4, dom_size=1, epsilon=0.25)
        assert eta == pytest.approx(ETA_K4_B5, rel=1e-4)
        assert m == M_GR_K4_B5

    def test_sample_floor_scales_linearly_with_dominating_set(self):
        raw = 6 * math.sqrt(2**4) * math.log(2) / (0.25 * math.sqrt(math.log(4)))
        assert gr_doubling_params(5, 4, 1, 0.25)[1] == math.ceil(raw)
        assert gr_doubling_params(5, 4, 2, 0.25)[1] == math.ceil(2 * raw)
        assert gr_doubling_params(5, 4, 4, 0.25)[1] == math.ceil(4 * raw)

    def test_one_expert_rejected_as_a_config_error(self):
        message = r"^exp3-gr with the doubling schedule needs K >= 2 \(ln K must be positive\)$"
        with pytest.raises(ConfigError, match=message):
            gr_doubling_params(0, 1, 1, 0.5)

    def test_epsilon_required(self):
        with pytest.raises(ValueError, match="epsilon"):
            gr_doubling_params(3, 4, 1, 0.0)
        with pytest.raises(ValueError, match="epsilon"):
            gr_doubling_params(3, 4, 1, -1.0)

    def test_sample_floor_meets_the_decay_bound(self):
        # M * (eta * epsilon / |D|) >= ((b+1)/2) ln 2 drives the missed-loss
        # term down to 2^-((b+1)/2) per round.
        for k in (2, 4, 9, 32):
            for dom in (1, 2, 5):
                for eps in (0.1, 0.25, 0.9):
                    for b in range(0, 22):
                        eta, m = gr_doubling_params(b, k, dom, eps)
                        assert m * eta * eps / dom >= (b + 1) / 2 * math.log(2) - 1e-9


class TestIpDoublingStep:
    def test_load_on_bandit_with_unit_probabilities(self):
        # With q_i = pi_i the per-round load is 1 + K/2, whatever the pmf.
        k = 4
        probs = np.full(k, 1 / k)
        state, restart, eta = ip_doubling_step(DoublingState(), probs, probs, math.log(k))
        assert state.accumulated == pytest.approx(1 + k / 2)

    def test_no_restart_below_threshold(self):
        state = DoublingState(epoch=4, accumulated=10.0)
        probs = np.array([0.5, 0.5])
        new, restart, eta = ip_doubling_step(state, probs, np.array([0.5, 0.5]), math.log(2))
        assert not restart
        assert new.epoch == 4
        assert eta == pytest.approx(math.sqrt(math.log(2) / 2**5))

    def test_first_overflow_for_two_experts(self):
        # Round one accumulates 1 + K/2 = 2 > 2^0, so the epoch jumps to 1 and
        # eta becomes sqrt(ln 2 / 4).
        probs = np.array([0.5, 0.5])
        state, restart, eta = ip_doubling_step(DoublingState(), probs, probs, math.log(2))
        assert restart
        assert state.epoch == 1
        assert eta == pytest.approx(0.41627730557884884, rel=1e-9)

    def test_epoch_jumps_to_smallest_sufficient(self):
        state = DoublingState(epoch=0, accumulated=0.0)
        new, restart, _ = ip_doubling_step(state, np.array([1.0]), np.array([0.1]), math.log(2))
        # load = 1 + 5 = 6 -> smallest epoch with 6 <= 2^r is r = 3
        assert restart and new.epoch == 3

    def test_accumulated_grows_at_least_one_per_round(self):
        rng = np.random.default_rng(1)
        state = DoublingState()
        for _ in range(50):
            probs = rng.dirichlet(np.ones(3))
            q = rng.uniform(0.1, 1.0, size=3)
            before = state.accumulated
            state, _, _ = ip_doubling_step(state, probs, q, math.log(3))
            assert state.accumulated >= before + 1.0

    def test_rejects_nonpositive_q(self):
        with pytest.raises(ValueError):
            ip_doubling_step(DoublingState(), np.array([1.0]), np.array([0.0]), 0.0)
