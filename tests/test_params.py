import dataclasses
import math

import numpy as np
import pytest

from crosslearn.learner import (
    ParamError,
    Params,
    calibrated_params,
    tune_parameters,
    with_overrides,
)

# frozen expected values for K=2, T=10^4, recomputed below from scratch
CONF_2_1E4 = 23.965858188431927
L_2_1E4 = 832
GAMMA_2_1E4 = 0.4608818882390755
ETA_2_1E4 = 0.000166621918403833


def test_tuned_example_frozen_values():
    p = tune_parameters(2, 10_000)
    assert p.conf == pytest.approx(CONF_2_1E4, rel=1e-12)
    assert p.epoch_len == L_2_1E4
    assert p.gamma == pytest.approx(GAMMA_2_1E4, rel=1e-12)
    assert p.eta == pytest.approx(ETA_2_1E4, rel=1e-9)


def test_tuned_matches_independent_recompute():
    # same formulas, written independently: conf = 2 log(8KT),
    # L = round_to_even sqrt(conf K T / log K), gamma = 16 conf / L,
    # eta = min(gamma / (2 (2 L gamma + conf)), log2 / (5 L))
    for K, T in [(2, 10_000), (3, 999), (8, 131072), (64, 10**6), (5, 50)]:
        p = tune_parameters(K, T)
        conf = 2.0 * np.log(8.0 * K * T)
        raw = np.sqrt(conf * K * T / np.log(K))
        L = int(2 * round(raw / 2))
        L = max(2, min(L, T - (T % 2)))
        gamma = 16.0 * conf / L
        eta = min(gamma / (2 * (2 * L * gamma + conf)), np.log(2) / (5 * L))
        assert p.conf == pytest.approx(conf, rel=1e-9)
        assert p.epoch_len == L
        assert p.gamma == pytest.approx(gamma, rel=1e-9)
        assert p.eta == pytest.approx(eta, rel=1e-9)


def test_gamma_epoch_len_identity():
    for K, T in [(2, 1000), (4, 12345), (16, 2**17)]:
        p = tune_parameters(K, T)
        assert p.gamma * p.epoch_len == pytest.approx(16.0 * p.conf, rel=1e-12)


def test_epoch_len_even_and_clamped():
    for K, T in [(2, 2), (2, 3), (3, 7), (2, 10**7)]:
        p = tune_parameters(K, T)
        assert p.epoch_len % 2 == 0
        assert 2 <= p.epoch_len <= T


def test_validate_names_violated_invariant():
    base = tune_parameters(4, 4096)
    with pytest.raises(ParamError, match="gamma >= 16\\*conf/epoch_len"):
        with_overrides(base, gamma=base.gamma / 100)
    with pytest.raises(ParamError, match="eta <= gamma"):
        with_overrides(base, eta=base.eta * 1000)
    with pytest.raises(ParamError, match="epoch_len must be even"):
        with_overrides(base, L=7)
    bad = Params(n_arms=4, horizon=4096, conf=0.1, epoch_len=base.epoch_len,
                 gamma=base.gamma, eta=1e-6)
    with pytest.raises(ParamError, match="conf >= log"):
        bad.validate()


def test_validate_structure_basics():
    # the structure is checked when a Params is built, a replace() included
    with pytest.raises(ParamError, match="n_arms >= 2"):
        Params(1, 100, 1.0, 2, 0.1, 0.1)
    with pytest.raises(ParamError, match="horizon >= n_arms"):
        Params(8, 4, 1.0, 2, 0.1, 0.1)
    with pytest.raises(ParamError, match="epoch_len must be even"):
        Params(2, 10, 1.0, 3, 0.1, 0.1)
    with pytest.raises(ParamError, match="epoch_len <= horizon"):
        Params(2, 10, 1.0, 12, 0.1, 0.1)
    with pytest.raises(ParamError, match="gamma > 0"):
        Params(2, 10, 1.0, 2, 0.0, 0.1)
    with pytest.raises(ParamError, match="eta > 0"):
        Params(2, 10, 1.0, 2, 0.1, float("nan"))
    with pytest.raises(ParamError, match="conf > 0"):
        Params(2, 10, float("inf"), 2, 0.1, 0.1)
    with pytest.raises(ParamError, match="epoch_len must be even"):
        dataclasses.replace(Params(2, 10, 1.0, 2, 0.1, 0.1), epoch_len=7)


def test_unsafe_override_skips_rate_checks():
    base = tune_parameters(4, 4096)
    loose = with_overrides(base, gamma=1e-4, eta=0.01, unsafe=True)
    assert loose.gamma == 1e-4 and loose.eta == 0.01
    with pytest.raises(ParamError):
        with_overrides(base, gamma=1e-4, eta=0.01)
    # the rate inequalities only: the structure holds for every Params
    for bad, match in (({"L": 7}, "even"), ({"eta": -1.0}, "eta > 0"),
                       ({"L": 8192}, "epoch_len <= horizon")):
        with pytest.raises(ParamError, match=match):
            with_overrides(base, unsafe=True, **bad)


def test_safe_override_roundtrip():
    base = tune_parameters(4, 4096)
    same = with_overrides(base)
    assert same == base
    shifted = with_overrides(base, eta=base.eta / 2)
    assert shifted.eta == base.eta / 2
    assert shifted.gamma == base.gamma


def test_calibrated_params_structure():
    p = calibrated_params(8, 2**17)
    assert p.epoch_len % 2 == 0
    # calibrated values intentionally sit outside the tuned-rate invariants
    with pytest.raises(ParamError):
        p.validate()
    assert p.gamma == pytest.approx(0.5 / p.epoch_len, rel=1e-12)


def test_tuned_rejects_tiny_problems():
    with pytest.raises(ParamError):
        tune_parameters(1, 100)
    with pytest.raises(ParamError):
        tune_parameters(10, 5)
