import json
from math import comb

import pytest

from rejsamp.params import (ParameterSet, SecurityLevel, builtin_params,
                            is_mersenne, level_from_number)
from oracles import zero_fill_weight

PUBLISHED = {
    SecurityLevel.SL1: dict(q=127, l=3, V=52, M=18, v=156, m=54,
                            tau=2916, n_prime=2808),
    SecurityLevel.SL3: dict(q=127, l=3, V=76, M=26, v=228, m=78,
                            tau=6123, n_prime=5928),
    SecurityLevel.SL5: dict(q=127, l=3, V=102, M=35, v=306, m=105,
                            tau=11018, n_prime=10710),
}

# (tau, n', lambda) per level, written out so the tau rule below is checked
# apart from the package
TAU_RULE = {"SL1": (2916, 2808, 128), "SL3": (6123, 5928, 192),
            "SL5": (11018, 10710, 256)}


@pytest.mark.parametrize("level", list(SecurityLevel))
def test_builtin_matches_published_values(level):
    # v and m are derived only for the `rejsamp params` JSON
    d = builtin_params(level).to_dict()
    for field, want in PUBLISHED[level].items():
        assert d[field] == want, field


def test_is_mersenne():
    assert is_mersenne(127) and is_mersenne(7) and is_mersenne(1)
    assert not is_mersenne(126) and not is_mersenne(128) and not is_mersenne(0)


def test_invariant_violations_rejected():
    # v, m and n_prime are derived, so only q and tau can be inconsistent
    base = dict(sec_level=SecurityLevel.SL1, q=127, l=3, V=52, M=18,
                tau=2916, lambda_bits=128)
    assert ParameterSet(**base) == builtin_params(SecurityLevel.SL1)
    with pytest.raises(ValueError):
        ParameterSet(**{**base, "q": 126})
    with pytest.raises(ValueError):
        ParameterSet(**{**base, "tau": 2807})  # below n_prime


def test_to_dict_is_json_ready():
    d = builtin_params(SecurityLevel.SL1).to_dict()
    assert json.loads(json.dumps(d)) == d
    assert d["sec_level"] == "SL1" and d["tau"] == 2916
    # the `rejsamp params` JSON: the fields in order, then the word counts
    assert list(d) == ["sec_level", "q", "l", "V", "M", "v", "m", "tau",
                       "n_prime", "lambda_bits", "tau_addrs", "out_addrs",
                       "required_mem_words"]
    assert (d["tau_addrs"], d["out_addrs"], d["required_mem_words"]) == \
        (365, 351, 365)


def test_level_from_number():
    assert level_from_number(3) is SecurityLevel.SL3
    with pytest.raises(ValueError):
        level_from_number(2)


@pytest.mark.parametrize("tau,n_prime", [(1, 1), (2, 1), (5, 2), (7, 7),
                                         (30, 20)])
def test_zero_fill_weight_matches_binomial_sum(tau, n_prime):
    assert zero_fill_weight(tau, n_prime) == sum(
        comb(tau, r) * 127 ** (tau - r)
        for r in range(tau - n_prime + 1, tau + 1))


@pytest.mark.parametrize("level", sorted(TAU_RULE))
def test_tau_is_shortest_stream_below_zero_fill_bound(level):
    # P[zero-fill] = weight / 128^tau < 2^-lambda at tau, not at tau - 1
    tau, n_prime, lam = TAU_RULE[level]
    assert zero_fill_weight(tau, n_prime) << lam < 1 << 7 * tau
    assert zero_fill_weight(tau - 1, n_prime) << lam >= 1 << 7 * (tau - 1)


@pytest.mark.parametrize("level", list(SecurityLevel))
def test_builtin_levels_follow_tau_rule(level):
    p = builtin_params(level)
    assert (p.tau, p.n_prime, p.lambda_bits) == TAU_RULE[level.value]


@pytest.mark.parametrize("level", list(SecurityLevel))
def test_builtin_sets_are_built_once(level):
    assert builtin_params(level) is builtin_params(level)
    assert builtin_params(level.value) is builtin_params(level)
