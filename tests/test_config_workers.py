"""Property check that validate_config rejects every invalid workers value
with ConfigError. Needs hypothesis (the `test` extra in pyproject.toml)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosslearn.harness import ConfigError, validate_config

INVALID_WORKERS = st.one_of(
    st.integers(max_value=0), st.booleans(), st.none(), st.text(), st.floats(),
    st.lists(st.integers(min_value=1, max_value=4), max_size=2))


def config(workers):
    return {"env": {"kind": "tabular_synthetic", "C": 4, "K": 3},
            "algos": ["crosslearn", "exp3_per_context"], "T_grid": [64, 128],
            "seeds": [0, 1], "overrides": "calibrated", "workers": workers}


@settings(max_examples=60, deadline=None)
@given(workers=INVALID_WORKERS)
def test_invalid_workers_rejected(workers):
    with pytest.raises(ConfigError, match="workers"):
        validate_config(config(workers))
