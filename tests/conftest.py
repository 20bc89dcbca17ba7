"""Shared strategies for the suite: small designs and matching populations."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, settings, strategies as st

from cpsband import (
    CanonicalPoissonParams,
    PopulationFrame,
    cps_inclusion_from_poisson,
)

from helpers import canonicalize_poisson

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@st.composite
def design_params(draw, min_units: int = 2, max_units: int = 10):
    """Canonical fixed-size design with interior probabilities."""
    n_units = draw(st.integers(min_units, max_units))
    n = draw(st.integers(1, n_units - 1))
    raw = draw(
        st.lists(
            st.floats(0.05, 0.95),
            min_size=n_units,
            max_size=n_units,
        )
    )
    return canonicalize_poisson(np.asarray(raw), n)


@st.composite
def design_with_population(draw, min_units: int = 3, max_units: int = 10):
    """(population, canonical params, exact inclusion probabilities)."""
    params: CanonicalPoissonParams = draw(
        design_params(min_units=min_units, max_units=max_units)
    )
    n_units = params.p.shape[0]
    y = draw(
        st.lists(
            st.floats(-5.0, 5.0),
            min_size=n_units,
            max_size=n_units,
        )
    )
    x = draw(
        st.lists(
            st.floats(0.1, 10.0),
            min_size=n_units,
            max_size=n_units,
        )
    )
    pop = PopulationFrame(y=np.asarray(y), x=np.asarray(x))
    return pop, params, cps_inclusion_from_poisson(params)
