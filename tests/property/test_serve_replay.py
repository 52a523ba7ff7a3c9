"""Property: service replay ≡ cold solve, across flow × index backends.

For any seeding instance, any generated event stream, and any batching
window, the single-shard service's live matching after the replay must be
bit-identical to a cold solve of the final problem state — on every flow
kernel (dict / array) crossed with every index
backend (pointer / packed).  This is the serving layer's acceptance
contract; the bench gate re-checks one point of it in CI, this file
sweeps the space.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datagen.events import EventStreamSpec, generate_events
from repro.datagen.workloads import make_problem
from repro.rtree.backend import INDEX_BACKENDS
from repro.serve.engine import OnlineAssignmentService

FLOW_AXES = ("dict", "array")
INDEX_AXES = tuple(INDEX_BACKENDS)

stream_shape = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**16),
        "stream_seed": st.integers(0, 2**16),
        "profile": st.sampled_from(("steady", "burst", "diurnal")),
        "n_events": st.integers(1, 40),
        "p_depart": st.floats(0.0, 0.6),
        "p_capacity": st.floats(0.0, 0.3),
        "window": st.sampled_from((0.0, 0.1, 1.0)),
        "k": st.integers(1, 8),
    }
)


def _replay(shape, backend, index_backend):
    problem = make_problem(
        nq=5, np_=25, k=shape["k"], seed=shape["seed"], network_grid=8
    )
    spec = EventStreamSpec(
        n_events=shape["n_events"],
        profile=shape["profile"],
        rate=20.0,
        p_depart=shape["p_depart"],
        p_capacity=shape["p_capacity"],
    )
    events = generate_events(problem, spec, seed=shape["stream_seed"])
    service = OnlineAssignmentService(
        problem, shards=1, backend=backend, index_backend=index_backend
    )
    service.run(events, window=shape["window"])
    return service


@pytest.mark.parametrize("index_backend", INDEX_AXES)
@pytest.mark.parametrize("backend", FLOW_AXES)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(shape=stream_shape)
def test_replay_bit_identical_to_cold(shape, backend, index_backend):
    service = _replay(shape, backend, index_backend)
    report = service.verify_against_cold()
    assert report["identical"], report
    assert report["live_size"] == service.final_problem().gamma


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(shape=stream_shape)
def test_backends_agree_with_each_other(shape):
    """All kernel combinations must also agree pairwise on the *live*
    pairs (not just each against its own cold reference)."""
    reference = sorted(_replay(shape, "dict", "pointer").live_pairs())
    for backend, ids in (("array", "packed"), ("array", "pointer")):
        assert (sorted(_replay(shape, backend, ids).live_pairs()) == reference)
