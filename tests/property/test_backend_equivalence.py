"""Property tests for the flow-backend seam.

The array kernel must be *bit-identical* to the dict reference backend
— same matching cost, same |Esub|, same matched pairs — on every
instance, for every exact method.  Reduced costs are evaluated with the
same float operation order in both kernels, so exact ``==`` comparisons
are the specification here, not an approximation.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.problem import CCAProblem
from repro.core.solve import solve

NON_REFERENCE = ("array",)

coord = st.floats(
    min_value=0.0, max_value=1000.0, allow_nan=False, allow_infinity=False
)
xy = st.tuples(coord, coord)

instance = st.tuples(
    st.lists(xy, min_size=1, max_size=5),                    # providers
    st.lists(st.integers(0, 4), min_size=1, max_size=5),     # capacities
    st.lists(xy, min_size=1, max_size=18),                   # customers
)


def _problem(q_xy, caps, p_xy, weights=None):
    caps = (caps * len(q_xy))[: len(q_xy)]
    if sum(caps) == 0:
        caps[0] = 1
    return CCAProblem.from_arrays(q_xy, caps, p_xy, customer_weights=weights)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=instance, method=st.sampled_from(["sspa", "ria", "nia", "ida"]))
def test_backends_bit_identical_all_exact_methods(data, method):
    q_xy, caps, p_xy = data
    # Separate problem objects: solvers cache R-trees and mutate networks.
    dict_m = solve(_problem(q_xy, caps, p_xy), method, backend="dict")
    for backend in NON_REFERENCE:
        m = solve(_problem(q_xy, caps, p_xy), method, backend=backend)
        assert m.cost == dict_m.cost            # bit-identical, not approx
        assert m.stats.esub_edges == dict_m.stats.esub_edges
        assert sorted(m.pairs) == sorted(dict_m.pairs)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=instance,
    weights=st.lists(st.integers(1, 3), min_size=1, max_size=18),
)
def test_backends_bit_identical_weighted_customers(data, weights):
    """CA's concise matching runs weighted customers through the seam."""
    q_xy, caps, p_xy = data
    caps = [max(c, 1) for c in (caps * len(q_xy))[: len(q_xy)]]
    w = (weights * len(p_xy))[: len(p_xy)]
    dict_m = solve(
        CCAProblem.from_arrays(q_xy, caps, p_xy, customer_weights=w),
        "ida",
        backend="dict",
    )
    for backend in NON_REFERENCE:
        m = solve(
            CCAProblem.from_arrays(q_xy, caps, p_xy, customer_weights=w),
            "ida",
            backend=backend,
        )
        assert m.cost == dict_m.cost
        assert m.stats.esub_edges == dict_m.stats.esub_edges
        assert sorted(m.pairs) == sorted(dict_m.pairs)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=instance, method=st.sampled_from(["san", "cae", "sm"]))
def test_backends_identical_through_approx_solvers(data, method):
    """SA/CA run IDA on the seam internally; SM validates the selector."""
    q_xy, caps, p_xy = data
    dict_m = solve(_problem(q_xy, caps, p_xy), method, backend="dict")
    for backend in NON_REFERENCE:
        m = solve(_problem(q_xy, caps, p_xy), method, backend=backend)
        assert m.cost == dict_m.cost
        assert sorted(m.pairs) == sorted(dict_m.pairs)
