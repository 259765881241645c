"""Property-based equivalence: the engine's shares vs the reference.

An engine shares the machine by a closed form of its virtual clock (one
round, fits) when one holds and by :func:`fill_two_resource` at a
resync otherwise.  These tests pin both to the reference allocator in
``fills.py`` — the exact fill bit for bit, the clock's settled speeds to
solver tolerance — and to the fair-share invariants, across generated
request mixes in every regime.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.resources import ResourceKind
from tests.engine.fills import (
    LIVE_FILLS,
    ShareRequest,
    clock_speeds,
    exact_speeds,
    reference_speeds,
    usage,
)

SPEED_TOL = 1e-9

demand_strategy = st.fixed_dictionaries(
    {},
    optional={
        ResourceKind.CPU: st.floats(min_value=0.0, max_value=50.0),
        ResourceKind.DISK: st.floats(min_value=0.0, max_value=50.0),
    },
)

request_strategy = st.builds(
    lambda weight, demands, cap: (weight, demands, cap),
    weight=st.one_of(
        st.just(0.0), st.floats(min_value=1e-6, max_value=100.0)
    ),
    demands=demand_strategy,
    cap=st.one_of(
        st.just(0.0), st.floats(min_value=1e-6, max_value=10.0)
    ),
)

requests_strategy = st.lists(request_strategy, min_size=0, max_size=60).map(
    lambda rows: [
        ShareRequest(key=i, weight=w, demands=d, speed_cap=c)
        for i, (w, d, c) in enumerate(rows)
    ]
)

capacity_strategy = st.fixed_dictionaries(
    {
        ResourceKind.CPU: st.floats(min_value=0.1, max_value=64.0),
        ResourceKind.DISK: st.floats(min_value=0.1, max_value=64.0),
    }
)


@given(requests=requests_strategy, capacities=capacity_strategy)
@example(
    # CPU and disk bind within 1e-15 of each other and the first request
    # demands disk only: the tie must break in capacity order in both.
    requests=[
        ShareRequest(0, 3.0, {ResourceKind.DISK: 0.1}, speed_cap=10.0),
        ShareRequest(
            1, 0.3, {ResourceKind.CPU: 1.1, ResourceKind.DISK: 0.1}, speed_cap=10.0
        ),
    ],
    capacities={ResourceKind.CPU: 1.0, ResourceKind.DISK: 1.0},
)
@settings(max_examples=200, deadline=None)
def test_optimized_matches_reference(requests, capacities):
    """The scalar fill mirrors the reference rounds, so at every size it
    reproduces the reference bit for bit."""
    assert exact_speeds(requests, capacities) == reference_speeds(
        requests, capacities
    )


@given(requests=requests_strategy, capacities=capacity_strategy)
@settings(max_examples=200, deadline=None)
def test_clock_shares_match_reference(requests, capacities):
    """The clock's closed forms (and its exact fill where none holds)
    agree with the reference rounds to solver tolerance on every request."""
    got = clock_speeds(requests, capacities)
    want = reference_speeds(requests, capacities)
    assert set(got) == set(want)
    for key, speed in want.items():
        assert math.isclose(
            got[key], speed, rel_tol=SPEED_TOL, abs_tol=SPEED_TOL
        ), f"request {key}: clock {got[key]} vs reference {speed}"


@given(requests=requests_strategy, capacities=capacity_strategy)
@settings(max_examples=200, deadline=None)
def test_fair_share_invariants(requests, capacities):
    for fill in LIVE_FILLS:
        speeds = fill(requests, capacities)
        used = {kind: usage(requests, speeds, kind) for kind in capacities}

        # Capacity: total usage never exceeds any resource's capacity.
        for kind, capacity in capacities.items():
            assert used[kind] <= capacity * (1 + 1e-9) + 1e-9, fill.__name__

        saturated = {
            kind
            for kind, capacity in capacities.items()
            if used[kind] >= capacity * (1 - 1e-6)
        }
        for req in requests:
            speed = speeds[req.key]
            # Cap: no request exceeds its speed cap.
            assert speed <= req.speed_cap * (1 + 1e-9) + 1e-9, fill.__name__
            assert speed >= 0.0
            # Max-min: a non-trivial request below its cap must be blocked
            # by a saturated resource it demands.
            positive = {k for k, v in req.demands.items() if v > 0}
            if (
                positive
                and req.weight > 0
                and req.speed_cap > 0
                and speed < req.speed_cap * (1 - 1e-6)
            ):
                assert positive & saturated, (
                    f"{fill.__name__}: request {req.key} runs below cap "
                    f"with no saturated resource among its demands"
                )


def test_small_sets_are_bit_identical_to_reference():
    """A fixed set of the size the exact fill sees in an engine at a
    resync, both resources contended and caps binding: seeded
    trajectories depend on these bits."""
    capacities = {ResourceKind.CPU: 4.0, ResourceKind.DISK: 2.0}
    requests = [
        ShareRequest(
            key=i,
            weight=0.5 + 0.25 * i,
            demands={
                ResourceKind.CPU: 0.3 + 0.1 * i,
                ResourceKind.DISK: 1.0 / (i + 1),
            },
            speed_cap=0.2 + 0.15 * i,
        )
        for i in range(12)
    ]
    got = exact_speeds(requests, capacities)
    want = reference_speeds(requests, capacities)
    assert got == want  # exact, not approx
