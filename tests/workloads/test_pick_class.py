"""Pin: the class column of ``WorkloadSpec.draw`` is draw-for-draw
identical to ``Generator.choice`` with probabilities.

``draw`` picks its ``n`` classes first, by inverting ``rng.random(n)``
against a cached CDF (documented in ``models.py``) instead of calling
``rng.choice(k, p=...)`` per request.  Committed scenario digests depend
on the two consuming the RNG stream identically, so this test compares
*every pick* across mixes with ``n`` sequential ``rng.choice`` draws —
if numpy ever changes ``Generator.choice``'s consumption pattern, this
fails loudly rather than silently shifting seeded workloads.  (The
stream position after the whole draw is pinned by the scalar oracle in
``test_draw.py``, whose picks are ``rng.choice`` too.)
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.models import (
    Constant,
    OpenArrivals,
    RequestClass,
    WorkloadSpec,
)


def _spec(weights):
    classes = tuple(
        RequestClass(name=f"class-{i}", cpu=Constant(1.0), io=Constant(1.0))
        for i in range(len(weights))
    )
    spec = WorkloadSpec(
        name="mix",
        request_classes=tuple(zip(classes, weights)),
        arrivals=OpenArrivals(rate=1.0),
    )
    return spec, classes


@given(
    weights=st.lists(
        st.floats(min_value=1e-3, max_value=50.0), min_size=1, max_size=8
    ),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=100, deadline=None)
def test_pick_class_matches_rng_choice_draw_for_draw(weights, seed):
    spec, classes = _spec(weights)
    probabilities = np.array(weights, dtype=float)
    probabilities = probabilities / probabilities.sum()

    choice_rng = np.random.default_rng(seed)
    picked = spec.draw(np.random.default_rng(seed), 32).request_class
    expected = [
        classes[int(choice_rng.choice(len(classes), p=probabilities))]
        for _ in range(32)
    ]
    assert len(picked) == 32
    assert all(a is b for a, b in zip(picked, expected))


def test_mix_template_cached_per_spec():
    spec, _ = _spec([1.0, 3.0])
    first = spec._mix_template()
    assert spec._mix_template() is first
