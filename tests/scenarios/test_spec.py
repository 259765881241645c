"""ScenarioSpec data model: validation, building, serialization."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.scenarios.spec import (
    ArrivalSpec,
    ChaosSpec,
    PolicyConfig,
    ScenarioSpec,
    SLASpec,
    TenantSpec,
    WorkloadPattern,
    load_scenario_file,
)
from repro.workloads.models import (
    BatchArrivals,
    ClosedArrivals,
    DiurnalArrivals,
    OpenArrivals,
)


def _tenant(name="acme", **kwargs):
    return TenantSpec(
        name=name,
        workloads=(
            WorkloadPattern(
                kind="oltp",
                arrival=ArrivalSpec(kind="open", rate=5.0),
                sla=SLASpec(average=0.5, p95=2.0),
            ),
        ),
        **kwargs,
    )


def _spec(**kwargs):
    kwargs.setdefault("name", "unit")
    kwargs.setdefault("tenants", (_tenant(),))
    return ScenarioSpec(**kwargs)


class TestArrivalSpec:
    def test_builds_every_kind(self):
        assert isinstance(ArrivalSpec(kind="open", rate=2.0).build(), OpenArrivals)
        assert isinstance(
            ArrivalSpec(kind="diurnal", rate=2.0).build(), DiurnalArrivals
        )
        assert isinstance(
            ArrivalSpec(kind="batch", count=5, at=1.0).build(), BatchArrivals
        )
        assert isinstance(
            ArrivalSpec(kind="closed", population=3).build(), ClosedArrivals
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ArrivalSpec(kind="fractal")

    def test_flash_crowd_phases(self):
        arrival = ArrivalSpec.flash_crowd(rate=4.0, onset=10.0, end=20.0, burst=3.0)
        process = arrival.build()
        assert process.rate_at(5.0) == 4.0
        assert process.rate_at(15.0) == 12.0
        assert process.rate_at(25.0) == 4.0


class TestWorkloadPattern:
    def test_builds_namespaced_spec(self):
        pattern = WorkloadPattern(
            kind="bi",
            arrival=ArrivalSpec(kind="open", rate=0.2),
            priority=4,
            params=(("median_cpu", 3.0),),
        )
        spec = pattern.build("acme")
        assert spec.name == "acme/bi"
        assert spec.priority == 4
        assert isinstance(spec.arrivals, OpenArrivals)

    def test_label_overrides_kind(self):
        pattern = WorkloadPattern(
            kind="oltp", arrival=ArrivalSpec(), label="checkout"
        )
        assert pattern.build("shop").name == "shop/checkout"

    def test_reserved_characters_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadPattern(kind="oltp", arrival=ArrivalSpec(), label="a/b")
        with pytest.raises(ConfigurationError):
            WorkloadPattern(kind="nosuch", arrival=ArrivalSpec())


class TestTenantAndScenarioValidation:
    def test_tenant_name_rules(self):
        with pytest.raises(ConfigurationError):
            _tenant(name="a/b")
        with pytest.raises(ConfigurationError):
            _tenant(name="")

    def test_tenant_share_and_quota_rules(self):
        with pytest.raises(ConfigurationError):
            _tenant(share=0.0)
        with pytest.raises(ConfigurationError):
            _tenant(quota=-1)

    def test_duplicate_tenants_rejected(self):
        with pytest.raises(ConfigurationError):
            _spec(tenants=(_tenant(), _tenant()))

    def test_untenanted_workloads_stand_in_for_tenants(self):
        pattern = _tenant().workloads[0]
        spec = ScenarioSpec(name="solo", workloads=(pattern,))
        assert [(t, p.name_for(t)) for t, p in spec.patterns()] == [("", "oltp")]
        assert pattern.build().name == "oltp"
        with pytest.raises(ConfigurationError, match="no tenants and no workloads"):
            ScenarioSpec(name="empty")
        with pytest.raises(ConfigurationError, match="duplicate workload labels"):
            ScenarioSpec(name="twice", workloads=(pattern, pattern))

    @pytest.mark.parametrize(
        "bad",
        [
            dict(horizon=0.0),
            dict(horizon=-5.0),
            dict(speeds=(1.0, 0.0)),
            dict(speeds=(1.5,)),
        ],
        ids=str,
    )
    def test_out_of_range_horizon_and_speeds_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            _spec(**bad)

    def test_scenario_accessors(self):
        spec = _spec(
            tenants=(_tenant("a", share=2.0), _tenant("b", quota=7, noisy=True))
        )
        assert spec.shares() == {"a": 2.0, "b": 1.0}
        assert spec.quotas() == {"b": 7}
        assert spec.has_noisy
        assert [t.name for t in spec.without_noisy().tenants] == ["a"]
        assert spec.tenant("a").share == 2.0
        with pytest.raises(KeyError):
            spec.tenant("zzz")

    def test_without_noisy_is_identity_when_all_noisy_or_none(self):
        spec = _spec()
        assert spec.without_noisy() is spec
        all_noisy = _spec(tenants=(_tenant(noisy=True),))
        assert all_noisy.without_noisy() is all_noisy


class TestChaosSpec:
    def test_inactive_builds_no_faults(self):
        assert ChaosSpec().build_plan(4, 60.0) == ()

    def test_crash_waves_and_degrade_compose(self):
        chaos = ChaosSpec(crash_waves=1, degrade=((0.5, 1, 0.5),))
        plan = chaos.build_plan(4, 60.0)
        kinds = {event.kind.value for event in plan}
        assert {"crash", "recover", "degrade"} <= kinds
        times = [event.time for event in plan]
        assert times == sorted(times)

    def test_a_crash_wave_kills_and_revives_each_victim(self):
        plan = ChaosSpec(crash_waves=1, kill_fraction=0.5).build_plan(4, 100.0)
        assert [(e.time, e.node, e.kind.value) for e in plan] == [
            (50.0, "n0", "crash"),
            (50.0, "n1", "crash"),
            (65.0, "n0", "recover"),
            (65.0, "n1", "recover"),
        ]

    def test_a_degrade_window_ends_with_a_degrade_to_base_speed(self):
        plan = ChaosSpec(degrade=((0.25, 1, 0.5),), degrade_recovery=0.5).build_plan(4, 20.0)
        assert [(e.time, e.node, e.kind.value, e.factor) for e in plan] == [
            (5.0, "n1", "degrade", 0.5),
            (15.0, "n1", "degrade", 1.0),
        ]

    def test_named_crash_kills_and_optionally_revives_one_node(self):
        plan = ChaosSpec(
            crashes=((0.45, "n1", 0.7), (0.5, "n3", None))
        ).build_plan(4, 20.0)
        assert [(e.time, e.node, e.kind.value) for e in plan] == [
            (0.45 * 20.0, "n1", "crash"),
            (10.0, "n3", "crash"),
            (0.7 * 20.0, "n1", "recover"),
        ]

    @pytest.mark.parametrize(
        "crash",
        [(-0.1, "n1", None), (1.01, "n1", None), (0.5, "n1", 0.5), (0.5, "n1", 0.2)],
        ids=str,
    )
    def test_crash_outside_the_horizon_or_recovering_too_early_rejected(self, crash):
        with pytest.raises(ConfigurationError, match="n1"):
            ChaosSpec(crashes=(crash,))

    def test_plan_is_deterministic(self):
        chaos = ChaosSpec(crash_waves=2, degrade=((0.3, 0, 0.7),))
        assert chaos.build_plan(4, 60.0) == chaos.build_plan(4, 60.0)


class TestPolicyConfig:
    def test_queue_shares_require_pull(self):
        with pytest.raises(ConfigurationError):
            PolicyConfig(name="bad", queue_shares=True, dispatch="push")

    def test_unknown_placement_is_a_configuration_error(self):
        # the dispatch twin is test_matcher.py::TestBindingChoice
        with pytest.raises(ConfigurationError, match="unknown placement policy 'dartboard'"):
            PolicyConfig(name="bad", placement="dartboard")

    def test_describe_lists_armed_controls(self):
        assert "none" in PolicyConfig(name="base").describe()
        full = PolicyConfig(
            name="full",
            node_shares=True,
            cluster_quotas=True,
            queue_shares=True,
            dispatch="pull",
        )
        assert "node-shares" in full.describe()
        assert "queue-shares" in full.describe()


def _with_pattern(**fields):
    """A scenario whose one untenanted workload has ``fields`` on top."""
    return {"name": "x", "workloads": [{"kind": "oltp", "arrival": {}, **fields}]}


#: (input, the start of the message after "malformed scenario spec: ")
MALFORMED = [
    ({"name": "x", "tenants": "nope"}, "tenants: expected a list of mappings, got str"),
    (
        {"name": "x", "tenants": [{"name": "a", "workloads": 5}]},
        "tenants[0].workloads: expected a list of mappings, got int",
    ),
    ({"tenants": []}, "missing field 'name'"),
    ({"name": "x", "tenants": ["a"]}, "tenants[0]: expected a mapping, got str"),
    ({"name": "x", "tenants": [{"bogus": 1}]}, "tenants[0]: unknown field 'bogus'"),
    ({"name": "x", "workloads": [{"kind": "oltp"}]}, "workloads[0]: missing field 'arrival'"),
    (_with_pattern(kind="nope"), "workloads[0]: unknown workload kind 'nope'"),
    (_with_pattern(arrival=[]), "workloads[0].arrival: expected a mapping, got list"),
    (_with_pattern(arrival={"rate": "fast"}), "workloads[0].arrival.rate: expected float, got str"),
    (
        _with_pattern(arrival={"phases": [[1.0, 2.0, 3.0]]}),
        "workloads[0].arrival.phases[0]: expected [start, rate]",
    ),
    (_with_pattern(arrival={"kind": "poisson"}), "workloads[0].arrival: unknown arrival kind"),
    (_with_pattern(sla={"p99": 1.0}), "workloads[0].sla: unknown field 'p99'"),
    (_with_pattern(params=[["sigma", 1.0]]), "workloads[0].params: expected a mapping, got list"),
    (_with_pattern(priority="high"), "workloads[0].priority: expected int, got str"),
    ({**_with_pattern(), "chaos": 3}, "chaos: expected a mapping, got int"),
    (
        {**_with_pattern(), "chaos": {"degrade": [[0.5, "n1", 0.5]]}},
        "chaos.degrade[0]: expected [at, node index, factor]",
    ),
    ({**_with_pattern(), "chaos": {"crash_waves": -1}}, "chaos: crash_waves must be >= 0"),
    ({**_with_pattern(), "speeds": [1.0, "slow"]}, "speeds[1]: expected a number, got str"),
    ({**_with_pattern(), "nodes": True}, "nodes: expected int, got bool"),
    ({**_with_pattern(), "horizon": -1.0}, "horizon must be > 0"),
]


class TestSerialization:
    def _roundtrip(self, spec):
        data = json.loads(json.dumps(spec.as_dict()))
        return ScenarioSpec.from_dict(data)

    def test_round_trips_through_json(self):
        spec = _spec(
            tenants=(
                _tenant("a", share=2.0),
                TenantSpec(
                    name="b",
                    quota=5,
                    noisy=True,
                    workloads=(
                        WorkloadPattern(
                            kind="bi",
                            arrival=ArrivalSpec(
                                kind="open",
                                rate=1.0,
                                phases=((10.0, 4.0), (20.0, 1.0)),
                            ),
                            params=(("median_cpu", 3.0),),
                        ),
                    ),
                ),
            ),
            workloads=(
                WorkloadPattern(
                    kind="oltp", arrival=ArrivalSpec.flash_crowd(3.0, 5.0, 9.0)
                ),
            ),
            speeds=(1.0, 0.4),
            chaos=ChaosSpec(
                crash_waves=1,
                degrade=((0.5, 1, 0.5),),
                crashes=((0.25, "n1", 0.5), (0.75, "n0", None)),
            ),
        )
        assert self._roundtrip(spec) == spec
        assert ScenarioSpec.from_dict(spec.as_dict()) == spec

    def test_from_dict_wraps_errors(self):
        with pytest.raises(ConfigurationError, match="malformed scenario"):
            ScenarioSpec.from_dict({"name": "x"})
        with pytest.raises(ConfigurationError, match="malformed scenario"):
            ScenarioSpec.from_dict({"name": "x", "tenants": [{"bogus": 1}]})

    @pytest.mark.parametrize("data, message", MALFORMED)
    def test_a_malformed_spec_names_the_field(self, data, message, tmp_path):
        """One ``ConfigurationError`` naming the field's path and what it
        expected, from ``from_dict`` and from a JSON file alike."""
        expected = f"malformed scenario spec: {message}"
        with pytest.raises(ConfigurationError) as raised:
            ScenarioSpec.from_dict(data)
        assert str(raised.value).startswith(expected)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigurationError) as raised:
            load_scenario_file(path)
        assert str(raised.value).startswith(expected)


class TestFileLoading:
    def test_json_file_loads(self, tmp_path):
        spec = _spec()
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec.as_dict()))
        assert load_scenario_file(path) == spec

    def test_missing_file_is_clear(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            load_scenario_file(tmp_path / "nope.json")

    def test_malformed_json_is_clear(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="malformed JSON"):
            load_scenario_file(path)

    def test_non_mapping_payload_is_clear(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigurationError, match="mapping"):
            load_scenario_file(path)

    def test_yaml_path_gated_on_pyyaml(self, tmp_path):
        """With PyYAML the file loads; without it the error names it."""
        spec = _spec()
        path = tmp_path / "scenario.yaml"
        try:
            import yaml
        except ImportError:
            path.write_text("{}")
            with pytest.raises(ConfigurationError, match="PyYAML"):
                load_scenario_file(path)
        else:
            path.write_text(yaml.safe_dump(spec.as_dict()))
            assert load_scenario_file(path) == spec

    def test_yaml_error_message_without_pyyaml(self, tmp_path, monkeypatch):
        """Force the no-PyYAML branch regardless of the environment."""
        import builtins

        real_import = builtins.__import__

        def fake_import(name, *args, **kwargs):
            if name == "yaml":
                raise ImportError("No module named 'yaml'")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", fake_import)
        path = tmp_path / "scenario.yml"
        path.write_text("name: x")
        with pytest.raises(ConfigurationError, match="PyYAML"):
            load_scenario_file(path)
