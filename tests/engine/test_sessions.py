"""Unit tests for sessions and connection attributes."""

from repro.engine.sessions import ConnectionAttributes, SessionRegistry


class TestConnectionAttributes:
    def test_builtin_lookup(self):
        attrs = ConnectionAttributes(application="app", user="u", client_ip="1.2.3.4")
        assert attrs.get("application") == "app"
        assert attrs.get("user") == "u"
        assert attrs.get("client_ip") == "1.2.3.4"

    def test_extra_attributes(self):
        attrs = ConnectionAttributes(extra=frozenset({("region", "eu")}))
        assert attrs.get("region") == "eu"

    def test_missing_attribute_default(self):
        assert ConnectionAttributes().get("nope", "dflt") == "dflt"


class TestRegistry:
    def test_open_assigns_unique_ids(self):
        registry = SessionRegistry()
        a = registry.open(ConnectionAttributes())
        b = registry.open(ConnectionAttributes())
        assert a.session_id != b.session_id
        assert len(registry) == 2

    def test_get_by_id(self):
        registry = SessionRegistry()
        session = registry.open(ConnectionAttributes(application="x"))
        assert registry.get(session.session_id) is session

    def test_get_none_or_unknown(self):
        registry = SessionRegistry()
        assert registry.get(None) is None
        assert registry.get(424242) is None

    def test_close_removes(self):
        registry = SessionRegistry()
        session = registry.open(ConnectionAttributes())
        registry.close(session.session_id)
        assert registry.get(session.session_id) is None
