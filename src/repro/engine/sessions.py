"""Client sessions and connection attributes.

Workload identification in the surveyed systems is keyed off *who* is
submitting work: DB2 maps connections to workload objects via connection
attributes (application name, authorization id, client user id...), SQL
Server's classifier functions inspect the session, Teradata's "who"
classification criteria use user/account/application/client IP
(paper §2.2, §4.1).  Sessions carry those attributes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional

_session_ids = itertools.count(1)


@dataclass(frozen=True)
class ConnectionAttributes:
    """Origin attributes of a database connection (paper §2.2 "who")."""

    application: str = "unknown"
    user: str = "unknown"
    client_ip: str = "0.0.0.0"
    account: str = ""
    extra: Optional[frozenset] = None   # frozenset of (key, value) pairs

    def get(self, key: str, default: str = "") -> str:
        """Look up an attribute by name, including extras."""
        builtin = {
            "application": self.application,
            "user": self.user,
            "client_ip": self.client_ip,
            "account": self.account,
        }
        if key in builtin:
            return builtin[key]
        if self.extra:
            for k, v in self.extra:
                if k == key:
                    return v
        return default


@dataclass
class Session:
    """A client connection through which queries arrive."""

    attributes: ConnectionAttributes
    session_id: int = field(default_factory=lambda: next(_session_ids))


class SessionRegistry:
    """Tracks open sessions so identification can resolve session ids."""

    def __init__(self) -> None:
        self._sessions: Dict[int, Session] = {}

    def open(self, attributes: ConnectionAttributes) -> Session:
        session = Session(attributes=attributes)
        self._sessions[session.session_id] = session
        return session

    def close(self, session_id: int) -> None:
        self._sessions.pop(session_id, None)

    def get(self, session_id: Optional[int]) -> Optional[Session]:
        if session_id is None:
            return None
        return self._sessions.get(session_id)

    def __len__(self) -> int:
        return len(self._sessions)
