"""Well-formed traffic is byte-compatible with the commit before ``wire.py``.

One fixed scripted session — submit ×3 (a cache hit and a weighted query
among them), poll, stream with ``from`` > 0, cancel, stats, metrics, a
throttled submit, a submit while draining, unknown sessions, shutdown —
is played over a raw socket against a ``RankJoinServer`` and against a
2-worker ``ServeFleet``.  The decoded replies, with clocks, latencies,
trace ids and paths masked, must equal ``wire_golden.json``, which was
recorded by running this very file against the parent commit::

    PYTHONPATH=<parent>/src:. python tests/service/test_wire_golden.py

(Three edits since: the ``degraded`` key was struck from the ten recorded
snapshots when the field left the protocol with the process backend, and
``default_shards``, the ``shards`` block and the SLO block's
``shard_imbalance_max`` were struck from the recorded ``stats`` replies
when no request could ask for sharding any more, and ``skyline_size`` from
the ``metrics`` reply's family inventory when that family was deleted.)

The script uses only constructors and attributes that exist on both
sides, so it can be re-recorded from any commit that speaks the protocol.
"""

import contextlib
import json
import pathlib
import re
import socket
import threading
import time

import pytest

from repro.service import (
    QueryService,
    RankJoinServer,
    ServeFleet,
    TenantQuotas,
)

from tests.service.conftest import make_instance
from tests.service.test_server import RELATIONS as SMALL

#: The usual pair plus one too big to finish between two exchanges, so
#: "draining behind a live session" and "cancel in flight" are not races.
BIG = make_instance(seed=1, n=2000, num_keys=20, k=10)
RELATIONS = {**SMALL, "big_left": BIG.left, "big_right": BIG.right}

GOLDEN = pathlib.Path(__file__).with_name("wire_golden.json")

#: Values that legitimately differ run to run: clocks, ids, tmp paths.
VOLATILE = {"latency", "first_result_latency", "ts", "trace", "retry_after",
            "shared_dir", "shared_cache_dir", "tenants"}
QUERY = {"left": "lineitem", "right": "orders"}


def mask(value, key=None):
    if key in VOLATILE and value is not None:
        return "<masked>"
    if key is not None and key.endswith("_seconds") and isinstance(value, dict):
        return {name: "<masked>" for name in value}
    if key == "text":  # Prometheus exposition: keep the family inventory
        return sorted(l for l in value.splitlines() if l.startswith("# TYPE"))
    if key == "error" and isinstance(value, str):
        return re.sub(r"retry after [\d.]+s", "retry after <masked>s", value)
    if isinstance(value, dict):
        return {name: mask(item, name) for name, item in value.items()}
    if isinstance(value, list):
        return [mask(item) for item in value]
    return value


class Wire:
    """A raw JSON-lines connection that records every exchange."""

    def __init__(self, host, port, log):
        self.sock = socket.create_connection((host, port), timeout=30.0)
        self.file = self.sock.makefile("rwb")
        self.log = log

    def close(self):
        self.file.close()
        self.sock.close()

    def ask(self, **request):
        """One request; every reply line up to the one that ends it."""
        self.file.write((json.dumps(request) + "\n").encode())
        self.file.flush()
        replies = []
        while True:
            reply = json.loads(self.file.readline())
            replies.append(reply)
            streaming = request["verb"] == "stream" and reply.get("ok")
            if not streaming or reply.get("event") == "done":
                break
        self.log.append({"request": request, "replies": mask(replies)})
        return replies[-1]

    def finish(self, session):
        """Ride a session to its terminal event (recorded like any other)."""
        return self.ask(verb="stream", session=session)


@contextlib.contextmanager
def serving(kind, log, *, quotas=None):
    if kind == "server":
        target = RankJoinServer(
            QueryService(quantum=16, quotas=quotas), RELATIONS, port=0
        )
    else:
        target = ServeFleet(RELATIONS, workers=2, port=0, quotas=quotas,
                            service_kwargs={"quantum": 16})
    thread = threading.Thread(target=target.run, daemon=True)
    thread.start()
    assert target.ready.wait(timeout=60.0)
    wire = Wire(target.host, target.port, log)
    try:
        yield target, wire
    finally:
        wire.close()
        thread.join(timeout=60.0)
        assert not thread.is_alive()


def scripted_session(kind):
    """Play the script against one server kind; return the masked log."""
    log = []
    fleet = kind == "fleet"
    pin = [{"worker": 0}, {"worker": 1}] if fleet else [{}, {}]
    with serving(kind, log) as (target, wire):
        first = wire.ask(verb="submit", k=5, **QUERY, **pin[0])["session"]
        wire.finish(first)
        hit = wire.ask(verb="submit", k=4, **QUERY, **pin[1])["session"]
        weighted = wire.ask(
            verb="submit", k=3, operator="HRJN*", priority=2, max_pulls=5000,
            deadline=60.0, tenant="alice", weights=[[2.0, 1.0], [1.0, 0.5]],
            **QUERY, **pin[0],
        )["session"]
        wire.finish(weighted)
        wire.ask(verb="poll", session=first)
        wire.ask(verb="poll", session=hit)
        wire.ask(verb="stream", session=first, **{"from": 3})
        wire.ask(verb="cancel", session=first)
        for unknown in ("s999", "w1:s999", "w9:s1"):
            wire.ask(verb="poll", session=unknown)
            wire.ask(verb="stream", session=unknown)
        wire.ask(verb="frobnicate")
        wire.ask(verb="submit", k=3, left="nope", right="orders")
        wire.ask(verb="stats")
        wire.ask(verb="metrics")
        # Draining: the server drains behind a live session (cancelled
        # afterwards so it can stop); the front-end has no drain phase of
        # its own, so its flag is raised by hand for the one exchange.
        if fleet:
            target.draining = True
            wire.ask(verb="submit", k=3, **QUERY)
            target.draining = False
            wire.ask(verb="shutdown")
        else:
            slow = wire.ask(verb="submit", k=10**6, left="big_left",
                            right="big_right")
            target.begin_shutdown()
            wire.ask(verb="submit", k=3, **QUERY)
            wire.ask(verb="cancel", session=slow["session"])
    with serving(kind, log, quotas=TenantQuotas(rate=0.5, burst=1)) as (_, wire):
        wire.ask(verb="submit", k=2, tenant="alice", **QUERY)
        wire.ask(verb="submit", k=2, tenant="alice", **QUERY)
        time.sleep(0.3)  # let the admitted query finish: quiescent stats
        wire.ask(verb="stats")
        wire.ask(verb="shutdown")
    return log


@pytest.mark.parametrize("kind", ["server", "fleet"])
def test_replies_match_the_parent_commit(kind):
    golden = json.loads(GOLDEN.read_text())[kind]
    log = scripted_session(kind)
    for step, (ours, theirs) in enumerate(zip(log, golden)):
        assert ours == theirs, f"step {step}: {ours['request']}"
    assert len(log) == len(golden)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {kind: scripted_session(kind) for kind in ("server", "fleet")},
        indent=1, sort_keys=True,
    ) + "\n")
    print(f"recorded {GOLDEN}")
