"""Graceful shutdown: drain live sessions, reject submits, flush obs."""

import contextlib
import threading

import pytest

from repro.obs import Observability
from repro.service import (
    QueryService,
    QuerySession,
    RankJoinServer,
    ServiceClient,
    ServiceError,
    SessionState,
)

from tests.service.conftest import RELEASED, GatedOperator
from tests.service.test_server import REFERENCE_SCORES, RELATIONS


@contextlib.contextmanager
def running_server(service=None, **service_kwargs):
    if service is None:
        service_kwargs.setdefault("quantum", 16)
        service = QueryService(**service_kwargs)
    server = RankJoinServer(service, RELATIONS, port=0)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    assert server.ready.wait(timeout=10.0), "server never became ready"
    try:
        yield server, thread
    finally:
        if thread.is_alive():
            server.begin_shutdown()
            server.begin_shutdown()  # escalate so a failing test can't hang
        thread.join(timeout=10.0)
        assert not thread.is_alive(), "server thread failed to shut down"


class TestGracefulShutdown:
    def test_idle_server_exits_after_begin_shutdown(self):
        with running_server() as (server, thread):
            server.begin_shutdown()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert server.draining is True

    def test_draining_rejects_new_submits(self):
        # A gated session holds the only slot until the drain has been
        # observed, so the in-flight query cannot finish (and the server
        # exit) before the exchanges that need it draining.
        service = QueryService(quantum=4, max_live=1)
        held = GatedOperator()
        service.admit(QuerySession("held", held, 1))
        with running_server(service) as (server, thread):
            with ServiceClient(server.host, server.port) as client:
                sid = client.submit(left="lineitem", right="orders", k=20)
                server.begin_shutdown()
                assert client.stats()["draining"] is True
                with pytest.raises(ServiceError, match="draining"):
                    client.submit(left="lineitem", right="orders", k=3)
                held.open.set()
                # The in-flight session still runs to completion.  The
                # server exits the moment it finishes, so the final poll
                # may race the socket teardown; the authoritative check
                # is the server-side session state below.
                final = None
                with contextlib.suppress(OSError, ConnectionError,
                                         ServiceError):
                    final = client.wait(sid, timeout=30.0)
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            session = server.service.session(sid)
            assert session is not None
            assert session.state is SessionState.DONE
            assert [round(r.score, 6) for r in session.results] \
                == [round(s, 6) for s in REFERENCE_SCORES[:20]]
            if final is not None:
                assert final["state"] == "DONE"

    def test_second_shutdown_call_stops_immediately(self):
        with running_server(quantum=1) as (server, thread):
            with ServiceClient(server.host, server.port) as client:
                client.submit(left="lineitem", right="orders", k=20)
                server.begin_shutdown()
                server.begin_shutdown()
            thread.join(timeout=10.0)
            assert not thread.is_alive()

    def test_obs_exporters_flushed_on_exit(self):
        obs = Observability()
        flushed = threading.Event()
        original_flush = obs.flush

        def recording_flush(*args, **kwargs):
            result = original_flush(*args, **kwargs)
            flushed.set()
            return result

        obs.flush = recording_flush
        with running_server(obs=obs) as (server, thread):
            with ServiceClient(server.host, server.port) as client:
                client.run(left="lineitem", right="orders", k=3)
            server.begin_shutdown()
            thread.join(timeout=10.0)
        assert flushed.is_set()


class TestDriverDeath:
    def test_a_dead_scheduler_driver_ends_the_server_loudly(self):
        """Anything escaping ``service.tick()`` must end ``run()``.

        The first session finishing fires a raising listener while a
        second one is still queued (``max_live=1``); the stream on that
        second session must be told the server stopped, and ``run()`` must
        tear down and re-raise — not leave a socket accepting queries that
        nothing advances.

        Both sessions are gated, so the order is the test's, not a
        timer's: the first finishes only once the client has seen the
        queued one's replayed event, i.e. once its stream is attached.
        """
        class Boom(RuntimeError):
            pass

        def explode(session):
            raise Boom("listener failed")

        service = QueryService(quantum=16, max_live=1)
        service.listen(explode)
        first = GatedOperator()
        service.admit(QuerySession("first", first, 1))
        service.admit(
            QuerySession("queued", GatedOperator(), 2, preloaded=[RELEASED]))
        server = RankJoinServer(service, RELATIONS, port=0)
        raised = []

        def run():
            try:
                server.run()
            except Boom as exc:
                raised.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert server.ready.wait(timeout=10.0), "server never became ready"
        with ServiceClient(server.host, server.port, timeout=2.0) as client:
            events = client.stream_raw("queued")
            assert next(events)["index"] == 0
            first.open.set()
            # A timeout here (a stream nothing wakes) surfaces as an
            # OSError, not the ServiceError asserted.
            with pytest.raises(ServiceError, match="stopped mid-stream"):
                list(events)
        thread.join(timeout=2.0)
        assert not thread.is_alive(), "run() kept serving without a driver"
        assert raised, "run() must re-raise what killed the driver"
