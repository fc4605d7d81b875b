"""POST /mutate: pod-style dynamic-graph sessions over the service.

Same three tiers as test_service.py: envelope validation, transport-
free ``dispatch``, and one live HTTP server driven through
:class:`RemoteDynamicSession`.
"""

import json
import re
import threading

import pytest

from repro.api import Engine
from repro.config import ServeConfig
from repro.dynamic import AddEdge, Reweight
from repro.errors import ServiceError
from repro.exec import ResultCache
from repro.graphs import graph_to_json, planted_cut_graph
from repro.service import (
    ReproService,
    ServiceClient,
    create_server,
    cut_result_from_json,
    parse_mutate_request,
)


def small_graph():
    return planted_cut_graph((6, 6), cut_value=2, seed=3)


def post(service, path, body):
    blob = body if isinstance(body, bytes) else json.dumps(body).encode()
    return service.dispatch("POST", path, blob)


def open_body(**extra):
    return {"open": {"graph": graph_to_json(small_graph()),
                     "solver": "stoer_wagner", **extra}}


class TestParseMutateRequest:
    @pytest.mark.parametrize(
        "body,fragment",
        [
            ([], "must be a JSON object"),
            ({}, "needs 'open'"),
            ({"open": {"graph": [[0, 1]]}, "session": "x"},
             "mutually exclusive"),
            ({"session": 3}, "'session' must be a string"),
            ({"open": {}}, "missing the 'graph'"),
            ({"open": {"graph": [[0, 1]], "nope": 1}},
             "unknown mutate open request fields"),
            # The removed index knob is an unknown field like any other.
            ({"open": {"graph": [[0, 1]], "patch_budget": -1}},
             "'patch_budget'"),
            ({"open": {"graph": [[0, 1]], "patch_budget": True}},
             "'patch_budget'"),
            ({"session": "x", "ops": "nope"}, "'ops' must be a list"),
            ({"session": "x", "ops": [{"op": "explode"}]},
             "op #0"),
            ({"session": "x", "undo": -1}, "'undo'"),
            ({"session": "x", "undo": True}, "'undo'"),
            ({"session": "x", "solve": 1}, "'solve'"),
            ({"session": "x", "close": "yes"}, "'close'"),
            ({"session": "x", "nope": 1}, "unknown mutate request fields"),
        ],
    )
    def test_envelope_validation(self, body, fragment):
        with pytest.raises(ServiceError) as excinfo:
            parse_mutate_request(body)
        assert fragment in str(excinfo.value)

    def test_ops_parse_to_typed_ops(self):
        request = parse_mutate_request(
            {"session": "x",
             "ops": [{"op": "add_edge", "u": 0, "v": 1, "weight": 2.0}]}
        )
        assert request["ops"] == [AddEdge(0, 1, 2.0)]


class TestDispatch:
    def test_open_mutate_solve_close_in_one_request(self):
        service = ReproService()
        graph = small_graph()
        u, v, _w = graph.edge_list()[0]
        status, payload = post(service, "/mutate", {
            **open_body(),
            "ops": [{"op": "reweight", "u": u, "v": v, "weight": 4.0}],
            "solve": True,
            "close": True,
        })
        assert status == 200
        assert payload["closed"] is True
        assert len(payload["acks"]) == 1
        # Pod-style ack: the op echoed back with the resulting hash.
        ack = payload["acks"][0]
        assert ack["applied"] == "reweight"
        graph.set_edge_weight(u, v, 4.0)
        assert ack["graph_hash"] == graph.content_hash()
        assert payload["graph_hash"] == graph.content_hash()
        remote = cut_result_from_json(payload["result"])
        direct = Engine(solver="stoer_wagner", cache=ResultCache()).solve(graph)
        assert remote.value == direct.value
        assert remote.side == direct.side
        assert len(service.sessions) == 0

    def test_session_persists_across_requests(self):
        service = ReproService()
        _, opened = post(service, "/mutate", open_body())
        session_id = opened["session"]
        assert len(service.sessions) == 1
        _, second = post(service, "/mutate", {
            "session": session_id,
            "ops": [{"op": "add_node", "u": 99}],
        })
        assert second["acks"][0]["applied"] == "add_node"
        _, closed = post(service, "/mutate",
                         {"session": session_id, "close": True})
        assert closed["closed"] is True
        status, payload = post(service, "/mutate", {"session": session_id})
        assert status == 404
        assert "unknown session" in payload["error"]["message"]

    def test_undo_runs_before_ops(self):
        service = ReproService()
        _, opened = post(service, "/mutate", {
            **open_body(),
            "ops": [{"op": "add_node", "u": "a"}],
        })
        _, payload = post(service, "/mutate", {
            "session": opened["session"],
            "undo": 1,
            "ops": [{"op": "add_node", "u": "b"}],
        })
        acks = payload["acks"]
        assert [a["undone"] for a in acks] == [True, False]
        assert acks[0]["op"] == {"op": "add_node", "u": "a"}
        session = service.sessions[opened["session"]]
        assert "a" not in session.graph
        assert "b" in session.graph

    def test_certified_solve_over_dispatch(self):
        service = ReproService()
        _, opened = post(service, "/mutate", {**open_body(), "solve": True})
        side = cut_result_from_json(opened["result"]).side
        u, v = next(
            (u, v) for u, v, _w in small_graph().edges()
            if u in side and v in side
        )
        _, payload = post(service, "/mutate", {
            "session": opened["session"],
            "ops": [{"op": "add_edge", "u": u, "v": v, "weight": 5.0}],
            "solve": True,
        })
        result = cut_result_from_json(payload["result"])
        assert result.extras["certificate"]["kinds"] == [
            "non-crossing-increase"
        ]
        assert payload["stats"]["certified"] == 1
        assert payload["stats"]["solver_runs"] == 1

    def test_partial_failure_keeps_committed_ops(self):
        service = ReproService()
        _, opened = post(service, "/mutate", open_body())
        status, payload = post(service, "/mutate", {
            "session": opened["session"],
            "ops": [
                {"op": "add_node", "u": "kept"},
                {"op": "remove_edge", "u": 0, "v": 999},  # fails
            ],
        })
        assert status == 400
        assert "1 earlier action(s) in this request remain applied" in (
            payload["error"]["message"]
        )
        # The acked op is still applied — the log is append-only.
        assert "kept" in service.sessions[opened["session"]].graph

    @pytest.mark.parametrize("value", [5, None])
    def test_patch_budget_is_an_unknown_open_field(self, value):
        # Older clients sent "patch_budget": null on every open.
        service = ReproService()
        status, payload = post(service, "/mutate", open_body(patch_budget=value))
        assert status == 400
        message = payload["error"]["message"]
        assert "unknown mutate open request fields: 'patch_budget'" in message
        assert not service.sessions

    def test_session_limit_is_429(self):
        service = ReproService(config=ServeConfig(max_sessions=1))
        assert post(service, "/mutate", open_body())[0] == 200
        status, payload = post(service, "/mutate", open_body())
        assert status == 429
        assert "close one first" in payload["error"]["message"]

    def test_session_ids_are_distinct_12_hex_chars(self):
        service = ReproService()
        ids = [post(service, "/mutate", open_body())[1]["session"] for _ in range(20)]
        assert all(re.fullmatch(r"[0-9a-f]{12}", sid) for sid in ids), ids
        assert len(set(ids)) == len(ids)
        assert set(service.sessions) == set(ids)

    def test_open_over_node_limit_is_413(self):
        service = ReproService(config=ServeConfig(max_nodes=4))
        status, _ = post(service, "/mutate", open_body())
        assert status == 413

    def test_node_growth_past_limit_is_413(self):
        n = small_graph().number_of_nodes
        service = ReproService(config=ServeConfig(max_nodes=n))
        _, opened = post(service, "/mutate", open_body())
        status, payload = post(service, "/mutate", {
            "session": opened["session"],
            "ops": [{"op": "add_edge", "u": 0, "v": "fresh"}],
        })
        assert status == 413
        assert "would grow the graph" in payload["error"]["message"]
        # Growth to an *existing* node is fine at the limit.
        status, _ = post(service, "/mutate", {
            "session": opened["session"],
            "ops": [{"op": "add_edge", "u": 0, "v": 1, "weight": 1.0}],
        })
        assert status == 200

    def test_healthz_reports_open_sessions(self):
        service = ReproService()
        post(service, "/mutate", open_body())
        health = service.dispatch("GET", "/healthz", b"")[1]
        assert health["sessions"] == 1
        assert health["requests"]["mutate"] == 1


@pytest.fixture(scope="module")
def live():
    server = create_server(ServeConfig(port=0))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(server.url, timeout=30.0)
    client.wait_until_ready()
    yield server, client
    client.close()
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


class TestHTTP:
    def test_remote_session_lifecycle(self, live):
        _server, client = live
        graph = small_graph()
        session = client.open_session(graph, solver="stoer_wagner")
        base = session.solve()
        assert base.value == 2.0

        u, v, w = next(
            (u, v, w) for u, v, w in graph.edges()
            if u in base.side and v in base.side
        )
        ack = session.apply(AddEdge(u, v, 5.0))
        graph.add_edge(u, v, 5.0)  # merges: (u, v) already exists
        assert ack["applied"] == "merge_edge"
        assert ack["graph_hash"] == graph.content_hash()
        assert session.graph_hash == graph.content_hash()

        certified = session.solve()
        assert certified.extras["certificate"]["kinds"] == [
            "non-crossing-increase"
        ]
        assert certified.value == base.value

        session.undo()
        graph.set_edge_weight(u, v, w)  # undo of a merge restores the weight
        assert session.graph_hash == graph.content_hash()

        stats = session.stats()
        assert stats["ops"] == 1
        assert stats["undos"] == 1

        session.close()
        assert session.closed is True
        with pytest.raises(ServiceError) as excinfo:
            client.mutate(session=session.session_id, solve=True)
        assert excinfo.value.status == 404

    def test_batched_step_round_trip(self, live):
        _server, client = live
        graph = small_graph()
        u, v, _w = graph.edge_list()[0]
        session = client.open_session(graph, solver="stoer_wagner")
        response = session.step(
            ops=[Reweight(u, v, 3.0),
                 {"op": "add_edge", "u": u, "v": "spare", "weight": 1.0}],
            solve=True,
            close=True,
        )
        assert [a["applied"] for a in response["acks"]] == [
            "reweight", "add_edge",
        ]
        assert response["closed"] is True
        result = response["result"]
        graph.set_edge_weight(u, v, 3.0)
        graph.add_edge(u, "spare", 1.0)
        assert result.matches(graph)  # upgraded to a typed CutResult
        assert result.value == 1.0  # the fresh pendant edge is the min cut

    def test_open_session_has_no_patch_budget_kwarg(self, live):
        _server, client = live
        with pytest.raises(TypeError, match="patch_budget"):
            client.open_session(small_graph(), patch_budget=5)

    def test_bad_op_mid_request_names_committed_count(self, live):
        _server, client = live
        session = client.open_session(small_graph())
        with pytest.raises(ServiceError) as excinfo:
            session.step(ops=[
                {"op": "add_node", "u": "x"},
                {"op": "remove_edge", "u": 0, "v": 12345},
            ])
        assert excinfo.value.status == 400
        assert "1 earlier action(s)" in str(excinfo.value)
        session.close()
