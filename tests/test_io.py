"""Round-trip tests for the JSON serialization layer."""

import json

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.mechanism import UnicastPayment
from repro.core.vcg_unicast import vcg_unicast_payments
from repro.engine.oracle import answer_key
from repro.graph import generators as gen
from repro.io import (
    SerializationError,
    from_dict,
    load_json,
    save_json,
    to_dict,
)
from repro.wireless.deployment import (
    sample_heterogeneous_deployment,
    sample_udg_deployment,
)

from conftest import biconnected_graphs, robust_digraphs


class TestRoundTrips:
    @given(biconnected_graphs(max_nodes=14))
    @settings(max_examples=15)
    def test_node_graph(self, g):
        assert from_dict(to_dict(g)) == g

    @given(robust_digraphs(max_nodes=12))
    @settings(max_examples=15)
    def test_link_digraph(self, dg):
        assert from_dict(to_dict(dg)) == dg

    def test_udg_deployment(self):
        dep = sample_udg_deployment(50, seed=17)
        back = from_dict(to_dict(dep))
        assert np.array_equal(back.points, dep.points)
        assert np.array_equal(back.ranges, dep.ranges)
        assert back.digraph == dep.digraph
        assert back.kind == dep.kind
        assert back.model.kappa == dep.model.kappa

    def test_heterogeneous_deployment_per_node_model(self):
        dep = sample_heterogeneous_deployment(60, seed=18)
        back = from_dict(to_dict(dep))
        assert np.allclose(np.asarray(back.model.alpha), np.asarray(dep.model.alpha))
        assert np.allclose(np.asarray(back.model.beta), np.asarray(dep.model.beta))
        assert back.digraph == dep.digraph

    def test_payment(self, random_graph):
        p = vcg_unicast_payments(random_graph, 5, 0)
        back = from_dict(to_dict(p))
        assert back.path == p.path
        assert back.payments == pytest.approx(dict(p.payments))
        assert back.scheme == p.scheme

    def test_payment_with_infinity(self):
        p = UnicastPayment(1, 0, (1, 2, 0), 3.0, {2: float("inf")})
        back = from_dict(to_dict(p))
        assert back.payment(2) == float("inf")

    def test_file_round_trip(self, tmp_path, random_graph):
        path = tmp_path / "graph.json"
        save_json(random_graph, path)
        assert load_json(path) == random_graph
        # the file is genuine JSON
        json.loads(path.read_text())

    def test_payment_recomputable_after_reload(self, tmp_path, random_graph):
        """End-to-end: ship the instance, recompute identical payments."""
        path = tmp_path / "instance.json"
        save_json(random_graph, path)
        g2 = load_json(path)
        a = vcg_unicast_payments(random_graph, 7, 0)
        b = vcg_unicast_payments(g2, 7, 0)
        assert a.path == b.path
        assert a.total_payment == pytest.approx(b.total_payment)


class TestErrors:
    def test_unsupported_type(self):
        with pytest.raises(SerializationError, match="cannot serialize"):
            to_dict(object())

    def test_unknown_tag(self):
        with pytest.raises(SerializationError, match="unknown format"):
            from_dict({"format": "martian", "version": 1, "data": {}})

    def test_bad_version(self):
        with pytest.raises(SerializationError, match="version"):
            from_dict({"format": "node-graph", "version": 99, "data": {}})

    def test_malformed_payload(self):
        with pytest.raises(SerializationError, match="malformed"):
            from_dict({"format": "node-graph"})
        with pytest.raises(SerializationError, match="malformed"):
            from_dict(
                {"format": "node-graph", "version": 1, "data": {"n": 2}}
            )


class TestMoreRoundTrips:
    def test_collusion_scheme_payment(self):
        from repro.core.collusion import neighbor_collusion_payments
        from repro.graph import generators as gen2

        g = gen2.random_neighbor_safe_graph(10, seed=5)
        p = neighbor_collusion_payments(g, 0, 5)
        back = from_dict(to_dict(p))
        assert back.scheme == "neighbor-collusion"
        assert back.payments == pytest.approx(dict(p.payments))

    def test_fig_instances_ship_cleanly(self, tmp_path):
        for builder in (gen.fig2_example, gen.fig4_example):
            g = builder()[0]
            path = tmp_path / "fig.json"
            save_json(g, path)
            assert load_json(path) == g


class TestResultTypeRoundTrips:
    """The unified result protocol: every result type ships as JSON."""

    def test_fast_payment_result(self, random_graph):
        from repro.core.fast_payment import FastPaymentResult, fast_vcg_payments

        res = fast_vcg_payments(random_graph, 5, 0)
        back = from_dict(to_dict(res))
        assert isinstance(back, FastPaymentResult)
        assert answer_key(back) == answer_key(res)
        assert dict(back.avoiding_costs) == dict(res.avoiding_costs)
        assert np.array_equal(back.levels, res.levels)
        assert dict(back.stats) == dict(res.stats)

    def test_fast_payment_result_method_pair(self, random_graph):
        from repro.core.fast_payment import FastPaymentResult, fast_vcg_payments

        res = fast_vcg_payments(random_graph, 5, 0)
        back = FastPaymentResult.from_dict(res.to_dict())
        assert back.path_cost == res.path_cost

    def test_link_payment_table(self, random_digraph):
        from repro.core.link_vcg import (
            LinkPaymentTable,
            all_sources_link_payments,
        )

        table = all_sources_link_payments(random_digraph, on_monopoly="inf")
        back = from_dict(to_dict(table))
        assert isinstance(back, LinkPaymentTable)
        assert back.root == table.root
        assert np.array_equal(back.dist, table.dist)
        assert np.array_equal(back.first_hop_cost, table.first_hop_cost)
        assert np.array_equal(back.parent, table.parent)
        assert len(back.payments) == len(table.payments)
        for a, b in zip(back.payments, table.payments):
            assert dict(a) == dict(b)

    def test_link_payment_table_file_round_trip(self, tmp_path, random_digraph):
        from repro.core.link_vcg import all_sources_link_payments

        table = all_sources_link_payments(random_digraph, on_monopoly="inf")
        path = tmp_path / "table.json"
        save_json(table, path)
        back = load_json(path)
        assert back.path(7) == table.path(7)
        assert back.path_cost(7) == table.path_cost(7)

    def test_unicast_payment_method_pair(self, random_graph):
        p = vcg_unicast_payments(random_graph, 5, 0)
        back = UnicastPayment.from_dict(p.to_dict())
        assert back.path == p.path and back.path_cost == p.path_cost


class TestDecodeAs:
    def test_accepts_matching_type(self, random_graph):
        from repro.io import decode_as

        p = vcg_unicast_payments(random_graph, 5, 0)
        back = decode_as(UnicastPayment, to_dict(p))
        assert isinstance(back, UnicastPayment)

    def test_rejects_type_mismatch(self, random_graph):
        from repro.core.fast_payment import FastPaymentResult
        from repro.io import decode_as

        payload = to_dict(vcg_unicast_payments(random_graph, 5, 0))
        with pytest.raises(SerializationError, match="not FastPaymentResult"):
            decode_as(FastPaymentResult, payload)


#: Every envelope version a build must refuse: other numbers, and
#: values that only look like 1.
OTHER_VERSIONS = [0, 2, "1", "abc", 1.5, 1.0, True, None]


class TestVersionCheck:
    """A build reads exactly the version it writes — no migration
    chain, no coercion of ``"1"``/``1.0``/``True`` to 1."""

    @pytest.mark.parametrize("version", OTHER_VERSIONS)
    def test_from_dict_rejects_other_versions(self, random_graph, version):
        payload = to_dict(random_graph)
        payload["version"] = version
        with pytest.raises(SerializationError, match="version"):
            from_dict(payload)

    @pytest.mark.parametrize("version", OTHER_VERSIONS)
    def test_from_wire_rejects_other_versions(self, version):
        from repro.io import PriceRequest, from_wire, to_wire

        doc = to_wire(PriceRequest(5, 0))
        doc["schema_version"] = version
        with pytest.raises(SerializationError, match="version"):
            from_wire(doc)


class TestWireEnvelopes:
    """The service wire contract: ``schema_version`` spelling, request
    validation, and round-trips of every ``/v1`` message type."""

    def test_to_wire_spells_schema_version(self, random_graph):
        from repro.io import to_wire

        doc = to_wire(random_graph)
        assert "schema_version" in doc and "version" not in doc
        assert doc["format"] == "node-graph"
        json.dumps(doc)  # wire messages are genuine JSON

    def test_from_wire_accepts_both_spellings(self, random_graph):
        from repro.io import from_wire, to_dict, to_wire

        assert from_wire(to_wire(random_graph)) == random_graph
        assert from_wire(to_dict(random_graph)) == random_graph

    def test_from_wire_rejects_non_object(self):
        from repro.io import from_wire

        with pytest.raises(SerializationError, match="JSON object"):
            from_wire([1, 2, 3])

    def test_price_request_round_trip(self):
        from repro.io import PriceRequest, from_wire, to_wire

        req = PriceRequest(source=7, target=0, deadline_s=2.5)
        back = from_wire(json.loads(json.dumps(to_wire(req))))
        assert back == req

    def test_price_request_validation(self):
        from repro.errors import InvalidRequestError
        from repro.io import PriceManyRequest, PriceRequest

        with pytest.raises(InvalidRequestError):
            PriceRequest(1, 0, deadline_s=-3.0)
        with pytest.raises(InvalidRequestError):
            PriceManyRequest(())

    def test_invalid_request_code_survives_decoding(self):
        """A malformed-but-well-formed envelope keeps its taxonomy code
        (request.invalid, HTTP 400) instead of degrading into a
        generic serialization failure."""
        from repro.errors import InvalidRequestError, error_code
        from repro.io import PriceRequest, from_wire, to_wire

        doc = to_wire(PriceRequest(1, 0))
        doc["data"]["deadline_s"] = -1.0
        with pytest.raises(InvalidRequestError) as info:
            from_wire(doc)
        assert error_code(info.value) == "request.invalid"

    def test_update_request_round_trip_and_validation(self):
        from repro.errors import InvalidRequestError
        from repro.io import UpdateRequest, from_wire, to_wire

        for req in (
            UpdateRequest(op="cost", node=3, value=7.5),
            UpdateRequest(op="remove_node", node=5),
            UpdateRequest(op="add_node", cost=1.0, neighbors=(0, 1)),
        ):
            assert from_wire(to_wire(req)) == req
        with pytest.raises(InvalidRequestError, match="op"):
            UpdateRequest(op="explode")
        with pytest.raises(InvalidRequestError):
            UpdateRequest(op="cost", node=1)  # missing value
        with pytest.raises(InvalidRequestError):
            UpdateRequest(op="cost", value=3.0)  # missing node
        with pytest.raises(InvalidRequestError):
            UpdateRequest(op="remove_node")

    def test_update_request_refuses_link_model_fields(self):
        from repro.errors import InvalidRequestError
        from repro.io import UpdateRequest, from_wire

        def doc(**data):
            return {"format": "update-request", "schema_version": 1,
                    "data": data}

        # What older clients send alongside a node-model update.
        assert from_wire(
            doc(op="cost", node=3, value=7.5, edge=None, arcs=[])
        ) == UpdateRequest(op="cost", node=3, value=7.5)
        for data in (
            {"op": "cost", "edge": [1, 2], "value": 4.0},
            {"op": "cost", "node": 1, "edge": [1, 2], "value": 3.0},
            {"op": "add_node", "arcs": [[0, 9, 2.0], [9, 0, 2.0]]},
        ):
            with pytest.raises(InvalidRequestError, match="node model"):
                from_wire(doc(**data))
        for data in (
            {"op": "cost", "edge": [1, 2.5], "value": 4.0},
            {"op": "add_node", "arcs": [[0, True, 2.0]]},
            {"op": "add_node", "arcs": None},
        ):
            with pytest.raises(SerializationError):
                from_wire(doc(**data))

    def test_response_round_trips(self, random_graph):
        from repro.io import (
            ErrorResponse,
            GraphResponse,
            PriceManyResponse,
            PriceResponse,
            UpdateResponse,
            from_wire,
            to_wire,
        )

        payment = vcg_unicast_payments(random_graph, 5, 0)
        for resp in (
            PriceResponse(payment, graph_version=3, request_id="r1-1"),
            PriceManyResponse((payment,), graph_version=3, request_id="r1-2"),
            UpdateResponse(graph_version=4, request_id="r1-3", node=7),
            GraphResponse(random_graph, graph_version=4, model="node",
                          request_id="r1-4"),
            ErrorResponse(code="service.overloaded", message="queue full",
                          request_id="r1-5", status=429),
        ):
            doc = json.loads(json.dumps(to_wire(resp)))
            back = from_wire(doc)
            assert type(back) is type(resp)
            if hasattr(resp, "graph_version"):
                assert back.graph_version == resp.graph_version
            assert back.request_id == resp.request_id
        back = from_wire(json.loads(json.dumps(to_wire(
            PriceResponse(payment, 0, "r")
        ))))
        assert back.payment.path == payment.path
        assert dict(back.payment.payments) == pytest.approx(
            dict(payment.payments)
        )


class TestLegacyPriceResponseKeys:
    """Older servers stamped ``coalesced`` (always) and ``degraded``
    (when set) on every ``price-response``; a current client must
    still decode those answers."""

    def test_coalesced_and_degraded_keys_still_decode(self, random_graph):
        from repro.io import PriceResponse, from_wire, to_wire

        payment = vcg_unicast_payments(random_graph, 5, 0)
        doc = to_wire(PriceResponse(payment, graph_version=2, request_id="r1"))
        assert set(doc["data"]) == {"payment", "graph_version", "request_id"}
        doc["data"].update(coalesced=True, degraded=True)
        back = from_wire(json.loads(json.dumps(doc)))
        assert isinstance(back, PriceResponse)
        assert back.graph_version == 2 and back.request_id == "r1"
        assert back.payment.path == payment.path


class TestNodeIds:
    """Request node ids accept any integer type (the wire test in
    ``test_service.py`` covers what they refuse)."""

    def test_numpy_ints_accepted_as_plain_ints(self):
        from repro.io import PriceManyRequest, PriceRequest, UpdateRequest

        req = PriceRequest(np.int64(3), np.int32(0))
        assert (req.source, req.target) == (3, 0)
        assert type(req.source) is int
        batch = PriceManyRequest(((np.int64(1), np.uint8(0)),))
        assert batch.pairs == ((1, 0),)
        upd = UpdateRequest(op="add_node", neighbors=(np.int16(2),))
        assert upd.neighbors == (2,) and type(upd.neighbors[0]) is int
