"""The repro.api facade: parity with the direct entry points, uniform
keyword validation, and the deprecation shims on the old spellings."""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import api
from repro.core.allpairs import pairwise_vcg_payments
from repro.core.fast_link_payment import fast_link_vcg_payments
from repro.core.link_vcg import LinkPaymentTable, link_vcg_payments
from repro.core.vcg_unicast import vcg_unicast_payments
from repro.engine.oracle import answer_key
from repro.graph import generators as gen

from conftest import graph_with_endpoints
from test_fast_link_payment import symmetric_instance


class TestPrice:
    @given(graph_with_endpoints(max_nodes=16))
    @settings(max_examples=15)
    def test_node_parity(self, case):
        g, s, t = case
        want = vcg_unicast_payments(g, s, t)
        assert answer_key(api.price(g, s, t)) == answer_key(want)

    def test_methods_and_backends_agree(self, random_graph):
        base = api.price(random_graph, 5, 0)
        for method in ("fast", "naive"):
            for backend in ("auto", "python", "scipy", "numpy"):
                got = api.price(
                    random_graph, 5, 0, method=method, backend=backend
                )
                assert answer_key(got) == answer_key(base), (method, backend)

    def test_digraph_dispatches_to_price_links(self, random_digraph):
        got = api.price(random_digraph, 7, 0, method="naive")
        want = link_vcg_payments(random_digraph, 7, 0)
        assert answer_key(got) == answer_key(want)

    def test_rejects_non_graph(self):
        with pytest.raises(TypeError):
            api.price(object(), 0, 1)

    def test_rejects_bad_knobs(self, random_graph):
        with pytest.raises(ValueError):
            api.price(random_graph, 5, 0, backend="cuda")
        with pytest.raises(ValueError):
            api.price(random_graph, 5, 0, on_monopoly="shrug")


class TestPriceLinks:
    @given(st.integers(0, 1000))
    @settings(max_examples=10)
    def test_auto_picks_fast_on_symmetric(self, seed):
        sym = symmetric_instance(12, 0.3, seed)
        auto = api.price_links(sym, sym.n - 1, 0, on_monopoly="inf")
        fast = fast_link_vcg_payments(sym, sym.n - 1, 0, on_monopoly="inf")
        assert answer_key(auto) == answer_key(fast)

    def test_auto_falls_back_on_asymmetric(self, random_digraph):
        got = api.price_links(random_digraph, 7, 0)
        want = link_vcg_payments(random_digraph, 7, 0)
        assert answer_key(got) == answer_key(want)

    def test_rejects_bad_method(self, random_digraph):
        with pytest.raises(ValueError, match="method"):
            api.price_links(random_digraph, 7, 0, method="magic")

    def test_rejects_node_graph(self, random_graph):
        with pytest.raises(TypeError):
            api.price_links(random_graph, 7, 0)


class TestPriceAllPairs:
    def test_node_parity_with_batch_engine(self, random_graph):
        pairs = [(i, 0) for i in range(1, random_graph.n)]
        got = api.price_all_pairs(random_graph, pairs)
        want = pairwise_vcg_payments(random_graph, pairs, on_monopoly="inf")
        assert got.keys() == want.keys()
        for key in pairs:
            assert answer_key(got[key]) == answer_key(want[key])

    def test_default_pairs_price_toward_root(self, random_graph):
        got = api.price_all_pairs(random_graph, root=3)
        assert set(got) == {(i, 3) for i in range(random_graph.n) if i != 3}

    def test_jobs_bit_identical(self):
        g = gen.random_biconnected_graph(36, seed=2)
        pairs = [(i, 0) for i in range(1, g.n)]
        serial = api.price_all_pairs(g, pairs)
        par = api.price_all_pairs(g, pairs, jobs=2)
        for key in pairs:
            assert answer_key(serial[key]) == answer_key(par[key])

    def test_link_model_returns_table(self, random_digraph):
        table = api.price_all_pairs(random_digraph)
        assert isinstance(table, LinkPaymentTable)
        assert table.root == 0

    def test_link_model_rejects_pairs_and_jobs(self, random_digraph):
        with pytest.raises(ValueError):
            api.price_all_pairs(random_digraph, pairs=[(1, 0)])
        with pytest.raises(ValueError):
            api.price_all_pairs(random_digraph, jobs=2)


class TestCheckTruthful:
    def test_node_model_ok(self):
        g = gen.random_biconnected_graph(12, seed=4)
        report = api.check_truthful(g, 5, 0)
        assert report.ok
        assert report.checked > 0
        assert "IR+IC" in report.mechanism

    def test_agents_subset(self, random_graph):
        report = api.check_truthful(random_graph, 5, 0, agents=[7, 8])
        assert report.ok

    def test_link_model(self, random_digraph):
        report = api.check_truthful(random_digraph, 7, 0)
        assert report.ok

    def test_rejects_bad_backend(self, random_graph):
        with pytest.raises(ValueError):
            api.check_truthful(random_graph, 5, 0, backend="cuda")


class TestReExports:
    def test_facade_is_importable_from_top_level(self):
        assert repro.price is api.price
        assert repro.price_links is api.price_links
        assert repro.price_all_pairs is api.price_all_pairs
        assert repro.check_truthful is api.check_truthful
        assert repro.api is api
        for name in ("price", "price_links", "price_all_pairs",
                     "check_truthful", "api"):
            assert name in repro.__all__


class TestShimRemoval:
    """The PR-4 ``algorithm=``/``monopoly=`` deprecation cycle is over:
    after five PRs of DeprecationWarnings the old spellings now fail
    like any unknown keyword (README/docs record the removal)."""

    def test_algorithm_kwarg_is_gone(self, random_graph):
        with pytest.raises(TypeError, match="algorithm"):
            vcg_unicast_payments(random_graph, 5, 0, algorithm="naive")

    def test_monopoly_kwarg_is_gone_on_link_vcg(self, random_digraph):
        with pytest.raises(TypeError, match="monopoly"):
            link_vcg_payments(random_digraph, 7, 0, monopoly="inf")

    def test_monopoly_kwarg_is_gone_on_fast_link(self):
        sym = symmetric_instance(14, 0.3, 3)
        with pytest.raises(TypeError, match="monopoly"):
            fast_link_vcg_payments(sym, 7, 0, monopoly="inf")

    def test_shim_helper_is_gone(self):
        from repro.core import mechanism

        assert not hasattr(mechanism, "warn_renamed_kwarg")
        assert "warn_renamed_kwarg" not in mechanism.__all__

    def test_new_spellings_do_not_warn(self, random_graph, random_digraph):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            vcg_unicast_payments(random_graph, 5, 0, method="fast")
            link_vcg_payments(random_digraph, 7, 0, on_monopoly="inf")

    def test_bad_options_raise_typed_invalid_request(self, random_graph):
        from repro.errors import InvalidRequestError

        with pytest.raises(InvalidRequestError):
            vcg_unicast_payments(random_graph, 5, 0, method="bogus")
        with pytest.raises(InvalidRequestError):
            api.price(random_graph, 5, 0, backend="cuda")
        # InvalidRequestError subclasses ValueError, so pre-taxonomy
        # except clauses keep working.
        assert issubclass(InvalidRequestError, ValueError)
