"""The serial oracle (:mod:`repro.engine.oracle`) every serving gate uses."""

from dataclasses import replace

import numpy as np
import pytest

from repro.engine import PricingEngine, oracle
from repro.engine.oracle import answer_key, apply_update, verify
from repro.errors import DisconnectedError, MonopolyError
from repro.graph import generators as gen

UPDATES = [("cost", 3, 7.25), ("remove", 4), ("add", 2.5, [0, 5, 9])]


@pytest.fixture
def g():
    return gen.random_biconnected_graph(16, seed=11)


def _mutate(eng, update):
    """Apply ``update`` to ``eng``; returns the version it left."""
    kind, *args = update
    mutate = {"cost": eng.update_cost, "remove": eng.remove_node, "add": eng.add_node}
    mutate[kind](*args)
    return eng.version


def _relayed(g):
    """A ``(source, answer)`` to node 0 whose path has two relays."""
    eng = PricingEngine(g, on_monopoly="inf")
    return next((s, p) for s in range(1, g.n) if len((p := eng.price(s, 0)).path) >= 4)


@pytest.mark.parametrize("update", UPDATES, ids=lambda u: u[0])
def test_apply_update_matches_engine_mutation(g, update):
    eng = PricingEngine(g, on_monopoly="inf")
    _mutate(eng, update)
    h = apply_update(g, update)
    assert h.n == eng.graph.n
    assert sorted(h.edge_iter()) == sorted(eng.graph.edge_iter())
    assert h.costs.tobytes() == eng.graph.costs.tobytes()


def test_flags_path_swap(g):
    s, p = _relayed(g)
    swapped = (p.path[0],) + p.path[-2:0:-1] + (p.path[-1],)
    verdict = verify(g, [], [(0, s, 0, replace(p, path=swapped))])
    assert (verdict.checked, verdict.mismatches) == (1, 1)
    assert verdict.examples[0].startswith(f"v0 {s}->0: observed path")


def test_flags_one_ulp_payment_nudge(g):
    s, p = _relayed(g)
    payments = dict(p.payments)
    payments[p.path[1]] = float(np.nextafter(payments[p.path[1]], np.inf))
    nudged = replace(p, payments=payments)
    assert answer_key(nudged) != answer_key(p)
    verdict = verify(g, [], [(0, s, 0, p), (0, s, 0, nudged)])
    assert (verdict.checked, verdict.mismatches) == (2, 1)


def test_disconnected_outcome_must_carry_the_oracle_code(g):
    eng = PricingEngine(g, on_monopoly="inf")
    v = eng.remove_node(5)
    with pytest.raises(DisconnectedError) as info:
        eng.price(5, 0)
    history = [(v, ("remove", 5))]
    assert verify(g, history, [(v, 5, 0, info.value)]).mismatches == 0
    wrong = verify(g, history, [(v, 5, 0, MonopolyError(5, 0, removed=3))])
    assert (wrong.checked, wrong.mismatches) == (1, 1)
    assert "oracle error graph.disconnected" in wrong.examples[0]
    # Before the removal the oracle prices an answer, not an error.
    assert verify(g, history, [(0, 5, 0, info.value)]).mismatches == 1


def test_retried_duplicate_and_noop_updates_are_not_conflicts(g):
    eng = PricingEngine(g, on_monopoly="inf")
    v = eng.update_cost(3, 7.25)
    assert eng.update_cost(3, 7.25) == v  # the engine's no-op retry
    same = float(g.costs[6])
    assert eng.update_cost(6, same) == v  # a no-op on another node
    history = [(v, ("cost", 3, 7.25))] * 2 + [(v, ("cost", 6, same))]
    verdict = verify(g, history, [(v, 1, 0, eng.price(1, 0))])
    assert (verdict.checked, verdict.mismatches) == (1, 0)


def test_two_different_updates_at_one_version_mismatch(g):
    history = [(1, ("cost", 3, 7.25)), (1, ("cost", 4, 2.0))]
    verdict = verify(g, history, [(1, 1, 0, PricingEngine(g).price(1, 0))])
    # Neither update is trusted, so the answer at v1 has no graph.
    assert (verdict.mismatches, verdict.unverifiable) == (1, 1)
    assert "two different updates" in verdict.examples[0]
    assert verify(g, [(2, ("cost", 3, 7.25))], [], base_version=2).mismatches == 1


def test_answers_after_a_gap_are_unverifiable(g):
    eng = PricingEngine(g, on_monopoly="inf")
    history, checks = [], []
    for update in [("cost", 3, 7.25), ("cost", 1, 50.0), ("cost", 6, 0.5)]:
        v = _mutate(eng, update)
        history.append((v, update))
        checks.append((v, 2, 0, eng.price(2, 0)))
    del history[1]  # another writer's update: only versions 1 and 3 known
    verdict = verify(g, history, checks)
    assert (verdict.checked, verdict.mismatches, verdict.unverifiable) == (1, 0, 2)


def test_base_version_offsets_the_history(g):
    eng = PricingEngine(g, on_monopoly="inf")
    eng.update_cost(3, 7.25)
    base, v0, p0 = eng.graph, eng.version, eng.price(2, 0)
    v = eng.update_cost(4, 2.0)
    checks = [(v0, 2, 0, p0), (v, 2, 0, eng.price(2, 0)), (0, 2, 0, p0)]
    verdict = verify(base, [(v, ("cost", 4, 2.0))], checks, base_version=v0)
    # An answer before the base version names no known graph.
    assert (verdict.checked, verdict.mismatches, verdict.unverifiable) == (2, 0, 1)


def test_each_distinct_key_priced_once(g, monkeypatch):
    calls = []
    real = oracle.vcg_unicast_payments
    monkeypatch.setattr(
        oracle, "vcg_unicast_payments",
        lambda g, s, t, **kw: calls.append((s, t)) or real(g, s, t, **kw),
    )
    eng = PricingEngine(g, on_monopoly="inf")
    verdict = verify(g, [], [(0, s, 0, eng.price(s, 0)) for s in (1, 2, 1, 1, 2)])
    assert (verdict.checked, verdict.mismatches) == (5, 0)
    assert sorted(calls) == [(1, 0), (2, 0)]


def test_noop_record_for_a_node_added_at_the_same_version(g):
    eng = PricingEngine(g, on_monopoly="inf")
    n = eng.add_node(cost=2.0, neighbors=[0, 1])
    v = eng.version
    assert eng.update_cost(n, 2.0) == v  # a no-op on the new node
    checks = [(v, n, 0, eng.price(n, 0))]
    for history in (
        [(v, ("add", 2.0, [0, 1])), (v, ("cost", n, 2.0))],
        [(v, ("cost", n, 2.0)), (v, ("add", 2.0, [0, 1]))],
    ):
        verdict = verify(g, history, checks)
        assert (verdict.checked, verdict.mismatches) == (1, 0)
    # A different cost for the new node at that version is a second change.
    conflict = [(v, ("add", 2.0, [0, 1])), (v, ("cost", n, 3.0))]
    verdict = verify(g, conflict, checks)
    assert (verdict.mismatches, verdict.unverifiable) == (1, 1)
    assert "two different updates" in verdict.examples[0]
