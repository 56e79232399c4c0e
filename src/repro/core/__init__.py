"""The paper's contribution: truthful pricing mechanisms for unicast.

Public surface:

* :func:`~repro.core.vcg_unicast.vcg_unicast_payments` — the Section III.A
  mechanism on node-weighted graphs (``method="fast"`` uses Algorithm 1,
  ``method="naive"`` the per-removal Dijkstra oracle).
* :func:`~repro.core.link_vcg.link_vcg_payments` /
  :func:`~repro.core.link_vcg.all_sources_link_payments` — the Section
  III.F mechanism on link-weighted digraphs (the model of the evaluation).
* :func:`~repro.core.collusion.neighbor_collusion_payments` /
  :func:`~repro.core.collusion.group_collusion_payments` — the Section
  III.E collusion-resistant schemes.
* :mod:`~repro.core.truthfulness` — empirical IC/IR verification harness.
* :mod:`~repro.core.overpayment` — the TOR/IOR/worst metrics of III.G.
* :mod:`~repro.core.resale` — resale-the-path collusion analysis (III.H).
"""

from repro.core.mechanism import UnicastPayment, relay_utility, MechanismSpec
from repro.core.vcg_unicast import (
    vcg_unicast_payments,
    vcg_payment_to_node,
)
from repro.core.fast_payment import fast_vcg_payments, FastPaymentResult
from repro.core.link_vcg import (
    link_vcg_payments,
    all_sources_link_payments,
    LinkPaymentTable,
)
from repro.core.fast_link_payment import fast_link_vcg_payments
from repro.core.allpairs import (
    TrafficMatrix,
    pairwise_vcg_payments,
    network_economy,
    NetworkEconomy,
)
from repro.core.collusion import (
    neighbor_collusion_payments,
    group_collusion_payments,
    find_two_agent_collusion,
)
from repro.core.truthfulness import (
    check_individual_rationality,
    check_strategyproof,
    check_group_strategyproof,
    DeviationReport,
)
from repro.core.overpayment import (
    OverpaymentSummary,
    overpayment_summary,
    per_hop_breakdown,
)
from repro.core.resale import find_resale_opportunities, ResaleOpportunity

__all__ = [
    "UnicastPayment",
    "relay_utility",
    "MechanismSpec",
    "vcg_unicast_payments",
    "vcg_payment_to_node",
    "fast_vcg_payments",
    "FastPaymentResult",
    "link_vcg_payments",
    "all_sources_link_payments",
    "LinkPaymentTable",
    "fast_link_vcg_payments",
    "TrafficMatrix",
    "pairwise_vcg_payments",
    "network_economy",
    "NetworkEconomy",
    "neighbor_collusion_payments",
    "group_collusion_payments",
    "find_two_agent_collusion",
    "check_individual_rationality",
    "check_strategyproof",
    "check_group_strategyproof",
    "DeviationReport",
    "OverpaymentSummary",
    "overpayment_summary",
    "per_hop_breakdown",
    "find_resale_opportunities",
    "ResaleOpportunity",
]
