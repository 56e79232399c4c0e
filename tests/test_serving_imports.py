"""Serving the node model never loads scipy.

A serving process prices every request through the node model, whose
shortest-path solves are numpy relaxations (:func:`repro.graph.dijkstra.
relax_arcs`); scipy is imported only by a solve deep enough to hand off,
by the link model and by the figures. Importing ``scipy.sparse.csgraph``
alone adds ~30 MiB to a process, so a stray import on the serving path
shows up as peak RSS. The check runs in a fresh interpreter, since this
test process has long since imported scipy.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent(
    """
    import sys, tempfile

    import numpy as np

    from repro.engine import PricingEngine
    from repro.service import PricingService, ServiceServer
    from repro.service.resilience import PricingClient
    from repro.wireless.topology import build_node_graph_from_udg

    rng = np.random.default_rng(2004)
    n = 240
    side = 2000.0 * np.sqrt(n / 500)
    g = build_node_graph_from_udg(
        rng.uniform(0.0, side, size=(n, 2)), 300.0, rng.uniform(1.0, 10.0, n)
    )
    with tempfile.TemporaryDirectory() as tmp:
        engine = PricingEngine(g, on_monopoly="inf", checkpoint_dir=tmp)
        service = PricingService(engine, workers=2)
        server = ServiceServer(service).start()
        try:
            client = PricingClient(server.url, deadline_s=60.0)
            client.price(17, 0)
            client.price_many([(s, 0) for s in range(1, n)])
            client.price_many([(3, 9), (5, 9), (3, 11)])
            client.update_cost(int(g.neighbors(0)[0]), 0.5)
            client.remove_node(42)
            node = client.add_node(2.0, [1, 2, 3]).node
            client.price_many([(s, 0) for s in range(1, n + 1) if s != 42])
            client.price(node, 0)
            engine.checkpoint()
        finally:
            server.stop()
            service.close()
        reopened = PricingEngine.open(tmp)
        reopened.price_many([(s, 7) for s in range(1, 50) if s not in (7, 42)])
        reopened.close()
    print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """
)


def test_serving_never_imports_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"
