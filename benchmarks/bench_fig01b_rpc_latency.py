"""Figure 1(b): Hadoop RPC vs DataMPI RPC latency, 1 B - 4 KB payloads.

Paper claims: DataMPI RPC is better than Hadoop RPC by up to 18% on
1GigE, 32% on 10GigE and 55% on IB.  The functional RPC engines are also
exercised to show the modelled systems really run.
"""

from repro.net.fabric import FABRICS, GIGE1, GIGE10, IB_16G
from repro.net.latency import PAYLOAD_SIZES, max_improvement, rpc_latency_comparison

from conftest import table


def test_fig01b_rpc_latency_model(benchmark, emit):
    def run():
        return {name: rpc_latency_comparison(f) for name, f in FABRICS.items()}

    curves = benchmark.pedantic(run, rounds=1, iterations=1)

    sections = []
    for fabric_name, by_system in curves.items():
        rows = []
        for (p, h), (_, d) in zip(by_system["Hadoop"], by_system["DataMPI"]):
            rows.append(
                [p, f"{h * 1e6:.1f}", f"{d * 1e6:.1f}", f"{(h - d) / h * 100:.1f}%"]
            )
        sections.append(
            f"-- {fabric_name} --\n"
            + table(["payload(B)", "Hadoop(us)", "DataMPI(us)", "improv"], rows)
        )
    improvements = {name: max_improvement(f) for name, f in FABRICS.items()}
    text = "\n\n".join(sections)
    text += "\n\nmax improvements: " + ", ".join(
        f"{k}: {v:.1f}%" for k, v in improvements.items()
    )
    text += "\npaper: up to 18% (1GigE), 32% (10GigE), 55% (IB)"
    emit("fig01b_rpc_latency", text)

    assert 10 < improvements["1GigE"] < 28
    assert 20 < improvements["10GigE"] < 40
    assert 45 < improvements["IB (16Gbps)"] < 65
    assert (
        improvements["1GigE"]
        < improvements["10GigE"]
        < improvements["IB (16Gbps)"]
    )


def test_fig01b_functional_rpc_roundtrip(benchmark):
    """Measure the *real* Hadoop-style RPC engine on the same frames."""
    from repro.rpc.client import SocketRpcClient
    from repro.rpc.server import SocketRpcServer

    server = SocketRpcServer({"echo": lambda x: x}, num_handlers=2).start()
    client = SocketRpcClient(server.address)
    payload = b"x" * 1024

    def call():
        return client.call("echo", payload)

    try:
        result = benchmark(call)
        assert result == payload
    finally:
        client.close()
        server.stop()
