#!/usr/bin/env python
"""Figure 1 microbenchmarks: primitive-level bandwidth and RPC latency.

Prints the paper's motivating comparison — Hadoop Jetty vs DataMPI vs
MVAPICH2 peak bandwidth on three fabrics, and Hadoop RPC vs DataMPI RPC
latency — and then exercises the *functional* RPC engines to show both
really serve calls over the same Writable frames.

Run:  python examples/microbenchmarks.py
"""

import time

from repro.net.bandwidth import summarize_figure_1a
from repro.net.latency import summarize_figure_1b
from repro.rpc.client import DataMPIRpcClient, RpcProxy, SocketRpcClient
from repro.rpc.server import DataMPIRpcServer, SocketRpcServer
from repro.mpi import run_world


def functional_rpc_demo() -> None:
    print("== functional RPC engines (same Writable frames) ==")

    class NameNodeProtocol:
        """A Hadoop-flavoured RPC target."""

        def get_block_locations(self, path, offset, length):
            return [("dn-3", 0), ("dn-7", 1)]

        def renew_lease(self, client_id):
            return True

    server = SocketRpcServer(NameNodeProtocol(), num_handlers=4).start()
    client = SocketRpcClient(server.address)
    proxy = RpcProxy(client)
    t0 = time.perf_counter()
    calls = 200
    for _ in range(calls):
        proxy.renew_lease("client-1")
    hadoop_us = (time.perf_counter() - t0) / calls * 1e6
    locations = proxy.get_block_locations("/data/part-0", 0, 1 << 20)
    client.close()
    server.stop()
    print(f"Hadoop-style RPC: {calls} calls, {hadoop_us:.1f} us/call"
          f" (local socket); sample reply: {locations}")

    def mpi_world(comm):
        if comm.rank == 0:
            served = DataMPIRpcServer(comm, NameNodeProtocol()).serve_forever()
            return served
        client = DataMPIRpcClient(comm, server_rank=0)
        t0 = time.perf_counter()
        for _ in range(calls):
            client.call("renew_lease", "client-1")
        per_call = (time.perf_counter() - t0) / calls * 1e6
        client.shutdown_server()
        return per_call

    served, datampi_us = run_world(2, mpi_world)
    print(f"DataMPI RPC over MPI transport: {served} calls served,"
          f" {datampi_us:.1f} us/call (in-process)\n")


if __name__ == "__main__":
    print(summarize_figure_1a())
    print()
    print(summarize_figure_1b())
    print()
    functional_rpc_demo()
