"""The cluster writer: a durable :class:`ESDServer` that ships its WAL.

:class:`WriterNode` *is* an :class:`~repro.service.server.ESDServer` --
same engine, same admission control, same client protocol -- with a
:class:`~repro.cluster.replication.ReplicationPublisher` attached to the
engine's mutation feed.  Every mutation therefore takes exactly one
path: WAL append (when durable) -> apply through the maintenance
machinery -> publish to replicas, all under the engine's write lock, so
the replicated stream is bit-for-bit the committed WAL order.

The writer answers ``cluster-info`` with its ``graph_version`` and the
publisher's per-replica ack/lag table, which is what the router's
health probes and ``esd cluster status`` read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.graph.graph import Graph
from repro.service.server import ESDServer, ServerConfig
from repro.cluster.replication import ReplicationPublisher


@dataclass
class WriterConfig(ServerConfig):
    """A :class:`ServerConfig` plus the replication listener's tunables."""

    repl_host: str = "127.0.0.1"
    repl_port: int = 0  #: 0 = ephemeral; read it from ``repl_address``
    retain: int = 4096  #: committed records kept for record-only catch-up
    heartbeat_interval: float = 0.5  #: idle version-frame cadence (seconds)


class WriterNode(ESDServer):
    """One writer process: client service + replication publisher."""

    def __init__(
        self,
        graph: Optional[Graph] = None,
        config: Optional[WriterConfig] = None,
    ) -> None:
        self.cluster_config = config or WriterConfig()
        super().__init__(graph, self.cluster_config)
        self.publisher = ReplicationPublisher(
            self.engine,
            host=self.cluster_config.repl_host,
            port=self.cluster_config.repl_port,
            retain=self.cluster_config.retain,
            heartbeat_interval=self.cluster_config.heartbeat_interval,
        )
        self.engine.obs.add_source("replication", self.publisher.status)
        self._ops["cluster-info"] = lambda message: self.cluster_info()

    @property
    def repl_address(self):
        """The bound replication ``(host, port)``."""
        return self.publisher.address

    def serve_forever(self) -> None:
        self.publisher.start()
        super().serve_forever()

    def start(self) -> "WriterNode":
        self.publisher.start()
        super().start()
        return self

    def shutdown(self, join_timeout: float = 5.0) -> None:
        self.publisher.stop()
        super().shutdown(join_timeout)

    def cluster_info(self) -> Dict[str, Any]:
        return {
            "role": "writer",
            "graph_version": self.engine.graph_version,
            "replication": self.publisher.status(),
        }
