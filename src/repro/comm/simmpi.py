"""Communication cost accounting over the simulated cluster.

Model
-----
- Point-to-point: alpha-beta cost from :class:`repro.cluster.LinkModel`,
  throttled by the slower endpoint's current NIC bandwidth.
- Exchange phases (ghost sync, migration): each rank serializes its own
  sends and receives; the phase lasts as long as the busiest rank.  This is
  the standard post-office model for single-NIC nodes on switched Ethernet.
- Collectives: binomial-tree allreduce/broadcast, ``ceil(log2 P)`` rounds of
  the slowest-pair point-to-point cost.

The communicator never moves payloads -- the HDDA already holds them; here
we only price the pattern and tally statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.cluster.cluster import Cluster
from repro.telemetry.spans import NULL_TRACER
from repro.util.errors import SimulationError

__all__ = ["CommStats", "SimCommunicator"]

#: Exchange events carry at most this many per-pair rows; beyond it only
#: the heaviest pairs (by bytes) are kept and ``pairs_dropped`` says how
#: many fell off.  Keeps JSONL traces bounded on large clusters.
EVENT_PAIR_CAP = 512


@dataclass(slots=True)
class CommStats:
    """Cumulative traffic counters."""

    messages: int = 0
    bytes_sent: int = 0
    point_to_point_time: float = 0.0
    collective_time: float = 0.0
    per_pair_bytes: dict[tuple[int, int], int] = field(default_factory=dict)
    per_pair_seconds: dict[tuple[int, int], float] = field(default_factory=dict)
    per_pair_messages: dict[tuple[int, int], int] = field(default_factory=dict)

    def record_messages(
        self,
        pairs: list[tuple[int, int]],
        sizes: list[int],
        seconds: list[float],
    ) -> None:
        """Tally messages in order: ``pairs[i]`` moved ``sizes[i]`` bytes
        in ``seconds[i]``."""
        self.messages += len(pairs)
        self.bytes_sent += sum(sizes)
        total = self.point_to_point_time
        per_bytes = self.per_pair_bytes
        per_seconds = self.per_pair_seconds
        per_messages = self.per_pair_messages
        for pair, nbytes, secs in zip(pairs, sizes, seconds):
            total += secs
            per_bytes[pair] = per_bytes.get(pair, 0) + nbytes
            per_seconds[pair] = per_seconds.get(pair, 0.0) + secs
            per_messages[pair] = per_messages.get(pair, 0) + 1
        self.point_to_point_time = total


class SimCommunicator:
    """Prices communication patterns on a simulated cluster.

    With a tracer bound (:meth:`bind_tracer`), traffic is also promoted
    into telemetry: ``comm.bytes_total``/``comm.messages_total`` counters,
    per-collective timing histograms, and one ``comm.exchange`` event per
    exchange phase carrying the per-pair volume/time/derating detail the
    communication profiler turns into rank-by-rank matrices.
    """

    def __init__(self, cluster: Cluster, tracer=None):
        self.cluster = cluster
        self.stats = CommStats()
        self._tracer = NULL_TRACER
        self._bytes_total = None
        self._messages_total = None
        if tracer is not None:
            self.bind_tracer(tracer)

    def bind_tracer(self, tracer) -> None:
        """Route traffic accounting into ``tracer``'s metrics and events.

        Binding a disabled tracer (or :data:`NULL_TRACER`) turns the
        instrumentation back off; the priced costs are bit-identical
        either way.
        """
        self._tracer = tracer
        if tracer is not None and tracer.enabled:
            self._bytes_total = tracer.metrics.counter("comm.bytes_total")
            self._messages_total = tracer.metrics.counter("comm.messages_total")
        else:
            self._tracer = NULL_TRACER
            self._bytes_total = None
            self._messages_total = None

    @property
    def size(self) -> int:
        return self.cluster.num_nodes

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise SimulationError(f"rank {rank} out of range [0, {self.size})")

    # ------------------------------------------------------------------
    def _price(self, pair_bytes: Mapping[tuple[int, int], float], t):
        """Validate and price a set of messages against one snapshot.

        One :meth:`Cluster.bandwidths` pass prices every message; nothing
        is recorded here.  The first invalid message in input order
        raises its error (bad rank, down endpoint, negative size, zero
        bandwidth, checked in that order) before any counter or statistic
        changes.
        Returns ``(keys, sizes, src, dst, bw, seconds, rows)`` where ``bw``
        is each message's effective bandwidth and ``rows`` lists the
        positions of the non-local messages in input order.
        """
        keys = list(pair_bytes)
        sizes = list(pair_bytes.values())
        ends = np.array(keys, dtype=np.int64).reshape(len(keys), 2)
        src, dst = ends[:, 0], ends[:, 1]
        nbytes = np.array(sizes, dtype=float)
        size = self.size
        bws = self.cluster.bandwidths(t)
        up = self.cluster.live_mask()
        in_range = (src >= 0) & (src < size) & (dst >= 0) & (dst < size)
        s = np.where(in_range, src, 0)
        d = np.where(in_range, dst, 0)
        remote = src != dst
        bw = np.minimum(bws[s], bws[d])
        bad = ~in_range | (
            remote
            & (~(up[s] & up[d]) | (nbytes < 0) | ((nbytes != 0) & (bw <= 0)))
        )
        if bad.any():
            i = int(bad.argmax())
            self._raise_invalid(keys[i][0], keys[i][1], sizes[i], bws)
        seconds = self.cluster.link.transfer_times(
            np.where(remote, nbytes, 0.0), bw
        )
        rows = np.flatnonzero(remote).tolist()
        return keys, sizes, src, dst, bw, seconds, rows

    def _raise_invalid(self, src, dst, nbytes, bws: np.ndarray) -> None:
        """Raise the per-message error for one message known to be bad."""
        self._check_rank(src)
        self._check_rank(dst)
        if not (self.cluster.is_up(src) and self.cluster.is_up(dst)):
            raise SimulationError(
                f"point-to-point {src}->{dst} has a down endpoint; "
                "recovery must evacuate or re-route this transfer"
            )
        self.cluster.link.transfer_time(
            nbytes, float(bws[src]), float(bws[dst])
        )

    def _record(self, keys, sizes, seconds: np.ndarray, rows) -> tuple:
        """Tally the priced non-local messages in input order.

        Returns the ``(pairs, sizes, seconds)`` lists that were recorded.
        """
        secs = seconds.tolist()
        pairs = [keys[i] for i in rows]
        sent = [int(sizes[i]) for i in rows]
        secs = [secs[i] for i in rows]
        self.stats.record_messages(pairs, sent, secs)
        if self._messages_total is not None:
            self._messages_total.inc(len(pairs))
            self._bytes_total.inc(sum(sent))
        return pairs, sent, secs

    def p2p_time(
        self, src: int, dst: int, nbytes: float, t: float | None = None
    ) -> float:
        """Seconds for one message from ``src`` to ``dst`` at time ``t``.

        A message to self is a local copy, charged to compute: it costs
        nothing and is not counted.
        """
        keys, sizes, _, _, _, seconds, rows = self._price(
            {(src, dst): nbytes}, t
        )
        self._record(keys, sizes, seconds, rows)
        return float(seconds[0])

    def exchange_time(
        self,
        pair_bytes: Mapping[tuple[int, int], float],
        t: float | None = None,
        phase: str = "exchange",
    ) -> np.ndarray:
        """Per-rank time for a neighbourhood exchange phase.

        ``pair_bytes[(src, dst)]`` is the payload volume from src to dst.
        Every rank's sends and receives serialize on its NIC; the function
        returns the per-rank busy time (callers usually take the max).
        ``phase`` labels the emitted ``comm.exchange`` telemetry event
        (``"ghost-exchange"``, ``"migration"``) when a tracer is bound.

        The whole phase is priced against one bandwidth snapshot and
        validated before anything is recorded, so a phase that raises
        leaves no traffic behind.  Busy time accumulates with one
        ``np.bincount`` over the interleaved ``[src0, dst0, src1, dst1,
        ...]`` index: in-order, so it equals the per-message
        ``busy[src] += s; busy[dst] += s`` loop bit for bit.
        """
        keys, sizes, src, dst, bw, seconds, rows = self._price(pair_bytes, t)
        pairs, sent, secs = self._record(keys, sizes, seconds, rows)
        ends = np.empty(2 * len(keys), dtype=np.intp)
        ends[0::2] = src
        ends[1::2] = dst
        busy = np.bincount(
            ends, weights=np.repeat(seconds, 2), minlength=self.size
        )
        if self._tracer.enabled:
            nominal = np.array(
                [spec.bandwidth_mbps for spec in self.cluster.nodes]
            )
            derated = (
                bw < np.minimum(nominal[src], nominal[dst]) * (1.0 - 1e-12)
            ).tolist()
            self._emit_exchange_event(
                phase,
                [
                    (int(s), int(d), nbytes, sec, derated[i])
                    for i, (s, d), nbytes, sec in zip(rows, pairs, sent, secs)
                ],
                busy,
                t,
            )
        return busy

    def _emit_exchange_event(
        self,
        phase: str,
        pairs: list[tuple[int, int, int, float, bool]],
        busy: np.ndarray,
        t: float | None,
    ) -> None:
        total_bytes = int(sum(p[2] for p in pairs))
        derated_bytes = int(sum(p[2] for p in pairs if p[4]))
        messages = len(pairs)
        dropped = 0
        if len(pairs) > EVENT_PAIR_CAP:
            pairs = sorted(pairs, key=lambda p: p[2], reverse=True)
            dropped = len(pairs) - EVENT_PAIR_CAP
            pairs = pairs[:EVENT_PAIR_CAP]
        makespan = float(busy.max()) if busy.size else 0.0
        attrs = {
            "phase": phase,
            "ranks": self.size,
            "bytes": total_bytes,
            "messages": messages,
            "seconds": makespan,
            "derated_bytes": derated_bytes,
            "pairs": [list(p) for p in pairs],
        }
        if dropped:
            attrs["pairs_dropped"] = dropped
        if t is not None:
            attrs["t"] = float(t)
        self._tracer.event("comm.exchange", **attrs)
        self._tracer.metrics.histogram("comm.phase_seconds", phase=phase).observe(
            makespan
        )

    def allreduce_time(
        self, nbytes: float, t: float | None = None, op: str = "allreduce"
    ) -> float:
        """Binomial-tree allreduce over the *live* ranks.

        Down nodes are excluded from the tree -- an MPI implementation with
        fault tolerance (ULFM-style) shrinks the communicator; pricing them
        in would divide by a zero bandwidth.
        """
        live = self.cluster.live_mask()
        num_live = int(live.sum())
        if num_live <= 1:
            return 0.0
        rounds = math.ceil(math.log2(num_live))
        slowest_bw = float(self.cluster.bandwidths(t)[live].min())
        per_round = self.cluster.link.transfer_time(nbytes, slowest_bw, slowest_bw)
        seconds = rounds * per_round
        self.stats.collective_time += seconds
        if self._tracer.enabled:
            self._tracer.metrics.histogram(
                "comm.collective_seconds", op=op
            ).observe(seconds)
        return seconds

    def broadcast_time(self, nbytes: float, t: float | None = None) -> float:
        """Binomial-tree broadcast; same round structure as allreduce."""
        return self.allreduce_time(nbytes, t, op="broadcast")

    # ------------------------------------------------------------------
    def migration_time(
        self,
        bytes_moved: Mapping[tuple[int, int], int],
        t: float | None = None,
    ) -> float:
        """Wall time of a data-migration phase (post-repartition).

        Returns the makespan: the busiest rank's serialized transfer time.
        """
        if not bytes_moved:
            return 0.0
        busy = self.exchange_time(bytes_moved, t, phase="migration")
        return float(busy.max())
