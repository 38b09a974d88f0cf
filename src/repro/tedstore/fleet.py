"""Multi-process shard deployment: per-shard routes with failure domains.

DESIGN.md §17. A fleet is N ``repro serve-shard`` processes — provider
leaves over ``<root>/shards/<k>/`` and KM sketch observers over
``<km_root>/shards/<k>/`` — named by the ring's endpoint map. This
module is the client side: every shard gets its own **route**, a lazy
per-shard transport wrapped in a :class:`~repro.tedstore.health.\
CircuitBreaker` and fed by a heartbeat monitor, so one dead shard is
one open breaker, not a hung pipeline.

Semantics under failure (graceful degradation):

* Operations touching only healthy shards proceed normally.
* An operation routed at an open breaker fails **fast** with
  :class:`~repro.tedstore.health.ShardUnavailableError` — for
  multi-shard batches the admission check runs for *every* target
  shard before any bytes are sent, so a batch that cannot fully land
  does not scatter sub-batches at healthy shards first.
* A mid-flight failure (breaker was closed, shard died under the
  call) surfaces the same typed error after the per-shard retry
  policy is exhausted. Per-shard acks keep such a batch shard-local:
  the sub-batches that did land are idempotent puts a retry replays
  byte-identically (the provider dedups, the observer's durable log
  replays by batch id), which the differential chaos gate pins.
* A restarted shard recovers its state through the §12 crash-recovery
  path and rejoins on the first successful probe (or trial call).
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Tuple

from repro.storage.dedup import RingEpochRegressionError
from repro.storage.sharded import ShardRouteMeter
from repro.tedstore import messages as m
from repro.tedstore.health import (
    CircuitBreaker,
    ShardHealthMonitor,
    ShardUnavailableError,
)
from repro.tedstore.network import (
    RemoteProvider,
    RemoteShardObserver,
    parse_endpoint,
    probe_endpoint,
)
from repro.tedstore.provider import DEFAULT_TENANT
from repro.tedstore.retry import RetryPolicy
from repro.tedstore.ring import HashRing, scatter

#: Wire failures that count against a shard's breaker. RuntimeError
#: (a served MSG_ERROR) and KeyError/FileNotFoundError (typed misses)
#: do NOT: the shard answered, so it is healthy — wrong is not down.
_ROUTE_FAILURES = (ConnectionError, TimeoutError, OSError, m.ProtocolError)


class ShardRoute:
    """One shard's guarded, lazily-connected transport.

    The transport is built on first use (and rebuilt after any wire
    failure), so a fleet client can be constructed while some shards
    are still starting — their breakers simply open until the first
    successful call or probe.
    """

    def __init__(
        self,
        side: str,
        shard_id: int,
        endpoint: str,
        factory: Callable[[Tuple[str, int]], object],
        breaker: CircuitBreaker,
        probe_timeout: float = 2.0,
    ) -> None:
        self.side = side
        self.shard_id = int(shard_id)
        self.endpoint = endpoint
        self.address = parse_endpoint(endpoint)
        self._factory = factory
        self.breaker = breaker
        self._probe_timeout = probe_timeout
        self._transport: Optional[object] = None
        self._lock = threading.Lock()

    def _get_transport(self):
        with self._lock:
            if self._transport is None:
                self._transport = self._factory(self.address)
            return self._transport

    def _drop_transport(self) -> None:
        with self._lock:
            transport, self._transport = self._transport, None
        if transport is not None:
            try:
                transport.close()
            except Exception:
                pass  # already broken; nothing to salvage

    def admit(self) -> None:
        """Fail fast if this shard's breaker is open.

        Non-consuming: batch pre-admission must not claim the half-open
        trial slot, or the slot would be wedged and the sub-batch that
        follows (whose :meth:`call` admits for real) would fail fast —
        locking a recovering shard out of exactly the traffic that
        would close its breaker.
        """
        self.breaker.check()

    def call(self, fn: Callable[[object], object]):
        """Run ``fn(transport)`` under the breaker.

        Wire failures (after the transport's own retry policy) open
        the path toward the breaker threshold and re-raise as
        :class:`ShardUnavailableError`; served errors pass through
        untouched (an answering shard is a healthy shard).
        """
        self.breaker.admit()
        try:
            result = fn(self._get_transport())
        except _ROUTE_FAILURES as exc:
            self.breaker.record_failure()
            self._drop_transport()
            raise ShardUnavailableError(
                self.side, self.shard_id, f"{type(exc).__name__}: {exc}"
            ) from exc
        self.breaker.record_success()
        return result

    def probe(self) -> m.Pong:
        """Heartbeat probe on a dedicated short-lived socket."""
        return probe_endpoint(self.address, timeout=self._probe_timeout)

    def close(self) -> None:
        self._drop_transport()


def build_routes(
    side: str,
    ring: HashRing,
    factory: Callable[[Tuple[str, int]], object],
    *,
    breaker_failures: int = 3,
    breaker_reset: float = 5.0,
    probe_timeout: float = 2.0,
    clock=None,
) -> Dict[int, ShardRoute]:
    """A guarded route per ring shard; requires a full endpoint map."""
    missing = [s for s in ring.shards if ring.endpoint_for(s) is None]
    if missing:
        raise ValueError(
            f"ring publishes no endpoint for shards {missing}; a "
            "multi-process deployment needs every shard mapped"
        )
    routes: Dict[int, ShardRoute] = {}
    for shard_id in ring.shards:
        kwargs = {}
        if clock is not None:
            kwargs["clock"] = clock
        breaker = CircuitBreaker(
            side,
            shard_id,
            failure_threshold=breaker_failures,
            reset_timeout=breaker_reset,
            **kwargs,
        )
        routes[shard_id] = ShardRoute(
            side,
            shard_id,
            ring.endpoint_for(shard_id),
            factory,
            breaker,
            probe_timeout=probe_timeout,
        )
    return routes


class _ShardFleet:
    """Guarded routes to every ring shard plus their heartbeat monitor.

    The set-up and lifecycle shared by both client sides of a fleet:
    :class:`MultiShardProvider` and :class:`RemoteKmShardPool`. A
    ``heartbeat_interval <= 0`` starts no monitor thread.
    """

    def __init__(
        self,
        side: str,
        ring: HashRing,
        factory: Callable[[Tuple[str, int]], object],
        *,
        breaker_failures: int,
        breaker_reset: float,
        heartbeat_interval: float,
        probe_timeout: float,
        clock,
    ) -> None:
        self.ring = ring
        self._routes = build_routes(
            side,
            ring,
            factory,
            breaker_failures=breaker_failures,
            breaker_reset=breaker_reset,
            probe_timeout=probe_timeout,
            clock=clock,
        )
        self._monitor: Optional[ShardHealthMonitor] = None
        if heartbeat_interval > 0:
            self._monitor = ShardHealthMonitor(
                probes={s: r.probe for s, r in self._routes.items()},
                breakers={s: r.breaker for s, r in self._routes.items()},
                interval=heartbeat_interval,
            ).start()

    def shard_health(self) -> Dict[int, str]:
        """``shard id -> breaker state`` for status surfaces."""
        return {
            shard: route.breaker.state
            for shard, route in sorted(self._routes.items())
        }

    def routes(self) -> Dict[int, ShardRoute]:
        return dict(self._routes)

    def close(self) -> None:
        if self._monitor is not None:
            self._monitor.stop()
            self._monitor = None
        for route in self._routes.values():
            route.close()


class MultiShardProvider(_ShardFleet):
    """Provider transport over per-shard processes (DESIGN.md §17).

    Drop-in for :class:`~repro.tedstore.network.RemoteProvider` from
    the client pipeline's point of view: same ``put_chunks`` /
    ``get_chunks`` / recipe / ``ring_epoch`` surface. Chunks route by
    cipher-fingerprint ring placement to the shard's own provider
    process; recipes route by file name over the same ring, so a
    file's recipes live in exactly one failure domain and survive the
    loss of every other shard.

    Args:
        ring: placement **with** a full endpoint map.
        tenant / auth_token: per-connection HELLO binding, handed to
            every shard's transport.
        retry_policy: per-shard transport retry policy (absorbs blips
            *within* one call; the breaker counts whole-call failures).
        breaker_failures / breaker_reset: circuit-breaker tuning.
        heartbeat_interval: seconds between health probes; ``0``
            disables the monitor thread (tests drive probes manually).
        io_timeout / connect_timeout: per-shard socket budgets — the
            worst-case client stall on a silently-paused shard is one
            ``io_timeout`` per retry attempt until the breaker opens.
    """

    def __init__(
        self,
        ring: HashRing,
        *,
        tenant: str = DEFAULT_TENANT,
        auth_token: bytes = b"",
        retry_policy: Optional[RetryPolicy] = None,
        breaker_failures: int = 3,
        breaker_reset: float = 5.0,
        heartbeat_interval: float = 0.0,
        probe_timeout: float = 2.0,
        io_timeout: float = 60.0,
        connect_timeout: float = 10.0,
        propagate_trace: bool = True,
        transport_factory: Optional[Callable] = None,
        clock=None,
    ) -> None:
        self.tenant = tenant or DEFAULT_TENANT

        def factory(address: Tuple[str, int]):
            return RemoteProvider(
                address,
                retry_policy=retry_policy,
                propagate_trace=propagate_trace,
                tenant=self.tenant,
                auth_token=auth_token,
                connect_timeout=connect_timeout,
                io_timeout=io_timeout,
            )

        super().__init__(
            "provider",
            ring,
            transport_factory or factory,
            breaker_failures=breaker_failures,
            breaker_reset=breaker_reset,
            heartbeat_interval=heartbeat_interval,
            probe_timeout=probe_timeout,
            clock=clock,
        )
        self._meter = ShardRouteMeter("client", ring.shards)

    # -- placement helpers -------------------------------------------------

    def _recipe_shard(self, file_name: str) -> int:
        # Recipes ride the same ring under a distinct key prefix so a
        # file's recipe placement is deterministic but uncorrelated
        # with any single chunk's placement.
        return self.ring.shard_for_key(b"recipe:" + file_name.encode("utf-8"))

    def ring_epoch(self) -> int:
        return self.ring.epoch

    def check_peer_epoch(self, pong: m.Pong) -> None:
        """Reject a shard serving an older ring than this client's.

        Raises :class:`~repro.storage.dedup.RingEpochRegressionError`
        — typed, and deliberately *not* a cache invalidation: the
        stale peer is wrong, not this client's view.
        """
        if pong.epoch < self.ring.epoch:
            raise RingEpochRegressionError(pong.epoch, self.ring.epoch)

    # -- provider surface --------------------------------------------------

    def put_chunks(self, request: m.PutChunks) -> m.PutChunksResponse:
        groups = self.ring.partition([fp for fp, _ in request.chunks])
        # Admission first, sends second: a batch that cannot fully land
        # (any target breaker open) fails before ANY sub-batch is sent,
        # so fail-fast never manufactures partial cross-shard state.
        for shard, _ in groups:
            self._routes[shard].admit()
        stored = duplicates = 0
        for shard, positions in groups:
            sub = [request.chunks[p] for p in positions]
            self._meter.record(shard, len(sub))
            response = self._routes[shard].call(
                lambda t, sub=sub: t.put_chunks(m.PutChunks(chunks=sub))
            )
            stored += response.stored
            duplicates += response.duplicates
        return m.PutChunksResponse(stored=stored, duplicates=duplicates)

    def get_chunks(self, request: m.GetChunks) -> m.Chunks:
        groups = self.ring.partition(request.fingerprints)
        for shard, _ in groups:
            self._routes[shard].admit()
        results: List[bytes] = [b""] * len(request.fingerprints)
        for shard, positions in groups:
            fps = [request.fingerprints[p] for p in positions]
            self._meter.record(shard, len(positions))
            response = self._routes[shard].call(
                lambda t, fps=fps: t.get_chunks(
                    m.GetChunks(fingerprints=fps)
                )
            )
            scatter(results, positions, response.chunks)
        return m.Chunks(chunks=results)

    def put_recipes(self, request: m.PutRecipes) -> None:
        shard = self._recipe_shard(request.file_name)
        self._routes[shard].call(lambda t: t.put_recipes(request))

    def get_recipes(self, request: m.GetRecipes) -> m.PutRecipes:
        shard = self._recipe_shard(request.file_name)
        return self._routes[shard].call(lambda t: t.get_recipes(request))

    # -- health / reporting ------------------------------------------------

    def ping_all(self) -> Dict[int, m.Pong]:
        """Probe every shard once; raises nothing, skips the dead."""
        pongs: Dict[int, m.Pong] = {}
        for shard, route in sorted(self._routes.items()):
            try:
                pongs[shard] = route.probe()
            except Exception:
                continue
        return pongs

    def routed_counts(self) -> Dict[int, int]:
        return self._meter.counts

    def stats(self) -> List[Tuple[str, int]]:
        """Summed numeric stats over reachable shards, plus health."""
        totals: Dict[str, float] = {}
        reachable = 0
        for shard in sorted(self._routes):
            route = self._routes[shard]
            try:
                pairs = route.call(lambda t: t.stats())
            except ShardUnavailableError:
                continue
            reachable += 1
            for name, value in pairs:
                if isinstance(value, (int, float)):
                    totals[name] = totals.get(name, 0) + value
        pairs = [
            (name, int(v) if float(v).is_integer() else v)
            for name, v in sorted(totals.items())
        ]
        pairs.append(("fleet_shards", len(self._routes)))
        pairs.append(("fleet_shards_reachable", reachable))
        return pairs

    def wire_stats(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for route in self._routes.values():
            transport = route._transport
            if transport is None:
                continue
            for name, value in getattr(
                transport, "wire_stats", dict
            )().items():
                totals[name] = totals.get(name, 0) + value
        return totals


class RemoteKmShardPool(_ShardFleet):
    """Guarded routes to KM sketch-observer processes (front side).

    Built by :class:`~repro.tedstore.sharding.ShardedKeyManager` when
    its ring publishes endpoints. ``observe`` is the only hot call;
    failures surface as :class:`ShardUnavailableError` so a keygen
    batch over a dead observer fails loudly at the front instead of
    hanging the client pipeline.
    """

    def __init__(
        self,
        ring: HashRing,
        *,
        retry_policy: Optional[RetryPolicy] = None,
        breaker_failures: int = 3,
        breaker_reset: float = 5.0,
        heartbeat_interval: float = 0.0,
        probe_timeout: float = 2.0,
        io_timeout: float = 60.0,
        connect_timeout: float = 10.0,
        propagate_trace: bool = True,
        transport_factory: Optional[Callable] = None,
        clock=None,
    ) -> None:
        def factory(address: Tuple[str, int]):
            return RemoteShardObserver(
                address,
                retry_policy=retry_policy,
                propagate_trace=propagate_trace,
                connect_timeout=connect_timeout,
                io_timeout=io_timeout,
            )

        super().__init__(
            "km",
            ring,
            transport_factory or factory,
            breaker_failures=breaker_failures,
            breaker_reset=breaker_reset,
            heartbeat_interval=heartbeat_interval,
            probe_timeout=probe_timeout,
            clock=clock,
        )

    def observe(
        self,
        shard_id: int,
        client_id: str,
        sequence: int,
        hash_vectors: List[List[int]],
    ) -> List[int]:
        request = m.ShardObserveRequest(
            client_id=client_id,
            sequence=sequence,
            hash_vectors=hash_vectors,
        )
        response = self._routes[shard_id].call(
            lambda t: t.observe(request)
        )
        if len(response.estimates) != len(hash_vectors):
            raise m.ProtocolError(
                f"observer shard {shard_id} returned "
                f"{len(response.estimates)} estimates for "
                f"{len(hash_vectors)} vectors"
            )
        return response.estimates

    def shard_stats(self, shard_id: int) -> List[Tuple[str, int]]:
        return self._routes[shard_id].call(lambda t: t.stats())


__all__ = [
    "MultiShardProvider",
    "RemoteKmShardPool",
    "ShardRoute",
    "build_routes",
]
