"""HDSearch's front-end presentation microservice (paper Fig. 2).

The paper's pipeline, reproduced stage for stage:

1. the web application delivers the user's query image;
2. the image → feature-vector **cache** (a Redis instance) is consulted;
3. on a miss, **feature extraction** runs (Inception V3 in the paper) and
   the result is added to the cache;
4. the feature vector is sent to the **back end** (the mid-tier studied
   by the paper) for k-NN retrieval;
5. a second Redis instance maps the returned image IDs to **URLs**, and a
   response page is constructed.

The front-end runs as a simulated machine on the fabric; its backend
query is a normal RPC to the mid-tier.  (The paper does not characterize
this tier; we expose it so the suite is a complete three-tier system and
the cache behaviour is testable.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.kernel.machine import Machine
from repro.kernel.ops import Compute, EpollWait, SockRecv, SockSend
from repro.rpc.message import RpcRequest, RpcResponse
from repro.services.frontend.features import FeatureExtractor
from repro.services.frontend.rediskv import RedisLikeStore

Address = Tuple[str, int]

#: Simulated cost of one cache round trip (local Redis instance).
_CACHE_LOOKUP_US = 90.0
#: Simulated cost of constructing the response page.
_PAGE_BUILD_US = 120.0


@dataclass
class FrontendStats:
    """Counters for the cache → extract → search pipeline."""

    requests: int = 0
    cache_hits: int = 0
    cache_misses: int = 0  # each one runs feature extraction
    pages_built: int = 0


class HdSearchFrontend:
    """The presentation tier: web app entry, caches, backend client."""

    def __init__(
        self,
        machine: Machine,
        midtier_addr: Address,
        extractor: FeatureExtractor,
        image_urls: Dict[int, str],
        port: int = 30,
        cache_maxmemory: int = 8 * 1024 * 1024,
    ):
        self.machine = machine
        self.midtier_addr = tuple(midtier_addr)
        self.extractor = extractor
        # Fig. 2's two Redis instances.
        self.vector_cache = RedisLikeStore(
            maxmemory_bytes=cache_maxmemory, clock=lambda: machine.sim.now
        )
        self.url_store = RedisLikeStore(clock=lambda: machine.sim.now)
        for image_id, url in image_urls.items():
            self.url_store.hset("image:urls", str(image_id), url)
        self.stats = FrontendStats()
        # Backend client socket + epoll for responses.
        self.client_sock = machine.socket(port)
        self.client_epoll = machine.epoll()
        self.client_epoll.add(self.client_sock)
        self._pending: Dict[int, Tuple[bytes, float]] = {}
        self._pages: List[dict] = []
        machine.spawn("fe-responses", self._response_loop())

    # -- the Fig. 2 request path, as a generator run on a simulated thread --
    def submit_query(self, image_bytes: bytes):
        """Generator: run one user query through the pipeline."""
        start = self.machine.sim.now
        self.stats.requests += 1
        key = self.extractor.cache_key(image_bytes)

        # Feature-vector cache consultation.
        yield Compute(_CACHE_LOOKUP_US, tag="fe-cache")
        cached = self.vector_cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            vector = FeatureExtractor.decode(cached)
        else:
            self.stats.cache_misses += 1
            # Feature extraction (the expensive Inception V3 stand-in).
            yield Compute(self.extractor.extraction_cost_us, tag="fe-extract")
            vector = self.extractor.extract(image_bytes)
            yield Compute(_CACHE_LOOKUP_US, tag="fe-cache-fill")
            self.vector_cache.set(key, FeatureExtractor.encode(vector))

        # Send the query to the back end (the paper's object of study).
        request = RpcRequest(
            method="query",
            payload=("query", vector),
            size_bytes=48 + 8 * len(vector),
            reply_to=self.client_sock.address,
            client_start=start,
        )
        self._pending[request.request_id] = (image_bytes, start)
        yield SockSend(self.client_sock, self.midtier_addr, request, request.size_bytes)

    def _response_loop(self):
        while True:
            ready = yield EpollWait(self.client_epoll, timeout_us=5_000.0)
            for sock in ready:
                message = yield SockRecv(sock)
                if isinstance(message, RpcResponse):
                    yield from self._build_page(message)

    def _build_page(self, response: RpcResponse):
        pending = self._pending.pop(response.request_id, None)
        if pending is None:
            return
        _image_bytes, start = pending
        # Response-image look-up in the second Redis instance.
        yield Compute(_CACHE_LOOKUP_US, tag="fe-url-lookup")
        results = []
        for image_id, distance in response.payload or []:
            url = self.url_store.hget("image:urls", str(image_id))
            results.append({"image_id": image_id, "distance": distance, "url": url})
        # Response page construction.
        yield Compute(_PAGE_BUILD_US, tag="fe-page")
        latency = self.machine.sim.now - start
        self.stats.pages_built += 1
        self._pages.append({"results": results, "latency_us": latency})

    # -- results -----------------------------------------------------------
    @property
    def pages(self) -> List[dict]:
        """Every response page built so far."""
        return list(self._pages)

    def hit_rate(self) -> float:
        """Feature-vector cache hit rate."""
        total = self.stats.cache_hits + self.stats.cache_misses
        return self.stats.cache_hits / total if total else 0.0


def build_frontend(
    cluster,
    service_handle,
    cores: int = 8,
    name: Optional[str] = None,
) -> HdSearchFrontend:
    """Attach a front-end machine to an existing HDSearch deployment."""
    corpus = service_handle.extras["corpus"]
    machine = cluster.machine(name or "hds-frontend", cores=cores)
    extractor = FeatureExtractor(dims=corpus.dims, seed=7)
    urls = {i: f"https://images.example/{i}.jpg" for i in range(corpus.n_points)}
    return HdSearchFrontend(
        machine=machine,
        midtier_addr=service_handle.midtier.address,
        extractor=extractor,
        image_urls=urls,
    )
