"""A gRPC-like asynchronous RPC framework over the simulated OS.

Reproduces the software designs of the paper's §IV (Fig. 8) exactly:

* **thread-pool architecture** — fixed pools that "park"/"unpark" on
  condition variables rather than creating threads per request;
* **blocking front-end reception** — network poller threads block in
  ``epoll_pwait`` on the server socket (a polling/spinning mode is also
  provided for the §VII blocking-vs-polling ablation);
* **asynchronous leaf communication** — no thread is tied to an RPC;
  responses are matched to parent requests through a shared pending table;
* **dispatch-based processing** — pollers hand requests to worker threads
  through a mutex+condvar task queue (an in-line mode is also provided for
  the §VII inline-vs-dispatch ablation);
* **response threads** — a dedicated pool drains leaf responses,
  count-down merges them, and the *last* response thread finishes the
  request (the paper: "all but the last response thread do negligible
  work").
"""

from repro.rpc.apps import FanoutPlan, LeafApp, LeafResult, MergeResult, MidTierApp
from repro.rpc.loadbalance import POLICY_NAMES as LB_POLICY_NAMES
from repro.rpc.loadbalance import LoadBalancer
from repro.rpc.message import RpcRequest, RpcResponse
from repro.rpc.queue import TaskQueue
from repro.rpc.server import LeafRuntime, MidTierRuntime, RuntimeConfig

__all__ = [
    "FanoutPlan",
    "LB_POLICY_NAMES",
    "LeafApp",
    "LeafResult",
    "LeafRuntime",
    "LoadBalancer",
    "MergeResult",
    "MidTierApp",
    "MidTierRuntime",
    "RpcRequest",
    "RpcResponse",
    "RuntimeConfig",
    "TaskQueue",
]

# repro.rpc.adaptive (AdaptiveMidTierRuntime, make_midtier_runtime) is
# imported directly by users who need it; it is not re-exported here to
# keep the import graph acyclic.
