"""DSE message formats.

The paper's parallel API library contains a "global memory access request
message create module" and a "response message analyze module"; this module
is both — it defines every message the DSE kernels exchange and the size
accounting the transport charges for them.

All payloads ride as Python objects; ``size_bytes`` is the *accounted* wire
size (header + 8 bytes per global-memory word + per-field extras), which is
what the protocol and link layers use for timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import count
from typing import Any, Optional, Tuple

__all__ = [
    "MsgType",
    "DSEMessage",
    "HEADER_BYTES",
    "WORD_BYTES",
    "is_request",
    "is_response",
    "channel_of",
]

#: fixed DSE message header: type, seq, src, dst, addr/len fields
HEADER_BYTES = 32
#: global memory word (one float64)
WORD_BYTES = 8

_seqs = count(1)


class MsgType(Enum):
    """Every message the DSE kernel understands."""

    # global memory management module
    GM_READ_REQ = "gm_read_req"
    GM_READ_RSP = "gm_read_rsp"
    GM_WRITE_REQ = "gm_write_req"
    GM_WRITE_RSP = "gm_write_rsp"
    GM_ALLOC_REQ = "gm_alloc_req"
    GM_ALLOC_RSP = "gm_alloc_rsp"
    #: write-combining batch: ``data`` is a tuple of ``(addr, words)`` runs,
    #: ``nwords`` their total word count (one wire message per home)
    GM_WBATCH_REQ = "gm_wbatch_req"
    GM_WBATCH_RSP = "gm_wbatch_rsp"
    # coherence (write-invalidate ablation)
    GM_FETCH_REQ = "gm_fetch_req"  # fetch block copy (shared)
    GM_FETCH_RSP = "gm_fetch_rsp"
    GM_OWN_REQ = "gm_own_req"  # fetch exclusive ownership
    GM_OWN_RSP = "gm_own_rsp"
    GM_INV_REQ = "gm_inv_req"  # invalidate a cached copy
    GM_INV_RSP = "gm_inv_rsp"
    GM_WB_REQ = "gm_wb_req"  # write a dirty block back to home
    GM_WB_RSP = "gm_wb_rsp"
    # synchronisation
    LOCK_REQ = "lock_req"
    LOCK_RSP = "lock_rsp"
    UNLOCK_REQ = "unlock_req"
    UNLOCK_RSP = "unlock_rsp"
    BARRIER_REQ = "barrier_req"
    BARRIER_RSP = "barrier_rsp"
    # parallel process management module
    PROC_START_REQ = "proc_start_req"
    PROC_START_RSP = "proc_start_rsp"
    PROC_DONE = "proc_done"  # one-way notification to the invoking kernel
    SHUTDOWN_REQ = "shutdown_req"
    SHUTDOWN_RSP = "shutdown_rsp"
    # SSI services
    SSI_INFO_REQ = "ssi_info_req"
    SSI_INFO_RSP = "ssi_info_rsp"
    KV_PUT_REQ = "kv_put_req"
    KV_PUT_RSP = "kv_put_rsp"
    KV_GET_REQ = "kv_get_req"
    KV_GET_RSP = "kv_get_rsp"
    KV_DEL_REQ = "kv_del_req"
    KV_DEL_RSP = "kv_del_rsp"
    KV_LIST_REQ = "kv_list_req"
    KV_LIST_RSP = "kv_list_rsp"
    # resilience (repro.resilience): heartbeats and membership events are
    # one-way notifications; rollback is a request/response pair
    RES_HEARTBEAT = "res_heartbeat"  # one-way liveness beacon to the monitor
    RES_JOIN = "res_join"  # one-way (re)join announcement to the monitor
    RES_DEAD = "res_dead"  # one-way death declaration broadcast by the monitor
    RES_ROLLBACK_REQ = "res_rollback_req"
    RES_ROLLBACK_RSP = "res_rollback_rsp"


# One-way notifications must be classified as requests explicitly (like
# PROC_DONE) so ``next_request`` picks them out of the kernel mailbox.
_REQUESTS = {t for t in MsgType if t.value.endswith("_req")} | {
    MsgType.PROC_DONE,
    MsgType.RES_HEARTBEAT,
    MsgType.RES_JOIN,
    MsgType.RES_DEAD,
}
_RESPONSES = {t for t in MsgType if t.value.endswith("_rsp")}

#: request type -> its response type
RESPONSE_OF = {
    t: MsgType(t.value[:-4] + "_rsp") for t in MsgType if t.value.endswith("_req")
}


def is_request(t: MsgType) -> bool:
    return t.is_request


def is_response(t: MsgType) -> bool:
    return t.is_response


#: message types carried on the *unreliable* channel of a dual-channel
#: transport (see docs/networking.md): bulk global-memory data movement —
#: idempotent request/response pairs the exchange layer repairs itself with
#: an application-level retry — and best-effort liveness beacons.  Everything
#: else (locks, barriers, invalidations, allocation, process management) is
#: ordering- or exactly-once-critical and rides the reliable channel.
_DATA_CLASS = frozenset(
    {
        MsgType.GM_READ_REQ,
        MsgType.GM_READ_RSP,
        MsgType.GM_WRITE_REQ,
        MsgType.GM_WRITE_RSP,
        MsgType.GM_WBATCH_REQ,
        MsgType.GM_WBATCH_RSP,
        MsgType.GM_FETCH_REQ,
        MsgType.GM_FETCH_RSP,
        MsgType.GM_WB_REQ,
        MsgType.GM_WB_RSP,
        MsgType.RES_HEARTBEAT,
    }
)


def channel_of(t: MsgType) -> str:
    """Which dual-channel lane carries a message type.

    ``"unreliable"`` for idempotent bulk data and best-effort beacons,
    ``"reliable"`` for control traffic.  Only consulted when the cluster
    runs the ``dual`` transport; single-channel transports carry every
    class the same way.
    """
    return "unreliable" if t in _DATA_CLASS else "reliable"


#: message types whose word payload is charged on the wire: write/fetch
#: requests and read responses
_WORD_CARRIERS = frozenset(
    {
        MsgType.GM_WRITE_REQ,
        MsgType.GM_WBATCH_REQ,
        MsgType.GM_READ_RSP,
        MsgType.GM_FETCH_RSP,
        MsgType.GM_OWN_RSP,
        MsgType.GM_WB_REQ,
    }
)

# Each member carries its classes and its response type as plain
# attributes, computed once here.  Mailbox filters test them on every packet
# they scan, size_bytes on every hop and make_response on every reply; a set
# or dict lookup would hash the member through the Python-level
# Enum.__hash__ each time.
for _t in MsgType:
    _t.is_request = _t in _REQUESTS
    _t.is_response = _t in _RESPONSES
    _t.carries_words = _t in _WORD_CARRIERS
    _t.response_type = RESPONSE_OF.get(_t)
del _t


@dataclass(slots=True)
class DSEMessage:
    """One kernel-to-kernel message."""

    msg_type: MsgType
    src_kernel: int
    dst_kernel: int
    #: word address and word count for GM ops; (name,) for sync ops; etc.
    addr: int = 0
    nwords: int = 0
    name: str = ""
    data: Any = None  # numpy array of words, job payload, return value, ...
    status: str = "ok"
    seq: int = field(default_factory=lambda: next(_seqs))
    #: extra accounted bytes beyond header+data (e.g. pickled job payloads)
    extra_bytes: int = 0
    #: observability context (repro.obs.TraceContext) — rides in the header,
    #: not accounted in size_bytes (ids fit the existing seq/src/dst fields)
    trace: Any = field(default=None, repr=False, compare=False)
    #: requesting DSE process rank (sanitizer identity; see repro.sanitize) —
    #: rides in the header like ``trace``, not accounted in size_bytes
    accessor: Any = field(default=None, repr=False, compare=False)

    @property
    def is_request(self) -> bool:
        return self.msg_type.is_request

    @property
    def is_response(self) -> bool:
        return self.msg_type.is_response

    @property
    def size_bytes(self) -> int:
        data_words = self.nwords if self.msg_type.carries_words else 0
        return HEADER_BYTES + data_words * WORD_BYTES + self.extra_bytes + len(self.name)

    def make_response(
        self,
        data: Any = None,
        nwords: Optional[int] = None,
        status: str = "ok",
        extra_bytes: int = 0,
    ) -> "DSEMessage":
        """Build the matching response (same seq, reversed direction)."""
        response_type = self.msg_type.response_type
        if response_type is None:
            raise ValueError(f"cannot respond to {self.msg_type}")
        return DSEMessage(
            msg_type=response_type,
            src_kernel=self.dst_kernel,
            dst_kernel=self.src_kernel,
            addr=self.addr,
            nwords=self.nwords if nwords is None else nwords,
            name=self.name,
            data=data,
            status=status,
            seq=self.seq,
            extra_bytes=extra_bytes,
            # Responses inherit the request's trace context so deferred
            # replies (queued locks, barriers) stay on the requester's tree.
            trace=self.trace,
            accessor=self.accessor,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<DSE {self.msg_type.value} #{self.seq} k{self.src_kernel}->k{self.dst_kernel}"
            f" addr={self.addr} n={self.nwords}>"
        )
