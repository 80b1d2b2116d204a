"""Tests for DSE message formats and size accounting."""

import pytest

from repro.dse.messages import (
    DSEMessage,
    HEADER_BYTES,
    MsgType,
    WORD_BYTES,
    is_request,
    is_response,
)


def test_request_response_classification():
    assert is_request(MsgType.GM_READ_REQ)
    assert is_response(MsgType.GM_READ_RSP)
    assert not is_request(MsgType.GM_READ_RSP)
    assert is_request(MsgType.PROC_DONE)  # one-way, classed as request
    assert not is_response(MsgType.PROC_DONE)


def test_member_attributes_match_the_class_sets():
    from repro.dse.messages import _REQUESTS, _RESPONSES, _WORD_CARRIERS, RESPONSE_OF

    for t in MsgType:
        assert t.is_request is (t in _REQUESTS)
        assert t.is_response is (t in _RESPONSES)
        assert t.carries_words is (t in _WORD_CARRIERS)
        assert t.response_type is RESPONSE_OF.get(t)
    with pytest.raises(ValueError, match="cannot respond"):
        DSEMessage(MsgType.PROC_DONE, 0, 1).make_response()
    with pytest.raises(ValueError, match="cannot respond"):
        DSEMessage(MsgType.GM_READ_RSP, 0, 1).make_response()


def test_every_req_has_matching_rsp():
    for t in MsgType:
        if t.value.endswith("_req"):
            assert MsgType(t.value[:-4] + "_rsp") in MsgType


def test_seq_numbers_unique():
    a = DSEMessage(MsgType.GM_READ_REQ, 0, 1)
    b = DSEMessage(MsgType.GM_READ_REQ, 0, 1)
    assert a.seq != b.seq


def test_make_response_mirrors_fields():
    req = DSEMessage(MsgType.GM_READ_REQ, src_kernel=2, dst_kernel=5, addr=100, nwords=8)
    rsp = req.make_response(data=[1.0] * 8)
    assert rsp.msg_type is MsgType.GM_READ_RSP
    assert rsp.seq == req.seq
    assert (rsp.src_kernel, rsp.dst_kernel) == (5, 2)
    assert rsp.addr == 100 and rsp.nwords == 8


def test_make_response_on_response_rejected():
    rsp = DSEMessage(MsgType.GM_READ_RSP, 0, 1)
    with pytest.raises(ValueError):
        rsp.make_response()


def test_make_response_on_oneway_rejected():
    done = DSEMessage(MsgType.PROC_DONE, 0, 1)
    with pytest.raises(ValueError):
        done.make_response()


def test_size_write_request_carries_words():
    msg = DSEMessage(MsgType.GM_WRITE_REQ, 0, 1, addr=0, nwords=100)
    assert msg.size_bytes == HEADER_BYTES + 100 * WORD_BYTES


def test_size_read_request_is_header_only():
    msg = DSEMessage(MsgType.GM_READ_REQ, 0, 1, addr=0, nwords=100)
    assert msg.size_bytes == HEADER_BYTES


def test_size_read_response_carries_words():
    req = DSEMessage(MsgType.GM_READ_REQ, 0, 1, addr=0, nwords=64)
    rsp = req.make_response(data=[0.0] * 64)
    assert rsp.size_bytes == HEADER_BYTES + 64 * WORD_BYTES


def test_size_write_response_is_header_only():
    req = DSEMessage(MsgType.GM_WRITE_REQ, 0, 1, addr=0, nwords=64)
    rsp = req.make_response(nwords=0)
    assert rsp.size_bytes == HEADER_BYTES


def test_size_includes_name_and_extra():
    msg = DSEMessage(MsgType.LOCK_REQ, 0, 1, name="mylock", extra_bytes=10)
    assert msg.size_bytes == HEADER_BYTES + len("mylock") + 10
