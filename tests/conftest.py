"""Fixtures shared by the test modules."""

import signal

import pytest

import kiss.channel as channel_mod
import kiss.idvv as idvv_mod


@pytest.fixture
def record_keys(monkeypatch):
    """The list of every record key the channel derives, in order, from a
    recording wrapper around ``kiss.channel._record_keys``, which
    ``seal_wire`` and ``_open_frame`` look up on every record."""
    keys, derive = [], channel_mod._record_keys

    def recording(value, mode):
        key, nonce = derive(value, mode)
        keys.append(key)
        return key, nonce

    monkeypatch.setattr(channel_mod, "_record_keys", recording)
    return keys


@pytest.fixture
def hmac_calls(monkeypatch):
    """The list of every (key, message) HMAC'd by the chain and the record
    layer, in order, from a recording wrapper around ``_hmac_new`` as both
    ``kiss.idvv`` and ``kiss.channel`` bind it: they call OpenSSL's HMAC
    constructor directly."""
    calls, real = [], idvv_mod._hmac_new

    def recording(key, message, digestmod):
        calls.append((bytes(key), bytes(message)))
        return real(key, message, digestmod)

    for mod in (idvv_mod, channel_mod):
        monkeypatch.setattr(mod, "_hmac_new", recording)
    return calls


@pytest.fixture
def time_limit():
    """Fail the test with ``TimeoutError`` if it runs past 60 s, where it
    would otherwise block the suite: for tests that read, in this process,
    sockets that have no timeout, as ``kiss.bench._loopback_pair``'s. The
    slowest test takes about 5 s. A forked child does not inherit the
    timer."""
    def expire(signum, frame):
        raise TimeoutError("the test ran past its 60 s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 60.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
