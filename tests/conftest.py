"""Fixtures shared by the test modules."""

import pytest

import kiss.channel as channel_mod


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
