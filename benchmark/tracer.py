"""Span tracing around the calls into each layer, from outside the program.

Spans are recorded by swapping the module attributes that the program
calls through (``kiss.channel.seal``, ``kiss.channel.hmac``,
``kiss.randomness.ALL_TESTS[...]`` and so on) for timing wrappers, and
putting the originals back afterwards. The program's source is untouched.
A layer's self time is its span minus the spans of its children. A name
the program no longer has is reported as absent, not as an error.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import kiss.association
import kiss.channel
import kiss.idvv
import kiss.randomness

BATTERY_TESTS = (
    "monobit", "block-frequency", "runs", "longest-run", "cusum", "approximate-entropy", "serial",
)

_MISSING = object()


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start_ns, end_ns, self_ns, ok, depth)
        self.steps = 0  # chain steps made inside idvv_fast_forward
        self.absent: set[str] = set()
        self.enabled = True
        self._stack: list[list] = []  # child time of each open span; one thread only

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call while the tracer is enabled."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            children = [0]
            stack.append(children)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                spans.append((name, start, end, end - start - children[0], ok, len(stack)))

        return traced

    def _fast_forward(self, orig):
        traced = self.wrap("idvv.fast_forward", orig)

        def fast_forward(state, *args):
            before = state.counter
            try:
                return traced(state, *args)
            finally:
                if self.enabled:
                    self.steps += state.counter - before

        return fast_forward

    def _aead_class(self, cls):
        """AESGCM with a span for the key set-up and one per encrypt/decrypt."""
        make = self.wrap("crypto.aead.setup", cls)
        wrap = self.wrap

        class TracedAESGCM:
            def __init__(self, key):
                inner = make(key)
                self.encrypt = wrap("crypto.aead", inner.encrypt)
                self.decrypt = wrap("crypto.aead", inner.decrypt)

        return TracedAESGCM

    @contextmanager
    def installed(self):
        """Swap the traced attributes in for the duration of the block."""
        ch, idvv, rnd = kiss.channel, kiss.idvv, kiss.randomness
        targets = [(mod, "idvv_next", "idvv.next", None) for mod in (ch, idvv, rnd)] + [
            (ch, "idvv_fast_forward", "idvv.fast_forward", self._fast_forward),
            (ch, "derive_key", "idvv.derive_key", None),
            (idvv.IdvvState, "clone", "idvv.clone", None),
            (kiss.association, "read_provision_file", "association.read_provision", None),
            (kiss.association, "load_association", "association.load", None),
            (ch, "accept_seq", "association.accept_seq", None),
            (ch.ChannelEndpoint, "handshake", "channel.handshake", None),
            (ch, "seal", "channel.seal", None),
            (ch, "encode_record", "channel.encode", None),
            (ch, "open_record", "channel.open", None),
            (ch, "read_record", "channel.read_record", None),
            (ch, "hmac", "crypto.hmac", lambda mod: _HmacProxy(mod, self.wrap("crypto.hmac", mod.digest))),
            (ch, "AESGCM", "crypto.aead", self._aead_class),
            (rnd, "generate_stream", "randomness.generate_stream", None),
        ]
        tests = rnd.ALL_TESTS
        saved_tests = dict(tests)
        saved = []
        for obj, attr, name, make in targets:
            orig = getattr(obj, attr, _MISSING)
            if orig is _MISSING:
                self.absent.add(name)
                continue
            setattr(obj, attr, make(orig) if make else self.wrap(name, orig))
            saved.append((obj, attr, orig))
        for test in BATTERY_TESTS:
            name = "randomness." + test.replace("-", "_")
            if test in tests:
                tests[test] = self.wrap(name, tests[test])
            else:
                self.absent.add(name)
        try:
            yield self
        finally:
            for obj, attr, orig in reversed(saved):
                setattr(obj, attr, orig)
            tests.update(saved_tests)

    def transport(self, sock):
        """The socket as the endpoint sees it, with ``sendall``/``recv`` spans."""
        return _Transport(self.wrap("transport.send", sock.sendall), self.wrap("transport.recv", sock.recv))

    def summary(self) -> dict:
        """Per span name: calls, total and self ns, and the same for failed calls."""
        out = defaultdict(lambda: dict.fromkeys(
            ("calls", "total_ns", "self_ns", "failed", "failed_ns", "failed_self_ns"), 0))
        for name, start, end, self_ns, ok, _depth in self.spans:
            s = out[name]
            s["calls"] += 1
            s["total_ns"] += end - start
            s["self_ns"] += self_ns
            if not ok:
                s["failed"] += 1
                s["failed_ns"] += end - start
                s["failed_self_ns"] += self_ns
        return dict(out)


class _HmacProxy:
    """Stands in for the ``hmac`` module inside ``kiss.channel``."""

    def __init__(self, module, traced_digest):
        self._module = module
        self.digest = traced_digest

    def __getattr__(self, attr):
        return getattr(self._module, attr)


class _Transport:
    def __init__(self, sendall, recv):
        self.sendall = sendall
        self.recv = recv
