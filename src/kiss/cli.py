"""Command-line entry points.

Subcommands: provision, server, client, bench, randomness, vectors.
Exit codes are a stable scripting contract: 0 success, 1 operational
failure, 2 usage error. Reports and other machine-readable output go
to stdout or the --csv path; diagnostics go to stderr, with verbosity
controlled by the KISS_LOG environment variable (error, info, debug).
"""

from __future__ import annotations

import argparse
import importlib
import logging
import os
import socket
import sys
import tempfile
from pathlib import Path

from .association import (
    Mode,
    generate_provision,
    load_association,
    parse_hex,
    read_provision_file,
    write_provision_file,
)
from .channel import ChannelEndpoint, load_aead
from .defaults import DEFAULT_ALPHA, DEFAULT_SIZES, DEFAULT_STREAM_BITS, DEFAULT_TRIALS
from .defaults import DEMO_ROOT, DEMO_SEED
from .errors import KissError
from .idvv import SECRET_LEN, idvv_init

log = logging.getLogger("kiss")

# the message sizes each bench suite runs when --sizes is not given
_BENCH_SIZES = {"primitives": DEFAULT_SIZES, "tls": (1500,)}

# seconds either endpoint waits on a silent peer before it gives up
IO_TIMEOUT_S = 30.0


def _setup_logging() -> None:
    level_name = os.environ.get("KISS_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        print(
            f"warning: KISS_LOG={level_name!r} not one of error/info/debug; "
            "using error",
            file=sys.stderr,
        )
        level_name = "error"
    logging.basicConfig(
        stream=sys.stderr,
        level=levels[level_name],
        format="%(levelname)s %(name)s: %(message)s",
    )


def _parse_addr(text: str) -> tuple[str, int]:
    """``host:port``; an IPv6 host may be bracketed, ``[::1]:0``, or bare."""
    host, sep, port = text.rpartition(":")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    if not sep or not host:
        raise KissError(f"address must be host:port, got {text!r}")
    try:
        number = int(port)
    except ValueError:
        raise KissError(f"bad port in address {text!r}") from None
    # getaddrinfo would wrap a larger port mod 2**16 and bind would overflow
    if not 0 <= number <= 65535:
        raise KissError(f"port must be in 0..65535, got {text!r}")
    return host, number


def _load_association(path):
    # an AEAD association loads AES-GCM here: without cryptography, one
    # error before any socket is opened
    assoc = load_association(read_provision_file(path))
    if assoc.mode is Mode.AEAD:
        load_aead()
    return assoc


def _import_extra(subcommand: str, package: str, extra: str):
    """Import ``kiss.<subcommand>``; without ``package``, which only that
    subcommand needs, raise one KissError naming the extra that brings it."""
    try:
        return importlib.import_module(f"{__package__}.{subcommand}")
    except ModuleNotFoundError as exc:
        if exc.name != package:
            raise
        raise KissError(
            f"kiss {subcommand} needs {package}: pip install 'kiss-toolkit[{extra}]'"
        ) from None


def _check_csv_path(path) -> None:
    """Refuse, before any trial or row runs, a ``--csv`` path that cannot be written."""
    if path and Path(path).is_dir():
        raise KissError(f"--csv {path} is a directory")
    if path and not Path(path).parent.is_dir():
        raise KissError(f"--csv {path}: {Path(path).parent} is not an existing directory")


# -- subcommands -------------------------------------------------------


def cmd_provision(args) -> int:
    init_pf, resp_pf = generate_provision(mode=Mode(args.mode))
    out_dir = Path(args.out_dir)
    files = [(init_pf, out_dir / "initiator.prov"), (resp_pf, out_dir / "responder.prov")]
    temps = []
    # both files go to fresh temporary names first and are renamed only once
    # both are written, so the pair lands whole or leaves the directory as it was
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for pf, path in files:
            fd, temp = tempfile.mkstemp(prefix=f".{path.name}.", dir=out_dir)
            os.close(fd)
            temps.append(temp)
            write_provision_file(pf, temp)
        for _, path in files:  # a rename would replace a link, not write through it
            if path.is_symlink() or path.is_dir():
                raise FileExistsError(f"{path} is a symlink or a directory")
        for temp, (_, path) in zip(temps, files):
            os.replace(temp, path)
    except OSError as exc:
        print(f"error: cannot write provision files: {exc}", file=sys.stderr)
        return 1
    finally:
        for temp in temps:
            Path(temp).unlink(missing_ok=True)
    log.info("wrote initiator.prov and responder.prov under %s", out_dir)
    print(init_pf.assoc_id.hex())
    return 0


def cmd_server(args) -> int:
    assoc = _load_association(args.provision)
    host, port = _parse_addr(args.listen)
    # no host name has a colon, so a host with one is an IPv6 literal
    family = socket.AF_INET6 if ":" in host else socket.AF_INET
    with socket.create_server((host, port), family=family) as listener:
        bound_port = listener.getsockname()[1]
        print(f"listening {host}:{bound_port}", file=sys.stderr, flush=True)
        conn, peer = listener.accept()
        conn.settimeout(IO_TIMEOUT_S)
        log.info("connection from %s", peer)
        with conn:
            endpoint = ChannelEndpoint(assoc, conn)
            endpoint.handshake()
            log.info("handshake complete")
            served = 0
            while True:
                payload = endpoint.receive()
                if payload is None:
                    break
                endpoint.send(payload)
                served += 1
                log.debug("acknowledged record %d (%d bytes)", served, len(payload))
    log.info("served %d records, clean close", served)
    return 0


def cmd_client(args) -> int:
    if args.count < 1:
        raise KissError(f"--count must be at least 1, got {args.count}")
    assoc = _load_association(args.provision)
    host, port = _parse_addr(args.connect)
    # --send is one record; otherwise each payload is made as it is sent
    message = None if args.send is None else args.send.encode("utf-8")
    count = args.count if message is None else 1
    with socket.create_connection((host, port), timeout=IO_TIMEOUT_S) as conn:
        endpoint = ChannelEndpoint(assoc, conn)
        endpoint.handshake()
        log.info("handshake complete")
        for i in range(count):
            payload = b"msg-%08d" % i if message is None else message
            endpoint.send(payload)
            ack = endpoint.receive()
            if ack != payload:
                raise KissError(f"acknowledgment mismatch on record {i}")
            log.debug("record %d acknowledged", i)
        if message is not None:
            print(args.send)
        endpoint.close()
    log.info("%d records exchanged, clean close", count)
    return 0


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError:
        raise KissError(f"sizes must be comma-separated integers, got {text!r}") from None


def cmd_bench(args) -> int:
    _check_csv_path(args.csv)
    bench_mod = _import_extra("bench", "cryptography", "aead")

    sizes = _BENCH_SIZES[args.suite] if args.sizes is None else _parse_sizes(args.sizes)
    report = bench_mod.run_suite(args.suite, sizes, args.duration)
    print(report.format_markdown())
    if args.suite == "tls":
        print(bench_mod.headline_summary(report))
    if args.csv:
        Path(args.csv).write_text(report.to_csv(), encoding="utf-8")
        log.info("wrote CSV to %s", args.csv)
    return 0


def cmd_randomness(args) -> int:
    _check_csv_path(args.csv)
    run_battery = _import_extra("randomness", "numpy", "battery").run_battery

    seed = parse_hex("--seed", args.seed, SECRET_LEN) if args.seed else DEMO_SEED
    root = parse_hex("--root", args.root, SECRET_LEN) if args.root else DEMO_ROOT
    report = run_battery(
        seed, root, n_bits=args.bits, trials=args.trials, alpha=args.alpha
    )
    print(report.format_table())
    if args.csv:
        Path(args.csv).write_text(report.to_csv(), encoding="utf-8")
        log.info("wrote CSV to %s", args.csv)
    return 0


def cmd_vectors(args) -> int:
    seed = parse_hex("--seed", args.seed, SECRET_LEN) if args.seed else bytes(SECRET_LEN)
    root = parse_hex("--root", args.root, SECRET_LEN) if args.root else bytes(SECRET_LEN)
    if args.count < 1:
        raise KissError(f"--count must be at least 1, got {args.count}")
    label = args.label.encode("utf-8")
    v0 = []  # the chain keeps only the value after it
    state = idvv_init(seed, root, label, v0)
    print(f"seed = {seed.hex()}")
    print(f"root = {root.hex()}")
    print(f"label = {args.label}")
    print(f"v0 = {v0[0].hex()}")
    for _ in range(args.count - 1):
        value, seq = state.head()
        print(f"v{seq} = {value.hex()}")
        state.commit(value, seq)
    return 0


# -- argument wiring ---------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kiss",
        description="Deterministic key-chain secure channel toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("provision", help="generate an association file pair")
    p.add_argument("--out-dir", default=".", help="directory for the two files")
    p.add_argument("--mode", choices=[m.value for m in Mode], default=Mode.AUTH_ONLY.value)
    p.set_defaults(func=cmd_provision)

    p = sub.add_parser("server", help="run the demo echo-acknowledging endpoint")
    p.add_argument("--provision", required=True, help="responder provision file")
    p.add_argument("--listen", default="127.0.0.1:0", help="host:port (0 = ephemeral)")
    p.set_defaults(func=cmd_server)

    p = sub.add_parser("client", help="drive records through a server")
    p.add_argument("--provision", required=True, help="initiator provision file")
    p.add_argument("--connect", required=True, help="server host:port")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--send", help="send one UTF-8 payload and print the echo")
    group.add_argument("--count", type=int, default=1, help="send N counter payloads")
    p.set_defaults(func=cmd_client)

    p = sub.add_parser("bench", help="run a benchmark suite")
    p.add_argument("--suite", choices=_BENCH_SIZES, required=True)
    p.add_argument("--csv", help="also write machine-readable CSV here")
    defaults = "; ".join(
        f"{suite} {','.join(map(str, sizes))}" for suite, sizes in _BENCH_SIZES.items()
    )
    p.add_argument("--sizes", help=f"comma-separated message sizes (default: {defaults})")
    p.add_argument("--duration", type=float, default=1.0, help="timed seconds per row")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("randomness", help="run the statistical battery")
    p.add_argument(
        "--bits", type=int, default=DEFAULT_STREAM_BITS,
        help="bits per trial, at least 65,537 for the serial test's 16-bit patterns "
        "(default: %(default)s)",
    )
    p.add_argument(
        "--trials", type=int, default=DEFAULT_TRIALS, help="trials per test (default: %(default)s)"
    )
    p.add_argument(
        "--alpha", type=float, default=DEFAULT_ALPHA,
        help="significance level (default: %(default)s)",
    )
    p.add_argument("--csv", help="also write per-trial CSV here")
    p.add_argument("--seed", help="chain seed, 64 lowercase hex chars")
    p.add_argument("--root", help="chain root, 64 lowercase hex chars")
    p.set_defaults(func=cmd_randomness)

    p = sub.add_parser("vectors", help="print known-answer chain vectors")
    p.add_argument("--seed", help="chain seed, 64 lowercase hex chars (default all zero)")
    p.add_argument("--root", help="chain root, 64 lowercase hex chars (default all zero)")
    p.add_argument("--label", default="c2s", help="direction label")
    p.add_argument("--count", type=int, default=4, help="number of values to print")
    p.set_defaults(func=cmd_vectors)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KissError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
