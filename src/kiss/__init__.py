"""KISS: a deterministic key-chain secure channel toolkit.

Both endpoints of an association derive an identical sequence of
per-message secrets from shared seed/root material, so every record is
protected by a fresh key with no per-message key exchange. The package
bundles the chain core, provisioning, the authenticated record layer,
a statistical randomness battery, and a benchmark harness behind one
``kiss`` command-line tool. Import from the submodules: ``kiss.idvv``,
``kiss.association``, ``kiss.channel``, ``kiss.randomness``, ``kiss.bench``.
"""

__version__ = "0.1.0"
