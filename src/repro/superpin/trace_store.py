"""Persistent cross-run trace store: the warm cache's durable tier.

The warm code cache amortizes JIT compilation *within* one run: every
trace is lowered into a VM-independent template once and bound by each
slice that needs it (:mod:`repro.pin.template`).  The cost that remains
is paid once per *run* — the first lowering of every trace — so a
service that executes the same program over and over (the
``repro.serve`` daemon, a CI loop, a perf gate) re-does identical
compile work on every submission.

The :class:`TraceStore` lifts the frozen warm payload onto disk,
content-addressed so it can be shared across runs, tenants and
processes without coordination:

* **Key** (:func:`store_key`) — SHA-256 over the program digest (or
  recording id for replays), the ISA/codegen fingerprint
  (:func:`isa_fingerprint`), the instrumenting tool's fingerprint
  (:func:`tool_fingerprint`: its class and module source plus its
  settings), the JIT backend, and every config field that shapes
  compiled traces (filter spec, suppression, linking).  Two runs with
  the same key would compile byte-identical traces, which is what makes
  adopting each other's payload sound.
* **Entries** — one file per key (``<key>.spwc``): magic, format
  version, SHA-256 over the payload, then the pickled pilot templates
  (:class:`~repro.superpin.sharedcache.TemplatePayload`) and TC2
  chains.  Written with :func:`repro.fsutil.atomic_write`, so
  concurrent writers race to a *complete* file, never a torn one.
* **Verification** — every load recomputes the payload digest.  A
  mismatch (bit rot, a truncated copy, tampering) evicts the entry and
  reports a miss: corrupt bytes are never handed to a JIT.  Lookups
  re-check each template's code words, forced boundaries and
  instrumentation shape, but a template also carries the tool's
  instrumentation *decisions* (which instructions get calls, constant
  arguments, loop summaries), and a later run binds them without
  calling ``instrument_trace`` again.  Only the key guards those: an
  edited tool module or a tool constructed with different settings
  keys a different entry.  A tool whose settings cannot be put in
  canonical form (see :func:`tool_fingerprint`) never uses the store.
* **Eviction** — the store is size-bounded; when the entry files exceed
  the budget, the least-recently-used entries (by access time, which
  loads refresh) are unlinked.  Eviction is best-effort and safe under
  concurrency: a reader holding a now-unlinked file still sees a
  complete, verified payload.

Counters (``-spmetrics``): ``pin.cache.persistent_hits`` /
``persistent_misses`` / ``persistent_saves`` / ``persistent_evictions``
/ ``persistent_corrupt`` / ``persistent_unkeyed`` (runs that skipped a
configured store because the tool has no fingerprint) — the perf gate
requires ``persistent_hits`` to be nonzero on its warm run.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import inspect
import os
import pickle
import sys

from ..fsutil import atomic_write, fsync_directory
from ..obs.metrics import NULL_METRICS
from ..pin.template import TraceTemplate
from .sharedcache import TemplatePayload

#: Entry-file magic + format revision.  Bump when the payload schema
#: changes shape.  Revision 3 pickles a section dict — ``templates``
#: (the pickled TraceTemplate tuple) plus ``chains`` (TC2 promotion
#: chains); older entries fail the magic check and evict like any other
#: corrupt file (a clean miss, never a crash).
STORE_MAGIC = b"SPTS3\n"
_DIGEST_LEN = 32
ENTRY_SUFFIX = ".spwc"

#: Default size budget for a store directory (entry files only).
DEFAULT_STORE_LIMIT = 64 * 1024 * 1024

_isa_fingerprint_cache: str | None = None


def isa_fingerprint() -> str:
    """Digest of every module that shapes compiled trace code.

    Hashing the *source* of the ISA encoding and both JIT backends makes
    the store self-invalidating: any change to instruction semantics or
    code generation changes the fingerprint, so old entries simply stop
    matching instead of feeding stale generated code to a new engine.
    """
    global _isa_fingerprint_cache
    if _isa_fingerprint_cache is None:
        from ..isa import encoding, instructions
        from ..pin import (args, engine, jit, pyjit, superblock, suppress,
                           template, trace)

        digest = hashlib.sha256()
        for module in (encoding, instructions, trace, args, jit, pyjit,
                       template, suppress, superblock, engine):
            digest.update(inspect.getsource(module).encode("utf-8"))
        _isa_fingerprint_cache = digest.hexdigest()
    return _isa_fingerprint_cache


#: Config fields that shape compiled trace *code* (not results): the
#: JIT backend picks the code representation, the filter/suppression
#: settings change what instrumentation is woven in, and linking
#: changes nothing semantically but keeps keys honest if it ever does.
#: The TC2 threshold shapes which promotion chains the payload carries,
#: so a different ``-sptc2`` keys a different entry.
_KEY_FIELDS = ("jit_backend", "spfilter", "spsuppress", "splinktraces",
               "sptc2")


def store_key(source_digest: str, config, tool_digest: str) -> str:
    """Content address of one program+tool+config's warm payload.

    ``source_digest`` identifies the code being executed — a program
    pickle digest for live runs, a recording id for replays (the two
    deliberately key separate entries: a recording's slice shapes are
    its own).  ``tool_digest`` is :func:`tool_fingerprint` of the
    instrumenting tool.
    """
    fields = tuple(getattr(config, name, None) for name in _KEY_FIELDS)
    token = repr((source_digest, isa_fingerprint(), tool_digest,
                  fields)).encode()
    return hashlib.sha256(token).hexdigest()


class _NotCanonical(Exception):
    """A tool setting with no process-independent canonical form."""


def _canonical(value):
    """``value`` as nested tuples of scalars whose repr is the same in
    every process (sets and dicts sorted, dataclasses by field)."""
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if isinstance(value, enum.Enum):
        return (type(value).__qualname__, value.name)
    if isinstance(value, (tuple, list)):
        return (type(value).__name__,
                tuple(_canonical(item) for item in value))
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted((_canonical(item) for item in value),
                                    key=repr)))
    if isinstance(value, dict):
        return ("dict", tuple(sorted(
            ((_canonical(k), _canonical(v)) for k, v in value.items()),
            key=repr)))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__module__, type(value).__qualname__,
                tuple((f.name, _canonical(getattr(value, f.name)))
                      for f in dataclasses.fields(value)))
    raise _NotCanonical(type(value).__qualname__)


_class_digest_cache: dict[type, str | None] = {}


def _class_digest(cls: type) -> str | None:
    """Digest of the source of every module defining ``cls`` or one of
    its bases, or None when a module's source is unavailable."""
    if cls not in _class_digest_cache:
        digest = hashlib.sha256()
        try:
            for klass in cls.__mro__[:-1]:  # every class but ``object``
                digest.update(f"{klass.__module__}.{klass.__qualname__}\n"
                              .encode("utf-8"))
                module = sys.modules[klass.__module__]
                digest.update(inspect.getsource(module).encode("utf-8"))
            _class_digest_cache[cls] = digest.hexdigest()
        except (KeyError, OSError, TypeError):
            _class_digest_cache[cls] = None
    return _class_digest_cache[cls]


def tool_fingerprint(tool) -> str | None:
    """What decides ``tool``'s instrumentation, as a digest — or None.

    Stored templates hold the tool's instrumentation decisions, so the
    store key must change whenever ``instrument_trace`` could decide
    differently.  By the tool contract
    (:class:`~repro.pin.pintool.Pintool`) those decisions depend only on
    the trace and the tool's configuration, so the fingerprint covers
    the source of the modules defining the tool's class and its bases,
    and the tool's whole instance state in canonical form.  Call it
    before ``setup``, while that state is the constructor's settings.
    Including all of it over-approximates "configuration": a reused
    tool object whose counters moved keys a new entry, costing a cold
    compile, never a stale one.

    None — the tool must not use the store — when a module's source is
    unavailable (a class defined interactively) or the state holds
    something with no canonical form (an arbitrary object, a closure).
    """
    class_digest = _class_digest(type(tool))
    if class_digest is None:
        return None
    try:
        state = _canonical(vars(tool))
    except (_NotCanonical, TypeError):
        return None
    return hashlib.sha256(
        repr((class_digest, state)).encode("utf-8")).hexdigest()


def _valid_chains(chains) -> bool:
    """Structural validity of a persisted TC2 chain section.

    Chains carry no per-entry digest of their own (the file digest
    covers them, but a buggy or hostile writer can produce a validly
    signed file), so a load checks the shape a promotion profile
    requires: a tuple of non-empty tuples of addresses.
    """
    if not isinstance(chains, tuple):
        return False
    for chain in chains:
        if not isinstance(chain, tuple) or not chain:
            return False
        for address in chain:
            if not isinstance(address, int) or isinstance(address, bool):
                return False
    return True


class TraceStore:
    """One on-disk store directory: load, save, verify, evict."""

    def __init__(self, root, limit_bytes: int = DEFAULT_STORE_LIMIT,
                 metrics=NULL_METRICS):
        self.root = os.fspath(root)
        self.limit_bytes = limit_bytes
        self.metrics = metrics
        os.makedirs(self.root, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key + ENTRY_SUFFIX)

    # -- load --------------------------------------------------------------

    def load(self, key: str):
        """Return the verified warm payload for ``key``, or None.

        Counts a ``persistent_hit`` or ``persistent_miss``; a corrupt
        entry (bad magic, bad digest, undecodable payload) is evicted
        on the spot and reported as a miss — damaged bytes are never
        returned.  A hit refreshes the entry's access time, which is
        what the LRU eviction orders by.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            self.metrics.inc("pin.cache.persistent_misses")
            return None
        payload = self._verify(data)
        if payload is None:
            self._evict_corrupt(path)
            self.metrics.inc("pin.cache.persistent_misses")
            return None
        try:
            sections = pickle.loads(payload)
            warm = TemplatePayload(blob=sections["templates"], count=0)
            templates = warm.templates
            if not all(type(t) is TraceTemplate for t in templates):
                raise TypeError("not a template payload")
        except Exception:
            self._evict_corrupt(path)
            self.metrics.inc("pin.cache.persistent_misses")
            return None
        chains = sections.get("chains", ())
        if not _valid_chains(chains):
            # A bad TC2 section must not poison the tier-1 warm start:
            # drop the chains, keep the templates.  (Template lookups
            # re-check code words and shapes; chains have no such
            # second line of defence, so they are validated
            # structurally here.)
            self.metrics.inc("pin.cache.persistent_chain_drops")
            chains = ()
        try:
            os.utime(path)
        except OSError:
            pass  # evicted or unlinked concurrently; the payload stands
        self.metrics.inc("pin.cache.persistent_hits")
        return TemplatePayload(chains=chains, blob=warm.blob,
                               count=len(templates))

    @staticmethod
    def _verify(data: bytes) -> bytes | None:
        header_len = len(STORE_MAGIC) + _DIGEST_LEN
        if len(data) < header_len or not data.startswith(STORE_MAGIC):
            return None
        digest = data[len(STORE_MAGIC):header_len]
        payload = data[header_len:]
        if hashlib.sha256(payload).digest() != digest:
            return None
        return payload

    def _evict_corrupt(self, path: str) -> None:
        self.metrics.inc("pin.cache.persistent_corrupt")
        try:
            os.unlink(path)
            self.metrics.inc("pin.cache.persistent_evictions")
        except OSError:
            pass

    # -- save --------------------------------------------------------------

    def save(self, key: str, warm) -> None:
        """Persist one frozen :class:`TemplatePayload`; enforce the size
        budget.

        Empty payloads are not stored (a degraded pilot exports
        nothing; an empty entry would turn every future run into a
        useless "hit" that warms nothing).
        """
        if not len(warm) and not warm.chains:
            return
        payload = pickle.dumps({"templates": warm.blob,
                                "chains": warm.chains},
                               pickle.HIGHEST_PROTOCOL)
        blob = (STORE_MAGIC + hashlib.sha256(payload).digest() + payload)
        path = self._path(key)
        atomic_write(path, blob)
        fsync_directory(path)
        self.metrics.inc("pin.cache.persistent_saves")
        self._enforce_limit(keep=os.path.basename(path))

    def _enforce_limit(self, keep: str | None = None) -> None:
        """LRU-evict entry files until the store fits its budget.

        The just-written entry (``keep``) is never the first casualty:
        a store smaller than one payload should hold that payload, not
        thrash.  Races are benign — a concurrently-unlinked file is
        skipped, and readers that already opened a victim still see its
        complete content.
        """
        entries = []
        try:
            names = os.listdir(self.root)
        except OSError:
            return
        for name in names:
            if not name.endswith(ENTRY_SUFFIX):
                continue
            path = os.path.join(self.root, name)
            try:
                stat = os.stat(path)
            except OSError:
                continue
            entries.append((stat.st_atime, stat.st_mtime, name, path,
                            stat.st_size))
        total = sum(entry[4] for entry in entries)
        if total <= self.limit_bytes:
            return
        for _atime, _mtime, name, path, size in sorted(entries):
            if name == keep:
                continue
            try:
                os.unlink(path)
            except OSError:
                continue
            self.metrics.inc("pin.cache.persistent_evictions")
            total -= size
            if total <= self.limit_bytes:
                return

    # -- introspection -----------------------------------------------------

    def keys(self) -> list[str]:
        """Keys currently present (unverified; loads still verify)."""
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        return sorted(name[:-len(ENTRY_SUFFIX)] for name in names
                      if name.endswith(ENTRY_SUFFIX))

    def size_bytes(self) -> int:
        total = 0
        for key in self.keys():
            try:
                total += os.stat(self._path(key)).st_size
            except OSError:
                continue
        return total

    def __len__(self) -> int:
        return len(self.keys())


def trace_store_for(config, metrics=NULL_METRICS) -> TraceStore | None:
    """The run's :class:`TraceStore`, or None when not configured.

    The store only participates when the warm cache itself is on: the
    payload *is* the warm payload, and with ``-spwarmcache 0`` there is
    nothing to install it into.
    """
    if config.sptracestore is None or not config.spwarmcache:
        return None
    return TraceStore(config.sptracestore,
                      limit_bytes=config.sptracestore_limit,
                      metrics=metrics)


def damage_store_entry(root, key: str) -> None:
    """Flip one payload bit of a store entry (test/injection hook).

    Mirrors :func:`~repro.superpin.recording.damage_recording`: the
    entry keeps its magic and length but fails its digest, which a load
    must detect and evict.
    """
    store = TraceStore(root)
    path = store._path(key)
    with open(path, "rb") as handle:
        data = handle.read()
    flip = len(STORE_MAGIC) + _DIGEST_LEN  # first payload byte
    damaged = data[:flip] + bytes([data[flip] ^ 0x01]) + data[flip + 1:]
    atomic_write(path, damaged)


def damage_store_chains(root, key: str) -> None:
    """Corrupt only the TC2 chain section of an entry (test hook).

    Rewrites the entry with a structurally invalid ``chains`` section
    and a *recomputed* (valid) digest: the file verifies, the traces
    decode, and only the chain validation can catch the rot — the load
    must drop the chains while still warming tier 1.
    """
    store = TraceStore(root)
    path = store._path(key)
    with open(path, "rb") as handle:
        data = handle.read()
    payload = TraceStore._verify(data)
    sections = pickle.loads(payload)
    sections["chains"] = ("not-a-chain",)
    damaged = pickle.dumps(sections, pickle.HIGHEST_PROTOCOL)
    atomic_write(path, STORE_MAGIC + hashlib.sha256(damaged).digest()
                 + damaged)
