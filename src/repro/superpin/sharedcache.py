"""Shared code cache across timeslices (paper §8, future work).

    "The best approach for dramatically reducing the compilation
    overhead may be to share the code cache across all timeslices via
    shared memory.  This may add a little extra overhead by performing
    extra consistency checks from other slices, but we feel that the
    reduction in overhead will outweigh the costs."

The reproduction models exactly that trade: a
:class:`SharedCodeCacheDirectory` records which traces have already been
compiled by *some* slice.  The first slice to need a trace pays the full
JIT cost; every later slice pays only a per-trace consistency check.
Entries are keyed by ``(address, length)`` so the per-slice
detection-boundary splits (which change a trace's shape near the
signature pc) never alias with the shared body of the application.

Enabled with ``-spsharedcache 1``; the ablation benchmark quantifies the
win on the gcc workload, whose per-slice recompilation is the paper's
compilation-slowdown poster child.

Warm code cache (``-spwarmcache``, on by default)
-------------------------------------------------

Where ``-spsharedcache`` *models* the §8 shared cache in the virtual
timing figures, the warm cache implements its host-level counterpart
for real wall-clock time: compile once per run.  Lowered traces are
VM-independent :class:`~repro.pin.template.TraceTemplate` objects kept
in one :class:`~repro.pin.template.TemplateCache`; a slice that needs a
trace some earlier slice lowered only *binds* the template to its own
engine and tool copy.  Sequential slices (``-spworkers 0``) read and
extend one live cache for the whole run.  Worker slices cannot share
live objects, so slice 0 runs first (the *pilot*): its shareable
templates are pickled into a :class:`TemplatePayload` — with its
promoted TC2 chains — frozen, and shipped with every later slice, so
results are identical for any worker count and completion order.  The
persistent trace store (``-sptracestore``) keeps every shareable
template a run lowered, plus the pilot's chains.

Templates are content-addressed (code words and forced boundaries are
re-checked on every lookup) and installs still go through the ordinary
``CodeCache.insert``, so ``compiles``, ``compile_log``, bubble
accounting and every virtual-timing input are byte-identical to a cold
run — warm execution is architecturally invisible, exactly like trace
linking.
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass

from ..pin.template import TemplateCache


@dataclass
class SharedCacheStats:
    first_compiles: int = 0
    first_compiled_ins: int = 0
    reuses: int = 0
    reused_ins: int = 0


class SharedCodeCacheDirectory:
    """Tracks globally-compiled traces for one SuperPin run."""

    def __init__(self):
        self._compiled: set[tuple[int, int]] = set()
        self.stats = SharedCacheStats()

    def charge(self, address: int, num_ins: int) -> bool:
        """Return True if the calling slice pays the compile cost.

        The first request for a given trace claims it; subsequent
        requests are reuses that pay only the consistency check.
        """
        key = (address, num_ins)
        if key in self._compiled:
            self.stats.reuses += 1
            self.stats.reused_ins += num_ins
            return False
        self._compiled.add(key)
        self.stats.first_compiles += 1
        self.stats.first_compiled_ins += num_ins
        return True

    def __len__(self) -> int:
        return len(self._compiled)


def charge_result(result, directory: SharedCodeCacheDirectory) -> None:
    """Re-attribute one slice's compile costs through ``directory``.

    Replays the slice's compile log: the first slice (in charging order)
    to have compiled each trace keeps the cost; every other compilation
    becomes a shared-cache reuse.  Mutates ``result`` in place.
    """
    compiles = compiled_ins = reuses = 0
    for address, num_ins in result.compile_log:
        if directory.charge(address, num_ins):
            compiles += 1
            compiled_ins += num_ins
        else:
            reuses += 1
    result.compiles = compiles
    result.compiled_ins = compiled_ins
    result.shared_cache_reuses = reuses


class TemplatePayload:
    """The frozen warm payload: pickled shareable templates + TC2 chains.

    The templates travel as one compressed pickle blob, so the payload
    costs a byte copy each time it is pickled into a slice payload, and
    decodes once per consumer (:attr:`templates`).  ``chains`` are the
    pilot's promoted superblock chains as tuples of segment start
    addresses; slices install them as a TC2 promotion profile so warm
    runs start *hot*, not merely warm (see
    ``TranslationCache2.install_profile``).
    """

    __slots__ = ("blob", "count", "chains", "_templates")

    def __init__(self, templates=(), chains=(), blob: bytes | None = None,
                 count: int | None = None):
        self._templates = None
        if blob is None:
            self._templates = tuple(templates)
            blob = zlib.compress(pickle.dumps(self._templates,
                                              pickle.HIGHEST_PROTOCOL), 1)
            count = len(self._templates)
        self.blob = blob
        self.chains = tuple(tuple(chain) for chain in chains)
        self.count = count if count is not None else len(self.templates)

    @property
    def templates(self) -> tuple:
        if self._templates is None:
            self._templates = tuple(pickle.loads(zlib.decompress(self.blob)))
        return self._templates

    def __len__(self) -> int:
        return self.count

    def __reduce__(self):
        return (TemplatePayload, ((), self.chains, self.blob, self.count))


def export_templates(templates) -> TemplatePayload:
    """Pickle the shareable templates a slice lowered (not the ones it
    was seeded with) for the control process.

    Templates whose routines cannot be pickled by reference (tools
    defined inside a function, say) are left out: they still share
    within a process, they just cannot travel.
    """
    entries = templates.templates(added_only=True) \
        if templates is not None else []
    try:
        return TemplatePayload(entries)
    except Exception:
        portable = []
        for entry in entries:
            try:
                pickle.dumps(entry, pickle.HIGHEST_PROTOCOL)
            except Exception:
                continue
            portable.append(entry)
        return TemplatePayload(portable)


class TemplateStore:
    """Control-process side of the warm payload.

    Freezes the pilot's exports once (:meth:`fold_pilot`) — every later
    slice, including supervisor retries, receives the *same* templates,
    keeping results independent of worker count and completion order —
    and collects the templates later slices lowered (:meth:`collect`)
    for the persistent trace store, whose entry is the union
    (:meth:`persisted`).
    """

    def __init__(self):
        self._frozen: TemplatePayload | None = None
        self._collected: list = []

    def fold_pilot(self, result) -> TemplatePayload:
        """Freeze the pilot's exports and chains (first call wins).

        Strips the exports off the result afterwards so reports don't
        drag pickled templates around.
        """
        if self._frozen is None:
            exports = result.warm_exports or TemplatePayload()
            self._frozen = TemplatePayload(
                chains=getattr(result, "sb_chains", ()),
                blob=exports.blob, count=exports.count)
        result.warm_exports = None
        result.sb_chains = ()
        return self._frozen

    def freeze(self) -> TemplatePayload:
        """The frozen in-run payload (empty before any pilot folded)."""
        if self._frozen is None:
            self._frozen = TemplatePayload()
        return self._frozen

    def collect(self, templates) -> None:
        """Keep templates for the persistent entry."""
        self._collected.extend(templates)

    def collect_results(self, results) -> None:
        """Collect (and strip) every result's exports, in slice order."""
        for result in sorted(results, key=lambda r: r.index):
            if result.warm_exports is not None:
                self.collect(result.warm_exports.templates)
                result.warm_exports = None

    def persisted(self) -> TemplatePayload:
        """What the persistent store keeps: the pilot's templates and
        chains plus every collected template (first copy wins)."""
        union = TemplateCache()
        for template in (*self.freeze().templates, *self._collected):
            union.add_unique(template)
        return TemplatePayload(union.templates(), self.freeze().chains)


def charge_slices_in_order(results,
                           directory: SharedCodeCacheDirectory | None = None
                           ) -> SharedCodeCacheDirectory:
    """Deterministic slice-ordered post-pass for compile attribution.

    Slices execute (possibly concurrently, in any completion order) with
    cold private caches; this pass then walks the results in *slice
    index order* and charges each trace's compile cost to the
    lowest-indexed slice that compiled it.  Because attribution happens
    after the fact, the figures are identical whether slices ran
    sequentially, or fanned out over ``-spworkers`` processes finishing
    in any order.
    """
    if directory is None:
        directory = SharedCodeCacheDirectory()
    for result in sorted(results, key=lambda r: r.index):
        charge_result(result, directory)
    return directory
