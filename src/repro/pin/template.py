"""Trace templates: compile once per run, bind once per engine.

Tier-1 compilation is split in two halves:

* **lower** (``Jit.lower`` / ``SourceJit.lower``) decodes the trace from
  guest memory, runs the instrumentation callbacks and the suppression
  planner, and records everything the executable trace needs as a
  :class:`TraceTemplate` — code words, per-instruction semantics
  factories and operands (or, for the source backend, a compiled code
  object), the analysis calls as (function, argument recipe) pairs, and
  the :class:`~repro.pin.filter.InstrumentationStats` deltas the
  lowering produced.  Nothing in a template refers to an engine.
* **bind** (``Jit.bind`` / ``SourceJit.compile_warm``) calls the
  factories over one engine's registers, memory and CPU, and rebinds
  each analysis routine to that engine's own tool copy.

``Jit.compile`` is lookup-or-lower, then bind: a cold compile binds too,
so there is one path.  Templates live in a :class:`TemplateCache` — one
per ``run_superpin`` call, read and extended by every sequential slice,
seeded from the pilot's exports in worker slices — and are
content-addressed: a lookup re-checks the template's code words against
the engine's memory and its span against the engine's forced
boundaries, so reuse can never change what executes.

When a template may be shared
-----------------------------

Only when every analysis routine and loop summary it records is a bound
method of the instrumenting tool (``PinVM.tool``) and every
``IARG_PTR`` value is an immutable scalar or a tuple of them.  Those are
exactly the templates that mean the same thing in another slice once
the methods are rebound to that slice's tool copy.  Anything else — the
signature detector's if/then calls, per-trace closures such as
``OpcodeMix.bump_factory`` — keeps the template *private*: it is bound
once for the engine that lowered it and never enters the cache, so that
trace lowers per slice as it always did.

Reuse relies on the tool contract documented on
:class:`~repro.pin.pintool.Pintool`: ``instrument_trace`` is a
deterministic function of the trace and the tool's configuration.
"""

from __future__ import annotations

import marshal

from .args import IArg, is_immutable_value


class ToolMethod:
    """An analysis routine recorded as "this method of the tool".

    Holds the plain function; :func:`bind_fn` rebinds it to the binding
    engine's tool (``func.__get__(tool)``).  Pickles by reference to the
    function, so templates travel to worker processes and the trace
    store.
    """

    __slots__ = ("func",)

    def __init__(self, func):
        self.func = func

    def __reduce__(self):
        return (ToolMethod, (self.func,))


def bind_fn(entry, tool):
    """The callable a template entry stands for on one engine."""
    if type(entry) is ToolMethod:
        return entry.func.__get__(tool)
    return entry


class Recorder:
    """Collects a lowering's analysis routines and decides sharing."""

    __slots__ = ("tool", "shareable")

    def __init__(self, tool):
        self.tool = tool
        self.shareable = True

    def fn(self, fn):
        """Template entry for an analysis routine or loop summary."""
        tool = self.tool
        if tool is not None and getattr(fn, "__self__", None) is tool:
            func = getattr(fn, "__func__", None)
            if func is not None:
                return ToolMethod(func)
        self.shareable = False
        return fn

    def specs(self, specs) -> None:
        """Note the IARG specifiers of one call (``IARG_PTR`` payloads)."""
        for kind, value in specs:
            if kind is IArg.PTR and not is_immutable_value(value):
                self.shareable = False

    def value(self, value) -> None:
        """Note a literal woven into the trace (summary arguments)."""
        if not is_immutable_value(value):
            self.shareable = False


class TraceTemplate:
    """One lowered trace, independent of any engine.

    ``body`` is the backend's lowered form: for the closure backend a
    tuple of per-instruction entries (or a summarized-loop plan), for
    the source backend the compiled code object plus its namespace
    recipe.  ``stats`` holds the ``InstrumentationStats`` deltas
    (``skipped_callbacks``, ``fastpath_traces``, ``summarized_loops``)
    the lowering produced; every bind re-applies them, so the counters
    read exactly as if the trace had been lowered again.
    """

    __slots__ = ("start", "words", "forced_cut", "fall_address",
                 "bbl_sizes", "addresses", "num_ins", "stats", "body",
                 "shareable", "shape")

    def __init__(self, start: int, words: tuple, forced_cut: int | None,
                 fall_address: int | None, bbl_sizes: list[int],
                 stats: tuple[int, int, int], body, shareable: bool):
        self.start = start
        #: Raw code words the trace was decoded from.
        self.words = words
        #: The forced boundary that ended the trace, or None.
        self.forced_cut = forced_cut
        self.fall_address = fall_address
        self.bbl_sizes = bbl_sizes
        self.num_ins = len(words)
        self.addresses = list(range(start, start + self.num_ins))
        self.stats = stats
        self.body = body
        self.shareable = shareable
        #: The instrumentation shape the template was lowered under
        #: (``PinVM.template_shape``); set when the template is cached.
        self.shape = None

    def matches(self, mem, forced: frozenset) -> bool:
        """True when lowering at ``start`` on this engine would produce
        this template: same code words, and the engine's forced
        boundaries neither fall inside the span nor move its cut."""
        start = self.start
        if forced:
            end = start + self.num_ins
            for pc in forced:
                if start <= pc < end:
                    return False
            if self.forced_cut is not None and self.forced_cut not in forced:
                return False
        elif self.forced_cut is not None:
            return False
        return mem.holds_words(start, self.words)

    def __getstate__(self):
        # ``addresses`` is derived; leave it out of the pickle.
        return tuple(getattr(self, name) for name in self._PICKLED)

    def __setstate__(self, state):
        for name, value in zip(self._PICKLED, state):
            setattr(self, name, value)
        self.addresses = list(range(self.start, self.start + self.num_ins))


TraceTemplate._PICKLED = tuple(name for name in TraceTemplate.__slots__
                               if name != "addresses")


class SourceBody:
    """The source backend's lowered form: code object + namespace recipe.

    ``recipe`` lists ``(name, kind, data)`` namespace entries: ``"fn"``
    (an analysis routine entry, rebound per engine), ``"res"`` (an
    argument recipe, bound to the engine's CPU) and ``"val"`` (a literal).
    Code objects do not pickle, so the pickled form marshals the code.
    """

    __slots__ = ("code", "recipe", "source", "suppressed")

    def __init__(self, code, recipe: tuple, source: str, suppressed: bool):
        self.code = code
        self.recipe = recipe
        self.source = source
        self.suppressed = suppressed

    def __reduce__(self):
        return (_load_source_body, (marshal.dumps(self.code), self.recipe,
                                    self.source, self.suppressed))


def _load_source_body(code: bytes, recipe: tuple, source: str,
                      suppressed: bool) -> SourceBody:
    return SourceBody(marshal.loads(code), recipe, source, suppressed)


class TemplateCache:
    """Shareable templates keyed by (instrumentation shape, start pc).

    Several templates may share a key — the same head lowered under
    different forced boundaries — so each key holds a short list,
    checked in insertion order.
    """

    def __init__(self, templates=()):
        self._by_key: dict[tuple, list[TraceTemplate]] = {}
        #: Canonical shape objects, so templates from different engines
        #: share one shape tuple (and pickle it once).
        self._shapes: dict[tuple, tuple] = {}
        for template in templates:
            self._insert(template.shape, template)
        #: Templates added since construction (not the seed), in order.
        self.added: list[TraceTemplate] = []

    def lookup(self, shape, start: int, mem,
               forced: frozenset) -> TraceTemplate | None:
        candidates = self._by_key.get((shape, start))
        if candidates:
            for template in candidates:
                if template.matches(mem, forced):
                    return template
        return None

    def add(self, shape, template: TraceTemplate) -> None:
        self._insert(shape, template)
        self.added.append(template)

    def _insert(self, shape, template: TraceTemplate) -> None:
        shape = self._shapes.setdefault(shape, shape)
        template.shape = shape
        self._by_key.setdefault((shape, template.start), []).append(template)

    def add_unique(self, template: TraceTemplate) -> None:
        """Add ``template`` unless an identical lowering is cached."""
        for other in self._by_key.get((template.shape, template.start), ()):
            if (other.words == template.words
                    and other.forced_cut == template.forced_cut):
                return
        self.add(template.shape, template)

    def templates(self, added_only: bool = False) -> list[TraceTemplate]:
        """Every cached template (or only those added since the seed),
        in a deterministic order."""
        out = (list(self.added) if added_only else
               [t for group in self._by_key.values() for t in group])
        out.sort(key=lambda t: (t.start, t.num_ins, t.words,
                                t.forced_cut is not None, t.forced_cut or 0))
        return out
