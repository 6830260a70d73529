"""In-memory spans and call counters wrapped around the library's functions.

The tracer replaces attributes of the already-imported ``banakh`` modules
with thin wrappers, records spans (name, start, end, parent) or bare call
counts, and puts every original object back on ``restore``.  Nothing under
``src/`` knows about it.

A module-level function is usually imported by name into other modules
(``space_builder`` calls its own ``extend_to_full`` binding), so a function
is patched in every module namespace that holds the same object.  A method
is patched once, on the class that defines it.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

__all__ = ["Tracer"]


class Tracer:
    """Spans and counters for one traced run; use as a context manager."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self.counts = Counter()
        self._stack = []
        self._patches = []       # (namespace owner, attribute, original)
        self._root_counts = {}   # root span name -> Counter of counts inside it

    # -- recording -----------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def _span_wrapper(self, name, fn, on_return):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        calls = name + "_calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            if parent < 0:
                before = Counter(counts)
            stack.append(idx)
            counts[calls] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
                if parent < 0:
                    delta = Counter(counts)
                    delta.subtract(before)
                    self._root_counts.setdefault(name, Counter()).update(
                        +delta)
            if on_return is not None:
                on_return(self, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap_method(self, cls, attr, name, *, span=True, on_return=None):
        """Wrap ``cls.attr`` (defined on cls itself)."""
        fn = cls.__dict__[attr]
        new = (self._span_wrapper(name, fn, on_return) if span
               else self._count_wrapper(name, fn))
        self._set(cls, attr, new)

    def wrap_function(self, modules, home, attr, name, *, span=True,
                      on_return=None):
        """Wrap function ``home.attr`` in every module that binds it."""
        fn = home.__dict__[attr]
        new = (self._span_wrapper(name, fn, on_return) if span
               else self._count_wrapper(name, fn))
        for module in modules:
            if module.__dict__.get(attr) is fn:
                self._set(module, attr, new)

    def restore(self) -> None:
        """Put back every original attribute, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- reports -------------------------------------------------------------

    def inclusive_time(self) -> Counter:
        """Total span duration per name (nested calls of one name counted
        once, at the outermost)."""
        out = Counter()
        for idx, (name, start, end, parent) in enumerate(self.spans):
            if not self._inside(parent, name):
                out[name] += end - start
        return out

    def self_time(self) -> Counter:
        """Per name: span duration minus the part covered by child spans."""
        out = Counter()
        for name, start, end, _ in self.spans:
            out[name] += end - start
        for _, start, end, parent in self.spans:
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return out

    def root_counts(self) -> dict:
        """Counts made inside each outermost span, keyed by its name."""
        return {name: dict(c) for name, c in self._root_counts.items()}

    def _inside(self, parent, name) -> bool:
        while parent >= 0:
            pname, _, _, parent = self.spans[parent]
            if pname == name:
                return True
        return False
