"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer: its name, start, end, the span that was
open when it began (its parent) and the operation id (instance or delta
group) it belongs to.  Spans are appended to typed columns (a traced serve
replay records about 1.5 million of them) while the run is in progress and
written out once, at the end.  A layer's self time is a span's duration
minus the time its child spans cover.

Layer entry points are wrapped from outside, by replacing the attribute on
its class or module for the duration of the traced phase; nothing in the
package under test is edited.  Wrapped calls made in a forked pool worker
run unrecorded, because the worker's spans would never reach the parent.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from typing import Callable, Dict, List, Optional

import numpy as np

SETUP_OP = -1


class Tracer:
    """Spans of one traced phase, plus the patches that record them."""

    def __init__(self) -> None:
        self.kinds: List[str] = []  # span name of each kind code
        self._code: Dict[str, int] = {}
        self.kind = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.ops = array("i")
        self.op = SETUP_OP
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        self._pid = os.getpid()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.kind)

    def begin(self, name: str) -> int:
        index = len(self.kind)
        code = self._code.get(name)
        if code is None:
            code = self._code[name] = len(self.kinds)
            self.kinds.append(name)
        self.kind.append(code)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    # ------------------------------------------------------------------
    # patching layer entry points
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        on_return: Optional[Callable] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        ``on_return(result)`` sees each call's return value, so counters
        the layer returns can be collected where the span ends.
        """
        original = getattr(owner, attr)
        tracer = self
        pid = self._pid

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if os.getpid() != pid:
                return original(*args, **kwargs)
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if on_return is not None:
                on_return(result)
            return result

        self._patches.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # analysis and output
    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name."""
        if not len(self):
            return {}
        duration = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        covered = np.zeros(len(duration))
        nested = parents >= 0
        np.add.at(covered, parents[nested], duration[nested])
        own = np.bincount(
            np.asarray(self.kind), weights=duration - covered, minlength=len(self.kinds)
        )
        return dict(zip(self.kinds, own.tolist(), strict=True))

    def write(self, path: str) -> None:
        """Write every span once, as NumPy columns (``np.load`` reads
        them): ``kinds`` names each ``kind`` code, times are seconds from
        the first span, ``parent`` is a row index or -1."""
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        starts = np.asarray(self.starts)
        origin = starts[0] if len(starts) else 0.0
        np.savez(
            path,
            kinds=np.asarray(self.kinds),
            kind=np.asarray(self.kind),
            start_s=starts - origin,
            end_s=np.asarray(self.ends) - origin,
            parent=np.asarray(self.parents),
            op=np.asarray(self.ops),
        )
