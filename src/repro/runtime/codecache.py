"""Process-wide cache of compiled code objects, keyed by source text.

Both code generators (:mod:`repro.runtime.compiler` for whole functions,
:mod:`repro.runtime.fastpath` for superblock runners) emit source whose
constants are *names* bound in a per-closure namespace, never literals.
Two lowerings with equal text therefore differ only in what those names
are bound to, so one code object serves both: each caller ``exec``\\ s it
in its own fresh namespace.  A Juliet sweep lowers ~650 functions from
~350 distinct texts; the cache turns the repeats into dictionary hits.

The cache is LRU-bounded by :data:`CODE_CACHE_LIMIT` entries.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from types import CodeType
from typing import Dict, Tuple

#: Most code objects kept resident (an eagerly compiled Juliet pass
#: needs ~680).
CODE_CACHE_LIMIT = 1024

_CODE: "OrderedDict[Tuple[str, str], CodeType]" = OrderedDict()
_HITS = 0
_MISSES = 0
#: Server jobs run sessions on several threads; the LRU reordering and
#: the counters must not interleave.
_LOCK = threading.Lock()


def compile_cached(source: str, filename: str) -> CodeType:
    """``compile(source, filename, "exec")``, memoized."""
    global _HITS, _MISSES
    key = (source, filename)
    with _LOCK:
        code = _CODE.get(key)
        if code is not None:
            _HITS += 1
            _CODE.move_to_end(key)
            return code
        _MISSES += 1
    code = compile(source, filename, "exec")
    with _LOCK:
        _CODE[key] = code
        while len(_CODE) > CODE_CACHE_LIMIT:
            _CODE.popitem(last=False)
    return code


def code_cache_stats() -> Dict[str, int]:
    """Cache traffic for this process: ``{hits, misses, entries}``."""
    with _LOCK:
        return {"hits": _HITS, "misses": _MISSES, "entries": len(_CODE)}
