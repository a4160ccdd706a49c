"""Every module-level cache of the library is released when a CLI call ends.

A `gausslab` module may hold a dict or a `functools` cache wrapper at module
or class level only if `cli._release_caches` empties it, or if it is listed
below with the reason it may outlive a call.  A cache added later then
cannot quietly pin what one call built into every later call.
"""

import importlib
import inspect
import pkgutil

import gausslab
from gausslab import cli

# name -> why it may outlive a call
ALLOWED = {
    "cyclo._cyclotomic_radical": "a pure function of a squarefree conductor <= 8192: "
                                 "one short tuple of integers per conductor",
    "cli.build_parser": "one argparse parser per process, holding no result",
}


def _module_caches():
    """(qualified name, object) for each dict or functools cache wrapper held
    by a `gausslab` module or by a class it defines."""
    for info in pkgutil.iter_modules(gausslab.__path__):
        module = importlib.import_module(f"gausslab.{info.name}")
        owners = [(info.name, vars(module))]
        owners += [(f"{info.name}.{name}", vars(obj)) for name, obj in vars(module).items()
                   if inspect.isclass(obj) and obj.__module__ == module.__name__]
        for prefix, namespace in owners:
            for name, obj in namespace.items():
                obj = getattr(obj, "__func__", obj)  # staticmethod, classmethod
                if not name.startswith("__") and (isinstance(obj, dict) or hasattr(obj, "cache_info")):
                    yield f"{prefix}.{name}", obj


def test_every_module_cache_is_released_or_allowed():
    caches = dict(_module_caches())
    assert {"cyclo._RING_CACHE", "gauss._TABLE_CACHE", "padic._EMBED_CACHE",
            "digits._PRIME_FREE_TABLES"} <= set(caches)
    pinned = []
    for name, cache in caches.items():
        if name in ALLOWED:
            continue
        if not isinstance(cache, dict):
            pinned.append(name)
            continue
        sentinel = object()
        cache[sentinel] = None
        cli._release_caches()
        if sentinel in cache:
            del cache[sentinel]
            pinned.append(name)
    assert pinned == [], "module caches that outlive a CLI call: release them in cli._release_caches"
    assert set(ALLOWED) <= set(caches), "allowlist names a cache that is gone"
