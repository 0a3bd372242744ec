"""Helper processes of perfbench/run.py; run with PYTHONPATH=src.

    child.py check-config CONFIG             parse a run config
    child.py load-store TEACHER STORE        validated store load, as consumers do
    child.py check-store CONFIG TEACHER STORE
                                             the store file equals the store synth
                                             generates for CONFIG, and is finite
    child.py meta                            numpy and BLAS versions as JSON
    child.py trace SPANS KIND ARGS...        run KIND (`cli` or `load-store`) with
                                             the public functions of each module
                                             wrapped; write call counts, self
                                             time and bytes written to SPANS
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time


def check_config(path):
    from flowdistill.config import load_config

    load_config(path)
    return 0


def load_store(teacher_path, store_path):
    import flowdistill.nn as nn
    import flowdistill.trajstore as trajstore

    # attributes are read at call time, so a traced run calls the wrappers
    trajstore.load_store(store_path, nn.load_model(teacher_path))
    return 0


def check_store(config_path, teacher_path, store_path):
    import numpy as np

    from flowdistill.config import load_config
    from flowdistill.flow import TimeGrid
    from flowdistill.nn import load_model
    from flowdistill.seeds import derive_seed
    from flowdistill.trajstore import generate_store
    from flowdistill.trajstore import load_store as read_store

    cfg = load_config(config_path)
    teacher = load_model(teacher_path)
    # the store `synth` builds for this config, rebuilt in memory
    written = generate_store(teacher, cfg.store["N"], TimeGrid.uniform(cfg.store["n"]),
                             derive_seed(cfg.seed, "store"))
    loaded = read_store(store_path)
    if not loaded.equal(written):
        print("reloaded store differs from the store that was written", file=sys.stderr)
        return 1
    if not np.all(np.isfinite(loaded.states_array())):
        print("store holds non-finite states", file=sys.stderr)
        return 1
    return 0


def meta():
    import numpy as np

    info = {"numpy": np.__version__, "blas": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    print(json.dumps(info))
    return 0


class Tracer:
    """Per-function call counts, self time and bytes written.

    A span's self time is its duration less the time of the wrapped
    calls made inside it, so the self times of all spans add up to the
    time covered by the outermost ones.
    """

    def __init__(self):
        self.stats = {}
        self._open = []  # time spent in child spans, one entry per open span

    def wrap(self, name, fn, bytes_arg=None):
        stats = self.stats.setdefault(name, {"calls": 0, "self_ms": 0.0, "bytes": 0})
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                in_children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration
                stats["calls"] += 1
                stats["self_ms"] += (duration - in_children) * 1e3
                if bytes_arg is not None and os.path.isfile(args[bytes_arg]):
                    stats["bytes"] += os.path.getsize(args[bytes_arg])

        return traced

    def install(self, traced_names, attr_paths, bytes_args):
        """Wrap each named function where it is defined and in every
        flowdistill module that copied its binding with `from . import`.
        Returns the names the package no longer defines."""
        import flowdistill
        import flowdistill.cli  # noqa: F401  (not imported by the package)

        modules = [m for n, m in list(sys.modules.items())
                   if n == flowdistill.__name__ or n.startswith("flowdistill.")]
        absent = []
        for name in traced_names:
            module_name, func = name.split(".", 1)
            owner = sys.modules.get(f"flowdistill.{module_name}")
            *parents, attr = attr_paths.get(name, func).split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                absent.append(name)
                continue
            wrapper = self.wrap(name, original, bytes_args.get(name))
            setattr(owner, attr, wrapper)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, binding, wrapper)
        return absent


def trace(spans_path, kind, *args):
    from run import BYTES_ARG, TRACED, TRACED_ATTR

    tracer = Tracer()
    absent = tracer.install(TRACED, TRACED_ATTR, BYTES_ARG)
    try:
        if kind == "cli":
            return sys.modules["flowdistill.cli"].main(list(args))
        return COMMANDS[kind](*args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump({"stats": tracer.stats, "absent": absent}, f, indent=1)


COMMANDS = {
    "check-config": check_config,
    "load-store": load_store,
    "check-store": check_store,
    "meta": meta,
    "trace": trace,
}


def main(argv):
    if not argv or argv[0] not in COMMANDS:
        print(__doc__, file=sys.stderr)
        return 2
    return COMMANDS[argv[0]](*argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
