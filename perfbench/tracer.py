"""Run the apmeasure CLI with spans recorded around calls into its layers.

Usage: python3 perfbench/tracer.py TRACE_JSON <apmeasure arguments...>

The program itself is not edited: each public function listed in SPANS is
replaced, in every apmeasure module that refers to it, by a wrapper that
records a span (name, start, end, parent span, counters).  Spans of
top-level calls also record the process's peak RSS so far.  Spans are kept
in memory and written to TRACE_JSON when the command ends.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time

# (module, function) pairs wrapped in spans; "DiscreteMeasure.min_gap" is a method.
SPANS = [
    ("construction", "build_stage"),
    ("construction", "limit_window"),
    ("construction", "verify_cell_mass"),
    ("construction", "verify_stage_support"),
    ("construction", "verify_stage_stability"),
    ("construction", "verify_mass_decay"),
    ("construction", "verify_tail_estimate"),
    ("measures", "sliding_count_sup"),
    ("measures", "DiscreteMeasure.min_gap"),
    ("piecewise", "convolve"),
    ("piecewise", "sup_abs_diff"),
    ("piecewise", "sup_abs"),
    ("matching", "match_close"),
    ("matching", "lump_decompose"),
    ("matching", "far_field_check"),
    ("matching", "sparsity_bound"),
    ("serialize", "load_measure"),
    ("serialize", "save_stage"),
]


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Recorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.stages_seen: set[int] = set()

    def _counters(self, name: str, args, result) -> dict[str, int]:
        if name == "construction.build_stage":
            # atoms of each stage returned, counted once per process
            fresh = result.stage not in self.stages_seen
            self.stages_seen.add(result.stage)
            return {"atoms": len(result.measure) if fresh else 0}
        if name == "construction.limit_window":
            return {"calls": 1, "atoms_out": len(result)}
        if name == "piecewise.convolve":
            return {"breakpoints": len(result.breakpoints)}
        if name == "matching.match_close":
            return {"atoms_in": len(args[0]) + len(args[1])}
        if name == "serialize.load_measure":
            return {"bytes": os.path.getsize(args[0])}
        if name == "serialize.save_stage":
            return {"bytes": os.path.getsize(args[1]) + os.path.getsize(result)}
        return {}

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span = {"name": name, "parent": parent}
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            if parent is None:
                span["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            span["counters"] = self._counters(name, args, result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every function in SPANS wherever an apmeasure module refers to it.

        A function the program no longer has is skipped; its metrics read 0.
        """
        import apmeasure.cli  # noqa: F401  (loads every layer module)

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "apmeasure"]
        for module_name, attr in SPANS:
            owner = sys.modules[f"apmeasure.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if hasattr(cls, method):
                    setattr(cls, method, self.wrap(span_name(module_name, attr),
                                                   getattr(cls, method)))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapped = self.wrap(span_name(module_name, attr), original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def write(self, path: str, argv: list[str]) -> None:
        with open(path, "w") as fh:
            json.dump({"argv": argv, "spans": self.spans}, fh)


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    from apmeasure import cli

    recorder = Recorder()
    recorder.install()
    try:
        return cli.main(cli_args)
    finally:
        recorder.write(trace_path, cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
