"""Run one sloclab CLI command in this fresh process and record its timeline.

    python3 perfbench/child.py SIDECAR MODE -- CLI-ARGS...

MODE is ``run`` (no tracing), ``trace`` (spans around the layers listed in
spans.py) or ``setup`` (stop once the config is built).  Setup ends when
``cli.build_config`` returns, which covers importing sloclab and building the
config; the one wrapper that notes that moment is the only code added to an
untraced run.  The sidecar JSON holds ``time.monotonic`` timestamps, which on
Linux share a clock with the parent process, plus the environment and, when
traced, the spans.
"""

from __future__ import annotations

import ctypes
import json
import os
import sys
import time
import traceback
import uuid


class _SetupDone(BaseException):
    """Raised from the build_config hook in setup mode; main() never sees it."""


def blas_threads():
    """Thread count reported by the OpenBLAS this process loaded, or None."""
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh}
    libs = [p for p in paths if "openblas" in os.path.basename(p) and ".so" in p]
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    sidecar, mode, sep, *argv = sys.argv[1:]
    if mode not in ("run", "trace", "setup") or sep != "--":
        raise SystemExit(f"usage: child.py SIDECAR run|trace|setup -- ARGS ({sys.argv[1:]})")

    from sloclab import cli  # noqa: the import is part of setup

    record: dict = {"mode": mode}
    recorder = None
    if mode == "trace":
        import spans
        recorder = spans.Recorder(uuid.uuid4().hex)
        record["bindings_wrapped"] = spans.install(recorder)
    root = None
    real_build_config = cli.build_config

    def build_config(args):
        nonlocal root
        cfg = real_build_config(args)
        record["setup_end"] = time.monotonic()
        if mode == "setup":
            raise _SetupDone
        if recorder is not None:
            root = recorder.begin(spans.ROOT)
        return cfg

    cli.build_config = build_config
    rc = 0
    try:
        rc = cli.main(argv)
    except _SetupDone:
        pass
    except Exception:
        # an uncaught error is a crash, not one of the CLI's exit codes;
        # keep the sidecar so the parent can say so
        record["crash"] = traceback.format_exc()
        traceback.print_exc()
        rc = 1
    finally:
        if root is not None:
            recorder.end(root)
        record["main_end"] = time.monotonic()

    import numpy
    import scipy
    record["env"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "blas_threads": blas_threads(),
                     "pid": os.getpid()}
    record["rc"] = rc
    if recorder is not None:
        record["run_id"] = recorder.run_id
        record["spans"] = recorder.spans
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
