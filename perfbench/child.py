"""One benchmark invocation of the ``verify`` command line, in its own process.

Usage: python3 perfbench/child.py [--trace] -- <verify argv...>

Times ``import crgeo.cli`` (numpy included) as the set-up time, then calls
``crgeo.cli.main(argv)`` with standard output captured.  With ``--trace``
the public functions of each crgeo module are wrapped from outside
(see ``tracer.py``) after the timed import, so set-up is measured the
same way in both modes.  Prints one JSON object on standard output:

    {"setup_s": ..., "exit_code": ..., "report": "<report text>",
     "trace": {...} or null}

``crgeo`` must be importable (the parent puts ``src`` on PYTHONPATH).
An exception escaping ``main`` is not caught: the process then prints no
JSON, which the parent treats as a failed benchmark run.
"""

import contextlib
import io
import json
import sys
import time


def main(args: list[str]) -> int:
    trace = args[:1] == ["--trace"]
    if trace:
        args = args[1:]
    if args[:1] != ["--"]:
        print("usage: child.py [--trace] -- <verify argv...>", file=sys.stderr)
        return 2
    argv = args[1:]

    t0 = time.perf_counter()
    import crgeo.cli

    setup_s = time.perf_counter() - t0

    tracer = None
    if trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install_crgeo()

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = crgeo.cli.main(argv)

    doc = {
        "setup_s": setup_s,
        "exit_code": code,
        "report": out.getvalue(),
        "trace": tracer.summary() if tracer else None,
    }
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
