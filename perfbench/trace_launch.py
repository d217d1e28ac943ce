"""Run the ``parhde`` CLI with span wrappers installed.

    PERFBENCH_TRACE_DIR=DIR PYTHONPATH=src python3 perfbench/trace_launch.py serve ...

takes the same arguments as ``python -m repro`` and starts the same
server, so the traced and untraced runs have the same process layout.
The wrappers are installed at import, outside the ``__main__`` check:
cluster workers start with the ``spawn`` method, which re-imports this
file as ``__mp_main__`` in each worker before unpickling its target, so
the workers are traced too.  Each process writes its spans to
``DIR/spans-<pid>.json`` when its engine drains on a graceful stop.
"""

import os
import sys

from spans import TRACE_DIR_ENV, Recorder, install

TRACE_DIR = os.environ[TRACE_DIR_ENV]
RECORDER = Recorder()
install(RECORDER, TRACE_DIR)

if __name__ == "__main__":
    from repro.cli import main

    try:
        code = main(sys.argv[1:])
    finally:
        RECORDER.dump(TRACE_DIR)
    sys.exit(code)
