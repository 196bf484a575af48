"""Run one ``rsl`` command in this fresh process.

    python3 rslcall.py [--spans FILE | --counts FILE] <rsl arguments>

With no option this is exactly ``rsl <arguments>``: import ``rsl.cli`` and
call its ``main``.  ``--spans`` and ``--counts`` first install the recorders
in ``tracer.py`` and write what they recorded to FILE when ``main`` returns.
The recorders change no output: stdout, share files and ``events.jsonl``
stay byte-identical, which run.py checks on every traced call.
"""

import sys
import time


def main(argv):
    mode = out = None
    if argv[:1] in (["--spans"], ["--counts"]):
        mode, out, argv = argv[0][2:], argv[1], argv[2:]
    start = time.perf_counter()
    import rsl.cli
    import_s = time.perf_counter() - start
    if mode is None:
        return rsl.cli.main(argv)
    import tracer
    return tracer.run(mode, out, import_s, argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
