"""The ``hdse`` console script: ``hdse.cli.main``, run after importing it.

This module lives outside the ``hdse`` package so that a Ctrl-C that
arrives while the package is still importing (numpy and every module load
before ``hdse.cli.main`` runs) exits 130 with one ``error: interrupted``
line, as a Ctrl-C during a command does, instead of with a traceback and
exit 1. Run it as ``hdse ARGS`` or ``python -m hdse_entry ARGS``.
"""

import sys

EXIT_INTERRUPTED = 130  # hdse.cli.EXIT_INTERRUPTED, not yet importable here


def main() -> int:
    try:
        from hdse.cli import main as cli_main
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
