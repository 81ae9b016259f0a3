"""Traced stand-in for ``python -m rhomix.cli``: ``cli_child.py SPANS_FILE ARGV...``.

Installs the span tracer, runs ``rhomix.cli.main`` on ARGV, writes the spans
to SPANS_FILE and exits with the code the plain call would have given.
"""
import sys
import traceback

import rhomix.cli
from spans import Tracer


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return rhomix.cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main())
