"""Run one ``bornchoice`` command in process with the layer spans on.

    python3 bcbench/traced_cli.py SPANS_PATH COMMAND [ARGS...]

The package is imported before tracing starts; ``cli.main`` is one span
noted with the command name. Spans go to SPANS_PATH as JSON; the exit
code is the command's.
"""

import sys

from bornchoice import cli

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("cli.main", note=argv[0]):
            code = cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
