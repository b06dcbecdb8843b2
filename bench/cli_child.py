"""Run one command-line verb in-process with every layer traced.

    python3 bench/cli_child.py SPANS.json VERB [ARGS...]

Imports the package, installs the tracer, calls ``cli.main`` with the
remaining arguments and writes the spans to SPANS.json.  Import time is not
part of any span; ``python -X importtime`` measures it separately.
"""

import sys
import warnings

import spans

from cavityblockade import cli


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    warnings.simplefilter("ignore")
    tracer = spans.Tracer()
    tracer.install()
    code = cli.main(argv)
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
