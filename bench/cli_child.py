"""Run one walsh-lab command with spans recorded around the package's layers.

    python bench/cli_child.py SPANS.json sweep spectrum-grid ...

Times ``import walsh_lab`` (recorded as the ``cli.import`` span), installs
the benchmark's wrappers, calls ``walsh_lab.cli.main`` with the remaining
arguments and writes the spans to SPANS.json at exit.
"""

import importlib
import sys
from time import perf_counter


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import walsh_lab.cli  # noqa: F401  (the import a CLI process pays)

    t1 = perf_counter()
    from tracing import Tracer

    tracer = Tracer()
    tracer.add_span("cli.import", t0, t1)
    tracer.install()
    try:
        return importlib.import_module("walsh_lab.cli").main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
