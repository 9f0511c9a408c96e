"""``python -m gridcox.cli`` with the benchmark's span wrappers installed.

The traced run of ``cli_crossval_3c`` starts this file instead of the
package's module entry point. Importing ``tracer`` installs the wrappers
when ``PERFBENCH_TRACE_DIR`` is set, and the CLI's spawn workers re-import
this file as ``__mp_main__``, so they install them too.
"""

import sys

import tracer  # noqa: F401  (installs the wrappers)

if __name__ == "__main__":
    from gridcox import cli

    sys.exit(cli.main())
