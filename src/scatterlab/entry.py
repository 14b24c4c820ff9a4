"""Console entry point of the `scatterlab` command.

`SCATTERLAB_THREADS` caps the BLAS/OpenMP thread pools (0 or unset = the
libraries' own default).  Those pools read their environment variables
once, when numpy loads, so this module imports no numpy: it sets the
variables first and only then imports the CLI.
"""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    threads = os.environ.get("SCATTERLAB_THREADS")
    if threads and threads != "0":
        for var in THREAD_VARS:
            os.environ.setdefault(var, threads)
    from .cli import main as cli_main
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
