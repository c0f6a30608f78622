"""The command-line entry point: ``morphfit`` and ``python -m morphfit``.

A command-line run uses one BLAS thread unless the user chose a count: the
systems CPD solves are too small for a second thread to pay off, and with
one thread the output bytes do not depend on the machine's core count.
"""
import os
import sys

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    """Run the CLI, with one BLAS thread if none of the variables is set.

    The variables must be set before numpy loads, so a process that has
    already loaded numpy keeps its BLAS as it is.  The external oracle's
    process gets the environment this one started with.
    """
    pin = "numpy" not in sys.modules and not any(
        name in os.environ for name in BLAS_THREAD_VARIABLES)
    if pin:
        started_with = dict(os.environ)
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))
    from . import cli, oracle

    if pin:
        oracle.CHILD_ENV = started_with
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
