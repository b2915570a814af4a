"""One module per paper table/figure, plus the shared harness.

Each module exposes ``run(...) -> ResultTable`` (or a dict of tables) and
a ``main()`` that prints paper-style output.  The one terminal entry
point is ``python -m repro run <key>`` (keys from ``python -m repro
list``): it calls that ``main()`` and adds the result cache, ``--jobs``,
``--json`` and timing.  The pytest-benchmark targets under ``benchmarks/`` call the same ``run``
functions with trimmed parameters.
"""

from repro.experiments.harness import (
    ENDLESS,
    STACK_MODES,
    LaunchedJob,
    OptimusStack,
    PassthroughStack,
    ResultTable,
    Stack,
    make_stack,
    measure_progress,
)

__all__ = [
    "ENDLESS",
    "STACK_MODES",
    "LaunchedJob",
    "OptimusStack",
    "PassthroughStack",
    "ResultTable",
    "Stack",
    "make_stack",
    "measure_progress",
]
