"""One module per paper table/figure, plus the shared harness.

Each module declares ``run(**grid)``, returning a ``ResultTable`` (or a
dict of them) with the grid ``python -m repro run <key>`` records as its
defaults; ``QUICK``, a dict of ``run`` overrides for a seconds-scale grid;
and ``CLAIMS``, the paper's results as :class:`~repro.experiments.harness.Claim`
bands on what ``run`` returns.  ``python -m repro run <key>`` adds the
result cache, ``--jobs``, ``--json``, timing and one line per claim.
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
