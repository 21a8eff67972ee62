"""cpnslab: desk-scale class-incremental learning with counterfactual
probability-of-necessity-and-sufficiency regularization and diagnostics.

This module imports nothing, so the CLI can pin BLAS thread counts before
anything numeric is imported.
"""

__version__ = "0.1.0"
