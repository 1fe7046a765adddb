"""Random CSP instances with sharp solution-count thresholds.

Generate Model RB instances deterministically, count their solutions
exactly, decide count thresholds in exact integer arithmetic, estimate
counts from closed forms, encode to CNF, and run grid experiments.
"""

__version__ = "0.1.0"
