"""Statevector simulator and query-metered benchmark harness for training
perceptrons by version-space search: a counting-based construction of the
"is this hyperplane consistent with every data point" oracle, bounded-error
Grover search over hyperplane candidates, and exact classical baselines."""

__version__ = "0.1.0"
