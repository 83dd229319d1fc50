"""Exact mixed-binary linear programming toolkit used by the optimizer."""
