"""Federated estimation of target-population average treatment effects."""

__version__ = "0.1.0"
