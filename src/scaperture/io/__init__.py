"""Scenario configuration (`config`) and deterministic artifact writers (`writers`)."""
