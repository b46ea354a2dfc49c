"""Seeded benchmark for the repository; see run.py."""
