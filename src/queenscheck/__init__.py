"""Definite-clause resolution engine and a bounded verification toolkit,
exercised on the layered n-queens program."""

__version__ = "0.1.0"
