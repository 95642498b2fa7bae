"""Executable finite-set category theory: local products, kernel pair
constructions, internal structures, kite solvers and weakly-Mal'tsev
classification of finite algebras."""

from .finmaps import FinMap, compose, identity, ismember
from .limits import SplitCospan, local_product, pullback
from .internal import ReflexiveGraph, Span, kpc, kpc_swapped
from .kitecond import KiteDiagram, check_hypotheses, solve_m
from .algebra import OpAlgebra, Operation
from .report import Report

__all__ = [
    "FinMap", "compose", "identity", "ismember",
    "SplitCospan", "local_product", "pullback",
    "ReflexiveGraph", "Span", "kpc", "kpc_swapped",
    "KiteDiagram", "check_hypotheses", "solve_m",
    "OpAlgebra", "Operation", "Report",
]

__version__ = "0.1.0"
