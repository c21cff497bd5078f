"""Coordinated motion planning for labeled unit squares on the integer grid.

Instances place n robots at distinct start pixels and ask for synchronous
axis-parallel motion schedules that bring every robot to its target without
collisions. The package bundles an instance generator, a feasibility checker
with lower bounds, a prioritized search plus local search solver, tournament
style scoring, and SVG rendering. Import them from their submodules, for
example ``from gridmotion.solve import SolverConfig, solve``.
"""

__version__ = "0.1.0"
