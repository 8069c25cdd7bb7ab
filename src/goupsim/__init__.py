"""Simulation and analytics for one-dimensional transport in random Goupillaud media.

A Goupillaud medium is a layered medium in which every layer is traversed in
the same time, so layer thickness is proportional to propagation speed.  Here
the layer structure is driven by a Levy subordinator sampled on dyadic grids,
whose values are non-decreasing in floating point (a tie is an increment below
half an ulp, kept by full paths and bridge trees alike).  The package provides

* ``levy_paths``              reproducible two-sided path sampling, aggregation
                              across dyadic levels, polygon/step evaluation and
                              generalized inverses,
* ``bridge_tree``             paths of every family as keyed dyadic bridge trees,
                              searched by descent (hit index, value at a
                              grid index) without materializing a window,
* ``goupillaud``              media; each level paired with its curve, evaluator
                              and inverse; characteristic curves and base points,
* ``transport``               transport solutions along characteristics and
                              L^p convergence measurements,
* ``ig_analytics``            densities for the inverse Gaussian (stable-1/2)
                              case, up to the base-point density of the
                              limiting characteristic, every one in closed form,
* ``montecarlo_validation``   seeded Monte Carlo generators, Brownian oracles
                              and histogram/KS comparisons,
* ``csvio``                   the one CSV writer behind every export,
* ``cli``                     command line front end (``goupsim``).
"""

__version__ = "0.1.0"

__all__ = [
    "levy_paths",
    "bridge_tree",
    "goupillaud",
    "transport",
    "ig_analytics",
    "montecarlo_validation",
    "csvio",
    "cli",
]
