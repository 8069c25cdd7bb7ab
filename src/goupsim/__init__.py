"""Simulation and analytics for one-dimensional transport in random Goupillaud media.

A Goupillaud medium is a layered medium in which every layer is traversed in
the same time, so layer thickness is proportional to propagation speed.  Here
the layer structure is driven by a strictly increasing Levy process sampled on
dyadic grids.  The package provides

* ``quadrature``              adaptive 1-d integration with endpoint-singularity
                              and semi-infinite support,
* ``levy_paths``              reproducible two-sided path sampling, aggregation
                              across dyadic levels, polygon/step evaluation and
                              generalized inverses,
* ``goupillaud``              media, broken and limiting characteristic curves,
* ``transport``               transport solutions along characteristics and
                              L^p convergence measurements,
* ``ig_analytics``            densities for the inverse Gaussian (stable-1/2)
                              case, up to the closed-form base-point density of
                              the limiting characteristic,
* ``montecarlo_validation``   seeded Monte Carlo generators, Brownian oracles
                              and histogram/KS comparisons,
* ``csvio``                   the one CSV writer behind every export,
* ``cli``                     command line front end (``goupsim``).
"""

__version__ = "0.1.0"

__all__ = [
    "quadrature",
    "levy_paths",
    "goupillaud",
    "transport",
    "ig_analytics",
    "montecarlo_validation",
    "csvio",
    "cli",
]
