"""Exact symbolic verification of Dirac geometry on coordinate patches.

Everything is computed over the rationals with polynomial coefficients, so
every verdict is exact: a check passes only when the defining identity holds
identically on the chart.  The submodules layer as

- symalg: multivariate rational polynomials, matrices, exact linear algebra
- cartan: vector fields, forms, bivectors, brackets, polynomial maps
- courant: generalized sections, Lagrangian frames, the integrability tensor
- tanlift: tangent/cotangent doubling, lifts, canonical maps
- algebroid: anchored brackets, duals, bialgebroids, infinitesimal data
- groupoid: polynomial groupoids, translations, multiplicative structures
- suite: the built-in example library run by the command line tool
- cli: the check-file language (grammar, evaluator, parse_expr), runner and reports
"""

__version__ = "0.1.0"
