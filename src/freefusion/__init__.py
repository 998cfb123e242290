"""Fusion-semiring calculus for the free unitary quantum groups and their
projective quotients.  Simple comodules are indexed by binary words over
{0, 1}.  Each library name lives in one module and is imported from there:
`words` (words, duals, degrees, the word check), `fusion` (the fusion
product), `closure` (bounded saturation, membership and derivation
certificates), `normality` (ambients, ad-saturated closures, the simplicity
and circle checkers) and `cli` (the command line).
"""

__version__ = "0.1.0"
