"""GCDs of sums of k consecutive Gibonacci numbers.

Exact big-integer tooling for generalized Fibonacci sequences: term
evaluation, generalized Pisano periods, three equivalent routes to the
GCD of all k-term window sums, a k mod 12 classifier, and applications
(prime-factor restrictions, maximal moduli for a given period,
odd-indexed Lucas numbers from GCDs, and the GCD of sums of squares).
"""

from .applications import (
    lucas_from_gcd,
    max_modulus_for_period,
    pisano_of_fib_lucas_moduli,
    prime_restriction_check,
    squares_gcd,
)
from .gcdsum import (
    CaseRow,
    Classification,
    Footnote,
    GcdSumResult,
    Method,
    classify,
    gcd_sum,
    gcd_sum_bruteforce,
    gcd_sum_lcm,
)
from .identities import Identity, IdentityReport, verify_identity
from .pisano import (
    ParityScanReport,
    equivalent_up_to_shift,
    parity_scan,
    pisano_period,
)
from .sequences import (
    FIBONACCI,
    LUCAS,
    Seed,
    coprime_seed_grid,
    fib,
    gib_pair,
    gib_term,
    lucas,
    window_sum,
)

__version__ = "0.1.0"
