"""The CLI's adversarial inputs: every subcommand at the edges of what it
takes, with the exit code each run must get.

Imports no test framework, so that ``tests/test_cli.py`` runs every row
in-process and ``scripts/crosscheck.py`` runs every row as a subprocess on
other interpreters.
"""

from gibonacci import cli, gcdsum, identities, pisano

#: The first chain index whose term is over OUTPUT_BIT_CAP bits (``cli._check_output_bits``).
OUTPUT_CAP_INDEX = -(-(cli.OUTPUT_BIT_CAP + 1) * 10000 // 6942)
DIGITS_4301 = "9" * 4301  # one digit over CPython's default int/str limit

#: Every subcommand on 0, a negative value, a 4301-digit value, the
#: degenerate seed (0, 0) and one past each cap, with the exit code each
#: gets.  An exit of 1 is a refusal.
ADVERSARIAL_RUNS = [
    (["term", "--n", "0"], 0),
    (["term", "--n", "-5"], 0),
    (["term", "--n", DIGITS_4301], 1),
    (["term", "--seed", "0,0", "--n", "5"], 0),  # the zero sequence has terms
    (["term", "--n", str(OUTPUT_CAP_INDEX)], 1),
    (["term", "--n", str(-OUTPUT_CAP_INDEX)], 1),
    (["sum", "--n", "0", "--k", "5"], 1),
    (["sum", "--n", "1", "--k", "0"], 1),
    (["sum", "--n", "-1", "--k", "3"], 1),
    (["sum", "--n", "1", "--k", "-3"], 1),
    (["sum", "--n", DIGITS_4301, "--k", "1"], 1),
    (["sum", "--seed", "0,0", "--n", "1", "--k", "3"], 0),
    (["sum", "--n", "1", "--k", str(OUTPUT_CAP_INDEX - 2)], 1),  # chain index n + k + 1
    (["gcd-sum", "--k", "0"], 1),
    (["gcd-sum", "--k", "-2"], 1),
    (["gcd-sum", "--k", DIGITS_4301], 1),
    (["gcd-sum", "--seed", "0,0", "--k", "4"], 1),
    (["gcd-sum", "--k", str(2 * OUTPUT_CAP_INDEX)], 1),  # chain index k/2
    (["gcd-sum", "--method", "all", "--k", str(2 * OUTPUT_CAP_INDEX)], 1),
    (["gcd-sum", "--method", "brute", "--k", str(gcdsum.BRUTE_FORCE_INDEX_CAP + 1)], 1),
    (["gcd-sum", "--method", "all", "--k", str(gcdsum.BRUTE_FORCE_INDEX_CAP + 2)], 1),
    (["gcd-sum", "--method", "lcm", "--k", str(gcdsum.LCM_ROUTE_INDEX_CAP)], 0),
    (["gcd-sum", "--method", "lcm", "--k", str(gcdsum.LCM_ROUTE_INDEX_CAP + 1)], 1),
    (["gcd-sum", "--method", "lcm", "--k", "12", "--bound", "0"], 1),
    (["gcd-sum", "--method", "lcm", "--k", "12", "--bound", "-1"], 1),
    (["gcd-sum", "--method", "lcm", "--k", "12", "--bound", str(pisano.SCAN_MODULUS_CAP + 1)], 1),
    (["pisano", "--m", "0"], 1),
    (["pisano", "--m", "-7"], 1),
    (["pisano", "--m", DIGITS_4301], 1),
    (["pisano", "--seed", "0,0", "--m", "7"], 1),
    (["pisano", "--m", str(2**pisano.MODULUS_BIT_CAP)], 1),
    (["classify", "--k", "0"], 1),
    (["classify", "--k", "-4"], 1),
    (["classify", "--k", DIGITS_4301], 1),
    (["classify", "--seed", "0,0", "--k", "4"], 1),
    (["classify", "--k", str(2 * OUTPUT_CAP_INDEX)], 1),
    (["parity-scan", "--m-max", "0"], 1),
    (["parity-scan", "--m-max", "-3"], 1),
    (["parity-scan", "--m-max", DIGITS_4301], 1),
    (["parity-scan", "--seed", "0,0", "--m-max", "10"], 1),
    (["parity-scan", "--m-max", str(pisano.SCAN_MODULUS_CAP + 1)], 1),
    (["max-modulus", "--k", "0"], 1),
    (["max-modulus", "--k", "-6"], 1),
    (["max-modulus", "--k", DIGITS_4301], 1),
    (["max-modulus", "--seed", "0,0", "--k", "6"], 1),  # reads no seed
    (["max-modulus", "--k", str(gcdsum.LCM_ROUTE_INDEX_CAP + 2)], 1),  # the first even k past it
    (["lucas-odd", "--j", "0"], 1),
    (["lucas-odd", "--j", "-3"], 1),
    (["lucas-odd", "--j", DIGITS_4301], 1),
    (["lucas-odd", "--seed", "0,0", "--j", "3"], 1),
    (["lucas-odd", "--j", str(OUTPUT_CAP_INDEX | 1)], 1),  # chain index j, odd
    (["primes-check", "--k", "0"], 1),
    (["primes-check", "--k", "-3"], 1),
    (["primes-check", "--k", DIGITS_4301], 1),
    (["primes-check", "--seed", "0,0", "--k", "3"], 1),
    (["primes-check", "--k", "3", "--bound", "0"], 0),  # reports what it leaves unfactored
    (["primes-check", "--k", "3", "--bound", "-5"], 0),
    (["primes-check", "--k", "3", "--bound", str(pisano.TRIAL_DIVISION_BOUND)], 0),
    (["primes-check", "--k", "3", "--bound", str(pisano.TRIAL_DIVISION_BOUND + 1)], 1),
    (["squares", "--k", "0"], 0),
    (["squares", "--k", "-1"], 1),
    (["squares", "--k", DIGITS_4301], 1),
    (["squares", "--seed", "0,0", "--k", "3"], 1),
    (["squares", "--k", str(gcdsum.BRUTE_FORCE_INDEX_CAP + 1)], 1),
    (["squares", "--k", "100000001"], 1),
    (["identities", "--hi", "0"], 1),
    (["identities", "--id", "cassini", "--lo", "-5", "--hi", "5"], 0),
    (["identities", "--hi", "-1"], 1),
    (["identities", "--hi", DIGITS_4301], 1),
    (["identities", "--seed", "0,0"], 1),  # reads no seed
    (["identities", "--id", "lucas_from_fib", "--hi", str(identities.IDENTITY_POINT_CAP)], 1),
    (["identities", "--id", "gib_partial_sum", "--hi", "41575"], 1),  # table bits
    (["verify", "--seed", "0,0"], 1),  # reads no seed and no value
    (["verify", "--k", "0"], 1),
]
