"""Seeded input streams for the three workloads.

Every stream is a sequence of *decks*.  A deck is a stratified sample of the
workload's input distribution: it always holds the same number of inputs from
each stratum (degree band, integrand family, subcommand).  Input sizes follow
a fixed schedule over the deck index: the draws from a stratum come in
antithetic pairs at positions (0, 1), (1/4, 3/4), (1/8, 7/8), ..., so two
decks already reach both ends of every stratum (the highest degree and N)
and the pair costs about the same wherever it falls.  The seed draws everything else:
coefficients, integrand kinds, parameters, which requests are malformed and
how, and the order.  The cost of a run thus hardly depends on the seed, and
run-to-run spread measures the program rather than the luck of the draw.

Two domains.  The ``checked`` domain, which the workloads run, holds the
inputs on which the current program passes every check of ``checks.py``.
The ``full`` domain adds the inputs where it is known to miss: random
polynomials with coefficients of both signs, or of degree above 16 in x or
32 in 2x/pi (the oracle's ``est_error`` is the gap between its last two
levels and leaves out roundoff, which cancellation inside f or a high degree
makes larger than that gap; with mixed signs in about one input in twenty),
even Euler polynomials of degree 10 and up (same cause, around an exact 0),
projections of singular integrands past N = 4 and of smooth ones
past T = 14 (``approx_L`` and ``approx_L_direct`` part ways), and malformed
CLI requests that end in a traceback or exit 0.  ``run.py --domain full``
runs a workload on it; the benchmark's tests show that the checks flag
those inputs.

``deck(workload, seed, k, domain)`` is a pure function: the same arguments
always give the same inputs.  Inputs are plain JSON-compatible dicts; they
hold no logtan objects, so the program receives only the generated values.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("exact", "project", "cli")
DOMAINS = ("checked", "full")

PROJECT_KINDS = ("sqrt", "exp", "cos", "sinh", "logsine", "logtan")
SMOOTH_KINDS = ("exp", "cos", "sinh")


def _bands(values, parts: int) -> list[tuple[tuple[int, ...], int]]:
    """``values`` split into ``parts`` contiguous strata, one input each per deck."""
    values = tuple(values)
    edges = [(i * len(values)) // parts for i in range(parts + 1)]
    return [(values[edges[i]:edges[i + 1]], 1) for i in range(parts)]


def _span(lo: int, hi: int, count: int) -> tuple[tuple[int, ...], int]:
    return tuple(range(lo, hi + 1)), count


# (values, count): strata of sizes and how many inputs each contributes per
# deck.  A deck of 24: half random polynomials, a third of those in the scaled
# variable, a quarter each Legendre and Euler.  In the checked domain the
# oracle's roundoff on random polynomials stays within 0.6 of the allowed
# difference up to degree 16 in x and degree 32 in 2x/pi (150 inputs at each
# of six degrees in x, 12 per degree in 2x/pi); in x it reaches 0.88 at
# degree 24 and passes 1 from degree 30.  Legendre and odd Euler inputs are
# fixed and pass to n = 24.
EXACT_X_DEGREES = {"checked": _bands(range(1, 17), 8), "full": _bands(range(1, 41), 8)}
EXACT_SCALED_DEGREES = {"checked": _bands(range(1, 33), 4), "full": _bands(range(1, 41), 4)}
EXACT_LEGENDRE_INDEX = _bands(range(1, 25), 6)
EULER_INDEX = {
    "checked": [n for n in range(1, 25) if n % 2 or n < 10],
    "full": list(range(1, 25)),
}
# Most requests are small; one per deck reaches into the costly sizes.
# Singular integrands stop at T = 8 (N = 4) in the checked domain; the smooth
# ones alone fill the stratum above it.  The median of a deck falls inside
# the group at T = 5.
PROJECT_TERMS = {
    "checked": [
        (_span(1, 2, 3), PROJECT_KINDS), (_span(3, 4, 3), PROJECT_KINDS),
        (_span(5, 5, 3), PROJECT_KINDS), (_span(6, 8, 4), PROJECT_KINDS),
        (_span(9, 14, 1), SMOOTH_KINDS),
    ],
    "full": [
        (_span(1, 2, 3), PROJECT_KINDS), (_span(3, 4, 3), PROJECT_KINDS),
        (_span(5, 5, 3), PROJECT_KINDS), (_span(6, 8, 4), PROJECT_KINDS),
        (_span(9, 14, 1), PROJECT_KINDS), (_span(15, 19, 1), PROJECT_KINDS),
    ],
}
VERIFY_SUITES = ("exact", "series", "constants", "all")

CLI_SUBCOMMAND_SLOTS = {
    "exact": 3, "project": 3, "quad": 5, "constants": 3, "verify": 2, "usage_error": 2,
}

HALF_PI = math.pi / 2


def _rng(seed: int, workload: str, *tags) -> random.Random:
    # String seeds are hashed with SHA-512 by random.Random, so they do not
    # depend on PYTHONHASHSEED.
    return random.Random(":".join(str(t) for t in (seed, workload) + tags))


def _pair_share(seed: int, workload: str, k: int, tag, choices, count: int) -> list:
    """Deck ``k``'s ``count`` draws from ``choices``: the two decks of a pair
    (2j, 2j + 1) take their draws from one seeded permutation, so a pair holds
    each choice once whenever ``2 * count == len(choices)``."""
    drawn = _rng(seed, workload, "pair", k // 2, tag).sample(choices, len(choices))
    return [drawn[(k % 2 * count + i) % len(choices)] for i in range(count)]


def _position(i: int) -> float:
    """Where the i-th draw from a stratum falls in [0, 1]: antithetic pairs
    around the base-2 van der Corput sequence, 0, 1, 1/4, 3/4, 1/8, 7/8, ..."""
    j, base, step = i // 2, 0.0, 0.25
    while j:
        base += step * (j & 1)
        j >>= 1
        step /= 2
    return base if i % 2 == 0 else 1.0 - base


def _strata_values(strata, k: int) -> list[int]:
    """Stratified sizes for deck ``k``: ``count`` values per stratum, seed-independent."""
    out = []
    for values, count in strata:
        for c in range(count):
            out.append(values[min(len(values) - 1, int(_position(k * count + c) * len(values)))])
    return out


def _rational(rng: random.Random, lo: int, nonzero: bool = False) -> str:
    num = 0
    while num == 0:
        num = rng.randint(lo, 12)
        if not nonzero:
            break
    den = rng.randint(1, 12)
    return str(num) if den == 1 else f"{num}/{den}"


def _coeffs(rng: random.Random, degree: int, domain: str) -> list[str]:
    """Rational coefficients; non-negative in the checked domain, so that f
    itself does not cancel."""
    lo = 0 if domain == "checked" else -12
    return [_rational(rng, lo) for _ in range(degree)] + [_rational(rng, lo, nonzero=True)]


def _param(rng: random.Random, limit: float) -> float:
    return round(rng.uniform(-limit, limit), 3)


# ---------------------------------------------------------------------------
# exact: polynomials


def exact_deck(seed: int, k: int, domain: str) -> list[dict]:
    rng = _rng(seed, "exact", "deck", k)
    items = []
    for d in _strata_values(EXACT_X_DEGREES[domain], k):
        items.append({"family": "poly", "var": "x", "degree": d,
                      "coeffs": _coeffs(rng, d, domain)})
    for d in _strata_values(EXACT_SCALED_DEGREES[domain], k):
        items.append({"family": "poly", "var": "scaled", "degree": d,
                      "coeffs": _coeffs(rng, d, domain)})
    for n in _strata_values(EXACT_LEGENDRE_INDEX, k):
        items.append({"family": "legendre", "n": n, "degree": n})
    for n in _strata_values(_bands(EULER_INDEX[domain], 6), k):
        items.append({"family": "euler", "n": n, "degree": n})
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# project: non-polynomial catalog integrands


def project_deck(seed: int, k: int, domain: str) -> list[dict]:
    rng = _rng(seed, "project", "deck", k)
    items = []
    for s, (stratum, kinds) in enumerate(PROJECT_TERMS[domain]):
        # A pair of decks holds each kind once in a stratum of three, so the
        # kind mix, and with it the cost, hardly depends on the seed.
        drawn = _pair_share(seed, "project", k, s, kinds, stratum[1])
        for kind, terms in zip(drawn, _strata_values([stratum], k)):
            item = {"kind": kind, "terms": terms, "N": (terms + 1) // 2}
            if kind in SMOOTH_KINDS:
                item["z"] = _param(rng, 0.9)
            items.append(item)
    rng.shuffle(items)
    return items


def project_token(item: dict) -> str:
    """The CLI catalog token of a project input."""
    if item["kind"] in SMOOTH_KINDS:
        return f"{item['kind']}:{item['z']!r}"
    return item["kind"]


# ---------------------------------------------------------------------------
# cli: short requests, one subprocess each

POLY_TOKENS = {
    domain: ["x", "x2", "x3", "x4", "x5", "x6"] + [f"legendre{n}" for n in range(1, 11)]
    + [f"euler{n}" for n in EULER_INDEX[domain] if n <= 10]
    for domain in DOMAINS
}
SINGULAR_TOKENS = ["sqrt", "logtan", "logtan2", "logsine"]


def _interval(rng: random.Random) -> list[str]:
    if rng.random() < 0.5:
        return []
    a = round(rng.uniform(0.0, 0.7), 4)
    b = round(rng.uniform(0.9, 1.5), 4)
    return ["--a", repr(a), "--b", repr(b)]


def _quad_request(rng: random.Random, slot: int, domain: str) -> list[str]:
    polys = POLY_TOKENS[domain]
    if slot == 4:
        slot = rng.randrange(4)
    if slot == 0:
        return ["quad", rng.choice(polys)]
    if slot == 1:
        return ["quad", rng.choice(polys), "--plain"] + _interval(rng)
    if slot == 2:
        kind = rng.choice(SMOOTH_KINDS)
        return ["quad", f"{kind}:{_param(rng, 2.0)!r}"] + _interval(rng)
    argv = ["quad", rng.choice(SINGULAR_TOKENS)]
    if rng.random() < 0.5:
        argv.append("--plain")
    return argv + _interval(rng)


def _usage_error(rng: random.Random, domain: str) -> list[str]:
    """A malformed request; the correct answer is exit code 2 without a traceback."""
    choices = [
        ["bogus"],
        ["exact", f"1,{rng.choice('abq')}"],
        ["exact", f"{rng.randint(1, 9)}/0,1"],
        ["exact", ""],
        ["project", rng.choice(["tanh", "x^2", "bessel"]), "--terms", "3"],
        ["project", "sqrt", "--terms", str(rng.randint(-3, 0))],
        ["quad", "x", "--tol", "1e-20"],
        ["quad", "x", "--format", "xml"],
        ["constants", "zeta", str(rng.randint(-2, 1))],
        ["constants", "digamma", repr(-round(rng.uniform(0.1, 5.0), 3))],
    ]
    if domain == "full":
        # Requests the current program answers with a traceback or exit 0.
        above_half_pi = HALF_PI
        for _ in range(rng.randint(1, 4)):
            above_half_pi = math.nextafter(above_half_pi, math.inf)
        choices += [
            ["constants", "digamma", "1e-320"],
            ["quad", "x", "--tol", "nan"],
            ["quad", f"{rng.choice(('exp', 'sinh'))}:{rng.randint(300, 1000)}"],
            ["quad", rng.choice(POLY_TOKENS[domain]), "--b", repr(above_half_pi)],
            ["quad", "x", "--a", "1.2", "--b", "0.3"],
        ]
    return rng.choice(choices)


def cli_deck(seed: int, k: int, domain: str) -> list[dict]:
    rng = _rng(seed, "cli", "deck", k)
    items = []
    for sub, count in CLI_SUBCOMMAND_SLOTS.items():
        for slot in range(count):
            if sub == "exact":
                degree = 1 + 2 * slot + rng.randint(0, 1)  # strata 1-2, 3-4, 5-6
                var = "scaled" if rng.random() < 1 / 3 else "x"
                # "--" lets the coefficient list start with a minus sign.
                argv = ["exact", "--var", var, "--format", "json", "--",
                        ",".join(_coeffs(rng, degree, domain))]
            elif sub == "project":
                terms = (1, rng.randint(2, 3), rng.randint(4, 5))[slot]
                kind = rng.choice(PROJECT_KINDS)
                item = {"kind": kind}
                if kind in SMOOTH_KINDS:
                    item["z"] = _param(rng, 0.9)
                argv = ["project", project_token(item), "--terms", str(terms)]
            elif sub == "quad":
                argv = _quad_request(rng, slot, domain)
            elif sub == "constants":
                name = ("zeta", "digamma", rng.choice(("zeta", "digamma", "catalan")))[slot]
                if name == "zeta":
                    argv = ["constants", "zeta", str(rng.randint(2, 40))]
                elif name == "digamma":
                    argv = ["constants", "digamma", repr(round(rng.uniform(0.05, 30.0), 4))]
                else:
                    argv = ["constants", "catalan"]
            elif sub == "verify":
                argv = ["verify", _pair_share(seed, "cli", k, "verify", VERIFY_SUITES,
                                              count)[slot]]
            else:
                argv = _usage_error(rng, domain)
            if sub != "exact":
                argv = argv + ["--format", "json"]
            items.append({"sub": sub, "argv": argv})
    rng.shuffle(items)
    return items


DECKS = {"exact": exact_deck, "project": project_deck, "cli": cli_deck}


def deck(workload: str, seed: int, k: int, domain: str = "checked") -> list[dict]:
    return DECKS[workload](seed, k, domain)


# ---------------------------------------------------------------------------
# Input properties, recorded with every run so caching claims can be sized.


def input_key(workload: str, item: dict) -> str:
    if workload == "cli":
        return " ".join(item["argv"])
    return repr(sorted(item.items()))


def size_of(workload: str, item: dict):
    if workload == "exact":
        return f"{item['family']}:{item['degree']}"
    if workload == "project":
        return item["N"]
    return item["sub"]


def input_properties(workload: str, items: list[dict]) -> dict:
    """Histogram of input sizes and the share of inputs repeating an earlier one."""
    seen: set[str] = set()
    repeats = 0
    histogram: dict[str, int] = {}
    for item in items:
        key = input_key(workload, item)
        repeats += key in seen
        seen.add(key)
        size = str(size_of(workload, item))
        histogram[size] = histogram.get(size, 0) + 1
    label = {"exact": "family:degree", "project": "N", "cli": "subcommand"}[workload]
    return {
        "count": len(items),
        "repeat_share": repeats / len(items) if items else 0.0,
        "size_label": label,
        "sizes": dict(sorted(histogram.items())),
    }
