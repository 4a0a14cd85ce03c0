"""Seeded job lists for the three workloads.

A job is one quandlekit command line plus what the output checks need to
know about its input.  The program only ever sees the generated braid texts,
shorthands and the JSON files the worker writes during set-up.  One "round"
is the whole list; the worker runs a fixed number of rounds (`rounds`), so
the mix of work and the number of samples behind each timing do not depend
on how fast the program is.

Random inputs are drawn from the workload's generator and stratified by a
cost key (`stratified`), so that two seeds give rounds of nearly the same
cost: each round takes one input from each of its strata of equal
probability under the generator.  Without that, the count of a few
expensive inputs would differ from seed to seed and swamp the timings.
"""

from __future__ import annotations

import functools
import math
import os
import random

import oracle

WORKLOADS = ("knot_invariants", "alexander", "cohomology")
INPUTS = os.path.join(".bench_out", "inputs")
KAPPA = os.path.join(INPUTS, "kappa.json")
PRIMES = (3, 5, 7)
POOL = 100  # generator draws per input kept, see `stratified`


def rep_path(label: str) -> str:
    return os.path.join(INPUTS, f"rep-{label}.json")


def _braid_text(strands: int, letters) -> str:
    return f"k={strands}; " + " ".join(map(str, letters))


def _random_word(rng: random.Random, strands: int, length: int,
                 comps: int | None = None) -> list[int]:
    """A random word using every generator (so the diagram is connected)
    whose closure has `comps` components, or any number if `comps` is None."""
    while True:
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(length)]
        if ({abs(e) for e in word} == set(range(1, strands))
                and (comps is None or oracle.components(strands, word) == comps)):
            return word


def stratified(rng: random.Random, draw, count: int) -> list:
    """`count` items from the generator `draw(rng) -> (key, item)`, one from
    each of `count` strata of equal probability under the generator.

    POOL * count items are drawn and sorted by `key`, a proxy for the item's
    cost; ties keep the random order they were drawn in.  The sorted pool is
    cut into `count` runs of POOL items, and one item is taken at random from
    each run.  Every round thus holds the same share of cheap, middling and
    costly items, each drawn as the generator draws it."""
    pool = sorted((draw(rng) for _ in range(POOL * count)), key=lambda ki: ki[0])
    return [rng.choice(pool[i * POOL:(i + 1) * POOL])[1] for i in range(count)]


# -- knot_invariants -----------------------------------------------------------
# The generator: 8-14 letters with equal chance, each letter a random
# generator with a random sign, redrawn until every generator occurs.  Knots
# and links of every component count come out at their natural rates.  A
# round holds a fixed number of braids per strand count, KNOT_STRANDS.  Five
# strands get as many braids as three and four together, not a third of
# them: the R_7 `colorings` and `module` jobs of 5-strand braids are the
# slow class (|X|^k enumeration at 7^5), and with equal strand counts they
# are 9.5% of the jobs, so p90 fell just below them, on whichever 4-strand
# or R_5 job of the seed came next.  With half the braids on five strands
# they are 14% and p90 falls inside them.  Within a strand count the cost
# is set by the number of colorings, since the module and cocycle
# invariants take one matrix per coloring, and then by the letters.  The R_7
# count dominates the colorings, so the cost key is (R_7 nullity, letters);
# R_7 nullity is log_7 of the R_7 count.  Braids with more than 7^3 R_7
# colorings, 0.45% of the draws, are redrawn: one of them makes a `module`
# job of about a second, a quarter of a round.

KNOT_STRANDS = {3: 8, 4: 8, 5: 16}  # braids per round, 7 jobs each
MAX_NULLITY = 3


def natural_braid(rng: random.Random, strands: int):
    """((R_7 nullity, letters), word) from the generator."""
    while True:
        word = _random_word(rng, strands, rng.randint(8, 14))
        nullity = round(math.log(oracle.coloring_count(strands, word, 7), 7))
        if nullity <= MAX_NULLITY:
            return (nullity, len(word)), word


def knot_invariants(rng: random.Random, quick: bool) -> list[dict]:
    braids = []
    for strands, count in KNOT_STRANDS.items():
        draw = functools.partial(natural_braid, strands=strands)
        braids += [(strands, word) for word in stratified(rng, draw, 1 if quick else count)]
    jobs = []
    for strands, word in braids:
        braid = _braid_text(strands, word)
        info = {"strands": strands, "letters": word,
                "components": oracle.components(strands, word)}
        counts = {p: oracle.coloring_count(strands, word, p) for p in PRIMES}
        for p in PRIMES:
            jobs.append({"kind": "colorings", "p": p, "count": counts[p], **info,
                         "argv": ["colorings", f"dihedral:{p}", braid]})
        for p in PRIMES:
            jobs.append({"kind": "module", "p": p, "count": counts[p], **info,
                         "argv": ["invariant", "module", "--quandle", f"dihedral:{p}",
                                  "--rep", f"alexander-rep:{p}:2", "--braid", braid]})
        jobs.append({"kind": "cocycle", "p": 3, "count": counts[3], **info,
                     "argv": ["invariant", "cocycle", "--quandle", "dihedral:3",
                              "--rep", "conj-rep:perm3", "--cocycle", KAPPA,
                              "--braid", braid]})
    return jobs


# -- alexander -----------------------------------------------------------------
# The generator: 5-8 crossings with equal chance, then 2, 3 or 4 strands with
# equal chance among those on which a knot can have that many crossings,
# then a random word redrawn until it uses every generator and closes to a
# knot (the command rejects links).  The cost key is (crossings, Delta != 1,
# strands): at this commit the gcd-of-minors loop stops after the first
# minor when Delta = 1 and expands all of them otherwise.  A 9-crossing knot
# with Delta != 1 takes about 2.3 s, longer than a whole round, so 9
# crossings are left out.

ALEXANDER_KNOTS = 84  # per round, 2 jobs each
BURAU_PRIMES = (5, 7, 11, 13)


def natural_knot(rng: random.Random):
    """((crossings, Delta != 1, strands), (strands, word, Delta)) from the
    generator."""
    n = rng.randint(5, 8)
    strands = rng.choice([k for k in (2, 3, 4) if (k - 1) % 2 == n % 2])
    word = _random_word(rng, strands, n, 1)
    delta = oracle.alexander(strands, word)
    return (n, delta != [1], strands), (strands, word, delta)


def alexander(rng: random.Random, knots: int) -> list[dict]:
    jobs = []
    for strands, word, delta in stratified(rng, natural_knot, knots):
        braid = _braid_text(strands, word)
        info = {"strands": strands, "letters": word, "delta": delta,
                "counts": {p: oracle.coloring_count(strands, word, p) for p in PRIMES}}
        jobs.append({"kind": "alexander", **info,
                     "argv": ["invariant", "alexander", "--braid", braid]})
        prime = rng.choice(BURAU_PRIMES)
        t = rng.randint(2, prime - 1)
        jobs.append({"kind": "burau", "N": prime, "t": t, **info,
                     "argv": ["invariant", "module", "--quandle", "trivial:1",
                              "--rep", f"alexander-rep:{prime}:{t}", "--braid", braid]})
    return jobs


# -- cohomology ----------------------------------------------------------------
# A fixed pool of (quandle, rep, degree) configurations along the algebraist's
# pipeline: check a rep, search its cocycles, compute cohomology, build an
# extension.  The seed only orders the round, so rounds of different seeds
# cost the same.  Composite moduli stay in the pool so that the integer-SNF
# coefficient growth shows.  Configurations that do not finish within a run
# at this commit are listed in bench/README.md.

# conjugation reps of the groups of order <= 8, regular representation mod 7
REP_GROUPS = ("Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "V4", "S3", "D4", "Q8")

SEARCHES = [  # degree, quandle, rep, prime
    (2, "dihedral:3", "conj-rep:perm3", 3), (3, "dihedral:3", "conj-rep:perm3", 3),
    (2, "dihedral:3", "alexander-rep:5:2", 5), (3, "dihedral:3", "alexander-rep:5:2", 5),
    (2, "dihedral:4", "alexander-rep:3:2", 3), (3, "dihedral:4", "alexander-rep:3:2", 3),
    (2, "dihedral:5", "alexander-rep:5:2", 5), (3, "dihedral:5", "alexander-rep:5:2", 5),
    (2, "alexander:5:2", "alexander-rep:7:3", 7)]

HOMOLOGIES = [  # degree, quandle, rep, modulus, copies per round
    (2, "dihedral:3", "conj-rep:perm3", 3, 3), (2, "dihedral:3", "alexander-rep:9:2", 9, 3),
    (2, "dihedral:3", "alexander-rep:4:3", 4, 3), (2, "dihedral:3", "alexander-rep:25:2", 25, 3),
    (2, "dihedral:3", "alexander-rep:27:2", 27, 3), (2, "dihedral:4", "alexander-rep:4:3", 4, 3),
    (2, "dihedral:4", "alexander-rep:3:2", 3, 3), (3, "dihedral:3", "alexander-rep:3:2", 3, 3),
    (3, "dihedral:3", "alexander-rep:4:3", 4, 3),
    (2, "dihedral:5", "alexander-rep:5:2", 5, 2), (2, "alexander:5:2", "alexander-rep:5:2", 5, 2),
    (2, "dihedral:5", "alexander-rep:4:3", 4, 1), (2, "dihedral:3", "conj-rep:perm3:9", 9, 2),
    (3, "dihedral:3", "alexander-rep:9:2", 9, 1), (3, "dihedral:3", "conj-rep:perm3", 3, 1),
    (2, "dihedral:5", "alexander-rep:9:2", 9, 1)]

EXTENDS = [  # quandle, rep, cocycle, expected size
    ("trivial:2", "trivial-action:2", None, 4), ("dihedral:3", "alexander-rep:3:2", None, 9),
    ("dihedral:4", "alexander-rep:3:2", None, 12), ("dihedral:5", "alexander-rep:5:2", None, 25),
    ("dihedral:3", "conj-rep:perm3", KAPPA, 81)]


def cohomology(quick: bool) -> list[dict]:
    jobs = []
    for label in REP_GROUPS:
        jobs += [{"kind": "check_rep", "argv": ["check", "rep", rep_path(label)]}] * 2
    for degree, quandle, rep, prime in SEARCHES:
        jobs += [{"kind": "search", "degree": degree, "quandle": quandle, "rep": rep,
                  "prime": prime,
                  "argv": ["search", str(degree), quandle, rep, str(prime)]}] * 3
    for degree, quandle, rep, modulus, copies in HOMOLOGIES:
        if quick and copies < 3:  # the quick self-test keeps the cheap ones
            continue
        jobs += [{"kind": "homology", "modulus": modulus,
                  "argv": ["homology", str(degree), "--quandle", quandle,
                           "--rep", rep]}] * copies
    for quandle, rep, cocycle, size in EXTENDS:
        argv = ["extend", "--quandle", quandle, "--rep", rep]
        jobs += [{"kind": "extend", "size": size,
                  "argv": argv + (["--cocycle", cocycle] if cocycle else [])}] * 3
    return jobs


# Seconds one round takes at the calibration commit (2-core host, Python
# 3.11.7), with the host in its usual slowed state.  They only turn --seconds
# into a round count; a faster or slower program runs the same number of
# rounds and simply takes less or more time.  `cohomology` is given 6 s, a
# round at a slowed host's best, so that a 24 s run measures 4 rounds: with
# 3, p50 over its 10 ms jobs spread 0.11 over ten seeds.
ROUND_SECONDS = {"knot_invariants": 5.5, "alexander": 3.75, "cohomology": 6.0}


def rounds(workload: str, seconds: float) -> int:
    """Rounds a run of about `seconds` measures, at least one."""
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def generate(workload: str, seed: int, quick: bool = False) -> list[dict]:
    """The round for a workload and seed, in seeded random order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "knot_invariants":
        jobs = knot_invariants(rng, quick)
    elif workload == "alexander":
        jobs = alexander(rng, 8 if quick else ALEXANDER_KNOTS)
    elif workload == "cohomology":
        jobs = cohomology(quick)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return [{**job, "argv": job["argv"] + ["--jobs", "1"]} for job in jobs]
