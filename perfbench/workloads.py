"""Workload inputs: fixed sizes for census and survey, the seeded session stream.

census and survey have fixed inputs; the seed drives only the session stream.
The stream is built from blocks of 22 queries (10 classify_case, 2
theorem1_table and 10 lift checks, shuffled).  The classify max_index and the
table max_genus are drawn log-uniformly from equal-width strata, so every ten
blocks ask for about the same work and queries_per_s does not swing with the
seed.
"""

import hashlib
import json
import math
import random

from oracle import CASES, POINT_ORDER, family_instances, family_step, predicted_lift

CENSUS_MAX_GENUS = 101
SURVEY_MAX_INDEX = 256
SESSION_SURVEY_MAX_INDEX = 128
CLASSIFY_MAX_INDEX = 128
TABLE_MAX_GENUS = (2, 129)
LIFT_MAX_INDEX = 64
LIFT_ROUTES = ("lift_connected", "lift_connected_bruteforce")

CLASSIFY_PER_BLOCK = 10
TABLE_PER_BLOCK = 2
LIFT_PER_BLOCK = 10
# 10 blocks give 100 classify and 100 lift samples, so each p90 has ten
# samples above it, and 20 table samples for the median.
MIN_BLOCKS = 10


def census_bound(group):
    """Largest lattice index the census at CENSUS_MAX_GENUS asks of a group."""
    return 12 * (CENSUS_MAX_GENUS - 1) // POINT_ORDER[group]


def lift_pools():
    """Every family instance of index <= LIFT_MAX_INDEX per case, split by predicted verdict."""
    accepted, rejected = [], []
    for group, edge in CASES:
        for tag, n, m, _ in family_instances(group, LIFT_MAX_INDEX):
            u = family_step(group, tag) * n
            inst = {"group": group, "edge": edge, "tag": tag, "u": u, "m": m}
            (accepted if predicted_lift(group, edge, tag, u, m) else rejected).append(inst)
    return accepted, rejected


def _log_stratum(rng, k, strata, lo, hi):
    x = math.log(lo) + (k + rng.random()) / strata * (math.log(hi) - math.log(lo))
    return max(lo, min(hi, round(math.exp(x))))


def session_blocks(seed):
    """Endless seeded stream of query blocks; each query is a plain dict.

    Blocks come in rounds of MIN_BLOCKS.  The classify max_index and table
    max_genus values of a round are one log-uniform draw from each of equal
    strata, dealt to its blocks at random.  Stratum k of max_index goes to
    case k mod 9 of a shuffled case order, so each case gets indices from the
    whole range and every round asks for about the same work.
    """
    rng = random.Random(seed)
    accepted, rejected = lift_pools()
    n_classify = CLASSIFY_PER_BLOCK * MIN_BLOCKS
    n_table = TABLE_PER_BLOCK * MIN_BLOCKS
    while True:
        cases = rng.sample(CASES, len(CASES))
        classify_strata = rng.sample(range(n_classify), n_classify)
        table_strata = rng.sample(range(n_table), n_table)
        for b in range(MIN_BLOCKS):
            block = []
            for k in classify_strata[b * CLASSIFY_PER_BLOCK:(b + 1) * CLASSIFY_PER_BLOCK]:
                group, edge = cases[k % len(cases)]
                max_index = _log_stratum(rng, k, n_classify, 1, CLASSIFY_MAX_INDEX)
                block.append({"kind": "classify", "group": group, "edge": edge, "max_index": max_index})
            for k in table_strata[b * TABLE_PER_BLOCK:(b + 1) * TABLE_PER_BLOCK]:
                max_genus = _log_stratum(rng, k, n_table, *TABLE_MAX_GENUS)
                block.append({"kind": "table", "max_genus": max_genus})
            for k in range(LIFT_PER_BLOCK):
                pool = accepted if (k // 2) % 2 == 0 else rejected
                block.append({"kind": "lift", "route": LIFT_ROUTES[k % 2], **rng.choice(pool)})
            rng.shuffle(block)
            yield block


def stream_digest(blocks):
    return hashlib.sha256(json.dumps(blocks, sort_keys=True).encode()).hexdigest()


def first_blocks(seed, count):
    gen = session_blocks(seed)
    return [next(gen) for _ in range(count)]
