"""The benchmark's workloads: one dfindex CLI command each.

Sizes are scaled down from the CLI defaults so that one repeat takes a few
seconds and a run holds several fresh-process repeats; README.md gives the
reasons for each choice.

The benchmark seed selects one of INPUT_SETS input sets: the CLI's --seed,
which draws the meshes, is the benchmark seed modulo INPUT_SETS.  Every
input set has its own committed verdict in reference.json, so sampled
maxima such as worm's maxLHS are checked against their own value.
"""

INPUT_SETS = 16

WORKLOADS = {
    # the only exact-class path: periods -> potential -> CollarPsi, whose
    # PotentialField.eval dominates through the interior oracle
    "bidisc-certify": {
        "domain": "bidisc",
        "argv": ["certify", "--domain", "bidisc", "--mesh", "400",
                 "--interior", "40"],
    },
    # obstructed class: six CriterionEvaluator builds (order-3 delta-jets);
    # no potential, and the oracle never runs
    "worm-estimate": {
        "domain": "worm",
        "argv": ["estimate", "--domain", "worm", "--mesh", "800"],
    },
    # real-curve branch: five interior-oracle calls (order-2 differences of
    # delta * exp(psi)) and five interior-mesh rebuilds
    "quartic-estimate": {
        "domain": "quartic_circle",
        "argv": ["estimate", "--domain", "quartic_circle", "--interior",
                 "400"],
    },
}


def input_set(seed):
    """The CLI seed, and reference.json key, for a benchmark seed."""
    return seed % INPUT_SETS
