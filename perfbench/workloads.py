"""Benchmark workloads: each is a list of `voaplus` CLI invocations ("parts").

The parts are desk-battery parts of `voaplus all --profile desk` at their desk
cutoffs.  A workload seed only shuffles the order the parts run in, the same
way `voaplus all --seed` does; the parts themselves never change.
"""

import random

WORKLOADS = {
    # The plus-fixed and even-Heisenberg generation closures on the norm-6
    # lattice: dominated by `vertex.mode` and echelon insertion.
    "closure": [
        ["generation", "--lattice", "6", "--max-weight", "8"],
    ],
    # The same mode engine used differently: Gaussian coefficients (torus c=i),
    # Virasoro operators over whole graded bases, little reuse per state.
    "modes": [
        ["mode-checks", "--max-weight", "6"],
        ["aut", "--case", "theta", "--max-weight", "5"],
        ["aut", "--case", "torus", "--max-weight", "5"],
        ["aut", "--case", "n4", "--max-weight", "6"],
        ["fusion", "--m", "1", "--n", "1", "--max-weight", "8"],
        ["fusion", "--m", "2", "--n", "1", "--max-weight", "8"],
        ["fusion", "--m", "2", "--n", "2", "--max-weight", "8"],
    ],
    # q-series characters and small exact linear algebra; barely touches the
    # mode engine, so mode and closure optimisations should leave it unchanged.
    "series": [
        ["characters", "--lattice", "2", "--max-weight", "12", "--order", "40"],
        ["characters", "--lattice", "4", "--max-weight", "8", "--order", "40"],
        ["characters", "--lattice", "6", "--max-weight", "8", "--order", "40"],
        ["characters", "--lattice", "10", "--max-weight", "8", "--order", "40"],
        ["cg", "--max", "8"],
        ["symn", "--n", "8"],
    ],
}


def part_key(argv) -> str:
    """The name a part's reference digest is stored under."""
    return " ".join(argv)


def part_order(workload: str, seed: int) -> list:
    """Indices of the workload's parts in the order seed `seed` runs them."""
    order = list(range(len(WORKLOADS[workload])))
    random.Random(seed).shuffle(order)
    return order
