"""Built-in example problems exposed by the command line."""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import DomainError
from .probability import (
    DistortionMatrix,
    JointPMF,
    hamming,
    integer_alphabet,
    joint_pmf,
    typewriter,
    fully_connected,
)


def pentagon() -> tuple[JointPMF, DistortionMatrix]:
    """Five-symbol typewriter source; its characteristic graph is the 5-cycle."""
    pmf = typewriter(5)
    return pmf, hamming(pmf.source)


def c6() -> tuple[JointPMF, DistortionMatrix]:
    """Six-symbol typewriter source; its characteristic graph is bipartite."""
    pmf = typewriter(6)
    return pmf, hamming(pmf.source)


def fully_connected_example(m: int, p) -> tuple[JointPMF, DistortionMatrix]:
    """Uniform source whose side information never rules a symbol out."""
    pmf = fully_connected(m, Fraction(p))
    return pmf, hamming(pmf.source)


def mt_binary() -> tuple[JointPMF, DistortionMatrix, DistortionMatrix]:
    """Perfectly correlated uniform binary pair with Hamming distortions."""
    x = integer_alphabet("X", 2, start=0)
    y = integer_alphabet("Y", 2, start=0)
    pmf = joint_pmf(x, y, [[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    return pmf, hamming(x), hamming(y)


def split_cell_channel(p) -> tuple[JointPMF, DistortionMatrix]:
    """Five-symbol uniform source whose best fixed-size partitions are non-convex.

    Each row keeps 1-p on its own column; the off-diagonal mass p is spread
    as below (reconstructed so the known optima hold exactly for 0 < p <= 1/2;
    the support is one of several assignments consistent with them):

        row 1: 5p/12 -> y2,  p/2 -> y3,  p/12 -> y4
        row 2:  p/4  -> y3, 3p/4 -> y4
        row 3:    p  -> y4
        row 4:    p  -> y5
        row 5:    p  -> y1

    Under Hamming distortion the best 2-cell partition is {1,4},{2,3,5}
    (distortion 13p/60, rate 1) and the best 3-cell one is {1,4},{2,5},{3}
    (distortion p/60, rate 8/5); splitting {2,5} keeps distortion p/60 but
    drops the rate to 7/5 because the induced graph stops being complete.
    """
    p = Fraction(p)
    if not 0 < p <= Fraction(1, 2):
        raise DomainError(f"split_cell_channel needs 0 < p <= 1/2, got {p}")
    x = integer_alphabet("X", 5)
    y = integer_alphabet("Y", 5)
    fifth = Fraction(1, 5)
    off = [
        {1: Fraction(5, 12) * p, 2: Fraction(1, 2) * p, 3: Fraction(1, 12) * p},
        {2: Fraction(1, 4) * p, 3: Fraction(3, 4) * p},
        {3: p},
        {4: p},
        {0: p},
    ]
    probs = []
    for i in range(5):
        row = [Fraction(0)] * 5
        row[i] = (1 - p) * fifth
        for col, mass in off[i].items():
            row[col] = mass * fifth
        probs.append(row)
    pmf = joint_pmf(x, y, probs)
    return pmf, hamming(x)


class Example(NamedTuple):
    """A built-in problem: ``factory(*flag values)`` gives (pmf, d), plus d_y if multiterminal."""

    description: str
    factory: Callable[..., tuple]
    flags: tuple[str, ...] = ()
    multiterminal: bool = False


EXAMPLES = {
    "pentagon": Example("typewriter source on 5 symbols (5-cycle graph, L_Y = 7/5)", pentagon),
    "c6": Example("typewriter source on 6 symbols (bipartite graph, L_Y = 1)", c6),
    "fully-connected": Example("uniform source, symmetric-error SI channel (needs --M, --p)",
                               fully_connected_example, ("M", "p")),
    "mt-binary": Example("perfectly correlated uniform binary pair (multiterminal)",
                         mt_binary, multiterminal=True),
    "split-cell": Example("5-symbol channel where splitting a cell lowers the rate (needs --p)",
                          split_cell_channel, ("p",)),
}
