"""Passive linear optics between source and detectors, photon by photon.

Routing is classical and probabilistic: intensity-correlation measurements
only need photon bookkeeping, not two-photon interference.  The collection
optics and monochromator are folded into a single effective transmission
applied with `attenuate`.  No recipe calls either function (the
sampler folds both into one fate per photon): they are internal, kept
only while perfbench/traced.py wraps them.
"""

from .rng import generator


def beamsplit(stream, ratio, seed):
    """Route every tag independently to arm A or arm B by `ratio`, a
    `config.SplitRatio`.

    Returns (arm_a, arm_b); each input tag appears in exactly one arm and
    both outputs keep the input ordering and duration.
    """
    rng = generator(seed)
    to_b = rng.random(len(stream)) < ratio.transmission
    return stream.subset(~to_b), stream.subset(to_b)


def attenuate(stream, transmission, seed):
    """Independent Bernoulli thinning; Poisson(mu) input stays Poisson(mu*transmission)."""
    if not 0.0 <= transmission <= 1.0:
        raise ValueError(f"transmission {transmission} outside [0, 1]")
    rng = generator(seed)
    keep = rng.random(len(stream)) < transmission
    return stream.subset(keep)
