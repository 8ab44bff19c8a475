"""Trust propagation over a web of trust (paper §II related work, §V future work).

The paper's stated future work is to propagate its *derived* web of trust
and compare against propagation over the explicit one.  This package
implements the propagation models the paper cites:

- :func:`tidal_trust` -- Golbeck's TidalTrust (local, source-sink, weighted
  shortest paths) [ref. 3];
- :func:`eigen_trust` -- Kamvar et al.'s EigenTrust (global PageRank-style
  fixed point) [ref. 8];
- :func:`guha_propagation` -- Guha et al.'s atomic propagations (direct,
  co-citation, transpose, coupling) [ref. 5];
- :func:`appleseed` -- Ziegler & Lausen's spreading-activation model
  [ref. 9].

All take the web of trust as a :class:`repro.matrix.UserPairMatrix` --
any trust matrix the pipeline produces, e.g. ``T-hat`` -- and read its
cached CSR view.
"""

from repro.propagation.appleseed import appleseed
from repro.propagation.eigentrust import eigen_trust
from repro.propagation.guha import GuhaWeights, guha_propagation
from repro.propagation.scores import PropagationScores
from repro.propagation.tidaltrust import tidal_trust

__all__ = [
    "tidal_trust",
    "eigen_trust",
    "guha_propagation",
    "GuhaWeights",
    "appleseed",
    "PropagationScores",
]
