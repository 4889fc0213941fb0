"""One cold set-up of the workbench in a fresh interpreter.

Run from the repository root; prints ``ready`` once the package is
imported and the lazy set-up every process pays once is done.
"""

import os
import sys


def set_up(cayley, planes, frame_identities) -> None:
    """phi0's dense tensor, the octonionic convention map, the 28x28 pair tables."""
    phi = cayley.phi0()
    phi.tensor
    planes.standard_convention()
    for i in range(4):
        frame_identities.pair_matrix(phi, i)


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from cayley_workbench import cayley, frame_identities, planes

    set_up(cayley, planes, frame_identities)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
