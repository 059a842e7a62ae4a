"""Combinatorics of row-insertion tableau pairs: the permutation-to-tableaux
bijection, jeu-de-taquin evacuation, endpoint lifting maps between
neighboring symmetric groups, and exhaustive verification of which
permutations keep their recording tableau when reversed.

The package exports every name in its modules' `__all__` lists. The size
caps stay in their modules, where the code reads them."""

from . import enumeration, evacuation, permutations, reverse_maps, rsk, tableaux

# Joined before the star imports, which rebind `rsk` and `evacuation` from
# the submodules to the functions of those names.
__all__ = [
    *permutations.__all__,
    *tableaux.__all__,
    *rsk.__all__,
    *evacuation.__all__,
    *reverse_maps.__all__,
    *enumeration.__all__,
]

from .enumeration import *  # noqa: E402, F403
from .evacuation import *  # noqa: E402, F403
from .permutations import *  # noqa: E402, F403
from .reverse_maps import *  # noqa: E402, F403
from .rsk import *  # noqa: E402, F403
from .tableaux import *  # noqa: E402, F403

__version__ = "0.1.0"
