"""Built-in example towers and the binary-mask connected-sum family."""

from .knots import Torus, UNKNOT
from .laurent import quoted
from .towers import Tower, core_parallel, generic, swallow, wind

__all__ = ["built_in_towers", "mask_tower", "resolve"]


def built_in_towers() -> dict[str, Tower]:
    """The seven shipped towers, keyed by catalog name."""
    trefoil = Torus(2, 3)
    return {
        "whitehead": Tower(
            "whitehead",
            UNKNOT,
            cycle=(generic(0, pattern_genus=0),),
        ),
        "dyadic_solenoid": Tower(
            "dyadic_solenoid",
            UNKNOT,
            cycle=(wind(2, declared_genus=0),),
        ),
        "mixed_solenoid": Tower(
            "mixed_solenoid",
            UNKNOT,
            cycle=(wind(2, declared_genus=0), wind(3, declared_genus=0)),
        ),
        "knotted_dyadic_solenoid": Tower(
            "knotted_dyadic_solenoid",
            trefoil,
            cycle=(wind(2),),
        ),
        "infinite_trefoil_sum": Tower(
            "infinite_trefoil_sum",
            trefoil,
            cycle=(swallow(trefoil),),
        ),
        "tame_trefoil": Tower(
            "tame_trefoil",
            trefoil,
            cycle=(core_parallel(),),
        ),
        "modified_whitehead": Tower(
            "modified_whitehead",
            UNKNOT,
            cycle=(generic(1, pattern_genus=0, concentric=False),),
        ),
    }


def mask_tower(mask: str, prefix_len: int = 8) -> Tower:
    """Connected-sum tower selected by a periodic binary mask.

    Position ``i`` (1-based) contributes the torus knot ``T(i+1, i+2)``
    when the mask bit ``(i-1) mod len(mask)`` is one.  The first
    ``prefix_len`` selected knots become swallow stages; the next selected
    knot repeats as the cycle, standing in for the remaining tail.
    """
    if not mask or any(ch not in "01" for ch in mask):
        raise ValueError(f"mask must be a nonempty string of 0s and 1s, got {quoted(mask)}")
    if "1" not in mask:
        raise ValueError("mask must select at least one knot")
    selected: list[Torus] = []
    i = 1
    while len(selected) < prefix_len + 1:
        if mask[(i - 1) % len(mask)] == "1":
            selected.append(Torus(i + 1, i + 2))
        i += 1
    return Tower(
        f"mask:{mask}",
        UNKNOT,
        prefix=[swallow(k) for k in selected[:prefix_len]],
        cycle=(swallow(selected[prefix_len]),),
    )


def resolve(name: str) -> Tower:
    """Look up a catalog tower; ``mask:<bits>`` builds a mask-family tower."""
    if name.startswith("mask:"):
        return mask_tower(name[len("mask:"):])
    towers = built_in_towers()
    if name not in towers:
        raise ValueError(f"unknown catalog tower {quoted(name)}; 'toroidal catalog list' names them all")
    return towers[name]
