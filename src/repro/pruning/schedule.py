"""Degrees-of-pruning generators.

These build the sets *P* the paper sweeps:

* :func:`single_layer_sweep` — one layer, ratio 0-90% (Figures 6, 7);
* :func:`uniform_sweep` — all layers at the same ratio (Figure 4);
* :func:`multi_layer_grid` — cartesian ratio grid over several layers
  (Figure 11's conv1 x conv2 grid);
* :func:`sweet_spot_combo` — each layer at its last sweet spot
  (Figure 8's ``conv1-2`` and ``all-conv`` configurations);
* :func:`caffenet_variant_set` — the 60-variant Caffenet set behind the
  Pareto studies (Figures 9, 10);
* :func:`googlenet_variant_set` — its Googlenet counterpart over the
  six selected layers;
* :func:`algorithm1_variant_set` — the four Caffenet degrees the
  Algorithm 1 study searches.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from repro.pruning.base import PruneSpec

__all__ = [
    "DegreeOfPruning",
    "single_layer_sweep",
    "uniform_sweep",
    "multi_layer_grid",
    "sweet_spot_combo",
    "caffenet_variant_set",
    "googlenet_variant_set",
    "algorithm1_variant_set",
    "DEFAULT_RATIOS",
]

#: The paper's standard prune-ratio ladder: 0% to 90% in 10% steps.
DEFAULT_RATIOS: tuple[float, ...] = tuple(r / 10 for r in range(10))


@dataclass(frozen=True)
class DegreeOfPruning:
    """A labelled element of the degrees-of-pruning set *P*."""

    spec: PruneSpec
    label: str

    @classmethod
    def of(cls, spec: PruneSpec) -> "DegreeOfPruning":
        return cls(spec=spec, label=spec.label())


def single_layer_sweep(
    layer: str, ratios: Sequence[float] = DEFAULT_RATIOS
) -> list[DegreeOfPruning]:
    """Prune one layer at each ratio (one subplot of Figure 6/7)."""
    return [DegreeOfPruning.of(PruneSpec({layer: r})) for r in ratios]


def uniform_sweep(
    layers: Iterable[str], ratios: Sequence[float] = DEFAULT_RATIOS
) -> list[DegreeOfPruning]:
    """All layers pruned together at each ratio (Figure 4's x-axis)."""
    layers = tuple(layers)
    return [
        DegreeOfPruning.of(PruneSpec.uniform(layers, r)) for r in ratios
    ]


def multi_layer_grid(
    ratio_grid: Mapping[str, Sequence[float]]
) -> list[DegreeOfPruning]:
    """Cartesian product of per-layer ratio ladders.

    ``multi_layer_grid({"conv1": [0, .1], "conv2": [0, .2]})`` yields four
    degrees of pruning.  Figure 11 uses conv1 in 0-40% and conv2 in 0-50%.
    """
    names = list(ratio_grid)
    out = []
    for combo in itertools.product(*(ratio_grid[n] for n in names)):
        spec = PruneSpec(dict(zip(names, combo)))
        out.append(DegreeOfPruning.of(spec))
    return out


def sweet_spot_combo(sweet_spots: Mapping[str, float]) -> DegreeOfPruning:
    """One degree of pruning with each layer at its last sweet spot.

    The paper's Figure 8 builds ``conv1-2`` from
    ``{"conv1": 0.3, "conv2": 0.5}`` and ``all-conv`` from all five
    Caffenet convolutions at their last sweet spots.
    """
    return DegreeOfPruning.of(PruneSpec(dict(sweet_spots)))


def caffenet_variant_set(
    layers: Sequence[str] = ("conv1", "conv2", "conv3", "conv4", "conv5"),
    count: int = 60,
) -> list[DegreeOfPruning]:
    """A ``count``-variant Caffenet pruning set spanning a wide accuracy range.

    The paper selects "60 versions of Caffenet CNN pruned in different
    degrees spanning a wide accuracy range" (Section 4.3.2) without
    listing them; we generate a deterministic mix of uniform sweeps,
    single-layer sweeps and pairwise combinations that covers the same
    accuracy spectrum (from unpruned down to heavily-pruned conv1).
    """
    variants: list[DegreeOfPruning] = [
        DegreeOfPruning.of(PruneSpec.unpruned())
    ]
    # uniform all-conv sweeps: strong accuracy ladder
    for r in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8):
        variants.append(DegreeOfPruning.of(PruneSpec.uniform(layers, r)))
    # single-layer sweeps at coarse ratios
    for layer in layers:
        for r in (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8):
            variants.append(DegreeOfPruning.of(PruneSpec({layer: r})))
    # pairwise conv1/conv2 combinations (the paper's focus layers)
    for r1 in (0.1, 0.2, 0.3, 0.4):
        for r2 in (0.2, 0.3, 0.4, 0.5):
            variants.append(
                DegreeOfPruning.of(PruneSpec({layers[0]: r1, layers[1]: r2}))
            )
    # deeper trios to extend the low-accuracy tail
    for r in (0.5, 0.6, 0.7, 0.8, 0.9):
        variants.append(
            DegreeOfPruning.of(
                PruneSpec({layers[2]: r, layers[3]: r, layers[4]: r})
            )
        )
    # dedupe while preserving order, then trim/verify count
    seen: set[str] = set()
    unique = []
    for v in variants:
        if v.label not in seen:
            seen.add(v.label)
            unique.append(v)
    if len(unique) < count:
        raise ValueError(
            f"variant generator produced {len(unique)} < {count} degrees"
        )
    return unique[:count]


def googlenet_variant_set() -> list[DegreeOfPruning]:
    """Degrees of pruning over the six selected Googlenet layers."""
    # lazy: repro.calibration imports this module for its MODELS table
    from repro.calibration.googlenet import GOOGLENET_SWEET_SPOTS

    layers = tuple(GOOGLENET_SWEET_SPOTS)
    variants = [DegreeOfPruning.of(PruneSpec.unpruned())]
    for r in (0.2, 0.4, 0.6, 0.7, 0.8):
        variants.append(DegreeOfPruning.of(PruneSpec.uniform(layers, r)))
    for layer in layers:
        for r in (0.3, 0.6, 0.8):
            variants.append(DegreeOfPruning.of(PruneSpec({layer: r})))
    # stem + strongest inner layer combos (the Googlenet conv1-2 analog)
    for r1 in (0.3, 0.6):
        for r2 in (0.3, 0.6, 0.8):
            spec = PruneSpec({"conv1-7x7-s2": r1, "conv2-3x3": r2})
            variants.append(DegreeOfPruning.of(spec))
    return variants


def algorithm1_variant_set() -> list[DegreeOfPruning]:
    """The four Caffenet degrees Algorithm 1 searches: unpruned,
    ``conv1-2`` at two depths and all five convolutions."""
    conv2_5 = dict.fromkeys(("conv2", "conv3", "conv4", "conv5"), 0.5)
    return [
        DegreeOfPruning.of(PruneSpec.unpruned()),
        DegreeOfPruning.of(PruneSpec({"conv1": 0.2, "conv2": 0.3})),
        DegreeOfPruning.of(PruneSpec({"conv1": 0.3, "conv2": 0.5})),
        DegreeOfPruning.of(PruneSpec({"conv1": 0.3, **conv2_5})),
    ]
