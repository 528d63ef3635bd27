"""Machine-readable export of experiment results.

``python -m repro.experiments.export <directory>`` regenerates every
artefact and writes, per artefact, a ``.txt`` (the rendered table) and a
``.json`` (title + text + metadata), plus an ``index.json`` manifest —
the format downstream tooling (plots, CI diffs of reproduction numbers)
consumes.  CSV writers are provided for the series-shaped figures.
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path

from repro.experiments.engine import REGISTRY, run_experiments

__all__ = ["export_all", "write_csv_series", "main"]


def write_csv_series(
    path: str | os.PathLike,
    headers: list[str],
    rows: list[tuple],
) -> None:
    """One figure series as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        writer.writerows(rows)


def _figure_csv_rows() -> dict[str, tuple[list[str], list[tuple]]]:
    """Series data for the figures that are natural CSV tables."""
    from repro.experiments import (
        fig4_single_inference,
        fig5_parallel_inference,
        fig8_multilayer,
        fig11_tar,
        fig12_car,
    )

    out: dict[str, tuple[list[str], list[tuple]]] = {}
    r4 = fig4_single_inference.run()
    out["fig4"] = (
        ["prune_ratio", "caffenet_s", "googlenet_s"],
        list(zip(r4.ratios, r4.caffenet_s, r4.googlenet_s)),
    )
    r5 = fig5_parallel_inference.run()
    out["fig5"] = (
        ["parallel_inferences", "caffenet_s", "googlenet_s"],
        list(zip(r5.batches, r5.caffenet_s, r5.googlenet_s)),
    )
    r8 = fig8_multilayer.run()
    out["fig8"] = (
        ["configuration", "time_min", "top1", "top5"],
        [(r.name, r.time_min, r.top1, r.top5) for r in r8.rows],
    )
    r11 = fig11_tar.run()
    out["fig11"] = (
        ["degree", "time_min", "top1", "top5", "tar_top1", "tar_top5"],
        [
            (p.label, p.time_min, p.top1, p.top5, p.tar_top1, p.tar_top5)
            for p in r11.points
        ],
    )
    r12 = fig12_car.run()
    out["fig12"] = (
        [
            "instance",
            "category",
            "car_all_top1",
            "car_all_top5",
            "car_one_top1",
            "car_one_top5",
        ],
        [
            (
                r.instance,
                r.category,
                r.car_all_gpus_top1,
                r.car_all_gpus_top5,
                r.car_one_gpu_top1,
                r.car_one_gpu_top5,
            )
            for r in r12.rows
        ],
    )
    return out


def export_all(
    directory: str | os.PathLike,
    only: tuple[str, ...] | None = None,
    *,
    jobs: int = 1,
) -> list[str]:
    """Regenerate artefacts into ``directory``; returns written paths."""
    # run first: an unknown id raises before anything is written
    run = run_experiments(only, jobs=jobs, write_manifest=False)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[str] = []
    manifest = []
    for output in run.results:
        txt_path = directory / f"{output.artefact}.txt"
        txt_path.write_text(output.text + "\n")
        written.append(str(txt_path))
        json_path = directory / f"{output.artefact}.json"
        json_path.write_text(
            json.dumps(
                {
                    "artefact": output.artefact,
                    "title": output.title,
                    "category": output.category,
                    "status": output.status,
                    "text": output.text,
                    "data": output.data,
                },
                indent=2,
            )
            + "\n"
        )
        written.append(str(json_path))
        manifest.append(
            {
                "artefact": output.artefact,
                "title": output.title,
                "status": output.status,
            }
        )
    wanted = set(only) if only is not None else None
    for name, (headers, rows) in _figure_csv_rows().items():
        if wanted is not None and name not in wanted:
            continue
        csv_path = directory / f"{name}.csv"
        write_csv_series(csv_path, headers, rows)
        written.append(str(csv_path))
    index = directory / "index.json"
    index.write_text(json.dumps(manifest, indent=2) + "\n")
    written.append(str(index))
    return written


def main() -> None:  # pragma: no cover - CLI convenience
    import sys

    target = sys.argv[1] if len(sys.argv) > 1 else "results"
    only = tuple(sys.argv[2:]) or None
    bad = [i for i in only or () if i not in REGISTRY]
    if bad:
        raise SystemExit(f"unknown artefacts: {bad}")
    for path in export_all(target, only):
        print(path)


if __name__ == "__main__":  # pragma: no cover
    main()
