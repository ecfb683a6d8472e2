"""Reference check: every point's simulated statistics against a reference.

Two references, both checked on every repetition:

* the figure data the repository publishes in ``results/``: the Figure 8
  row of ``results/fig08_tsp.csv`` for ``tsp-lock`` (total time, the four
  breakdown buckets, lock hit ratio) and the loop-transformed section of
  ``results/fig12_water_kernel.txt`` for ``fig12-sweep`` (total time and
  breakdown shares per cluster size, breakup penalty, multigrain
  potential);
* ``reference.json`` in this directory, the full statistics of every
  point pinned from the program: total time, breakdown buckets, lock
  acquires and hit ratio, inter/intra-SSMP messages, protocol counters,
  and for the in-process points the cache-class counts and event count.
  ``pin_reference.py`` rewrites it after a deliberate model change.

A point fails on any mismatch; each mismatch is reported by field.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

from repro.bench.report import COMPONENT_ORDER, format_pct

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"
PINNED = Path(__file__).resolve().with_name("reference.json")

FIG08_CSV = RESULTS / "fig08_tsp.csv"
FIG12_TXT = RESULTS / "fig12_water_kernel.txt"
FIG12_SECTION = "Figure 12 (loop-transformed)"


def load_fig08(path: Path = FIG08_CSV) -> dict[int, dict]:
    """Rows of a sweep CSV keyed by cluster size."""
    with path.open(newline="") as fh:
        return {int(row["cluster_size"]): row for row in csv.DictReader(fh)}


def load_fig12(path: Path = FIG12_TXT, section: str = FIG12_SECTION) -> dict:
    """One figure section of a rendered report.

    Returns ``{"points": {C: {"total_time": int, "shares": "U/L/B/M"}},
    "breakup": "32%", "potential": "132%"}`` as the report prints them.
    """
    text = path.read_text()
    start = text.index(section + ":")
    end = text.find("\nFigure ", start + 1)
    body = text[start: end if end >= 0 else len(text)]
    points: dict[int, dict] = {}
    for c, cycles in re.findall(r"^C=\s*(\d+) \|.*\|\s+([\d,]+) cycles$", body, re.M):
        points[int(c)] = {"total_time": int(cycles.replace(",", ""))}
    shares = re.search(r"^breakdown U/L/B/M per C: (.*)$", body, re.M).group(1)
    for c, share in re.findall(r"C(\d+):(\S+)", shares):
        points[int(c)]["shares"] = share
    metric = {
        name: re.search(rf"^\s*{name}\s+(\S+)", body, re.M).group(1)
        for name in ("breakup penalty", "multigrain potential")
    }
    return {
        "points": points,
        "breakup": metric["breakup penalty"],
        "potential": metric["multigrain potential"],
    }


def load_pinned(path: Path = PINNED) -> dict[str, dict[int, dict]]:
    data = json.loads(path.read_text())
    return {w: {int(c): s for c, s in pts.items()} for w, pts in data.items()}


def _shares(stats: dict) -> str:
    """Breakdown shares as the figure report renders them."""
    total = max(1, sum(stats[k] for k in COMPONENT_ORDER))
    return "/".join(format_pct(stats[k] / total) for k in COMPONENT_ORDER)


def _diff(prefix: str, want, got, out: list[str]) -> None:
    if isinstance(want, dict) and isinstance(got, dict):
        for key, value in want.items():
            if key not in got:
                out.append(f"{prefix}.{key}: missing (want {value!r})")
            else:
                _diff(f"{prefix}.{key}", value, got[key], out)
    elif want != got:
        out.append(f"{prefix}: got {got!r}, want {want!r}")


class Reference:
    """The references of every workload, loaded once per run."""

    def __init__(self) -> None:
        self.pinned = load_pinned()
        self.fig08 = load_fig08()
        self.fig12 = load_fig12()

    def _published(self, workload: str, c: int, stats: dict) -> dict:
        """Want/got pairs against the ``results/`` figure data."""
        if workload == "tsp-lock":
            row = self.fig08[c]
            return {
                "total_time": (int(row["total_time"]), stats["total_time"]),
                "user": (int(row["user"]), round(stats["user"])),
                "lock": (int(row["lock"]), round(stats["lock"])),
                "barrier": (int(row["barrier"]), round(stats["barrier"])),
                "mgs": (int(row["protocol_time"]), round(stats["mgs"])),
                "lock_hit_ratio": (
                    row["lock_hit_ratio"], f"{stats['lock_hit_ratio']:.4f}"
                ),
            }
        if workload == "fig12-sweep":
            want = self.fig12["points"][c]
            return {
                "total_time": (want["total_time"], stats["total_time"]),
                "shares": (want["shares"], _shares(stats)),
            }
        return {}

    def check(
        self, workload: str, points: dict[int, dict], figure: dict
    ) -> dict[int, list[str]]:
        """Mismatches per cluster size (an empty list means the point passed)."""
        expected = self.pinned[workload]
        out: dict[int, list[str]] = {}
        for c in sorted(expected):
            bad: list[str] = []
            stats = points.get(c)
            if stats is None:
                out[c] = [f"C={c}: no result"]
                continue
            _diff(f"C={c} {PINNED.name}", expected[c], stats, bad)
            for key, (want, got) in self._published(workload, c, stats).items():
                if want != got:
                    bad.append(f"C={c} results/ {key}: got {got!r}, want {want!r}")
            out[c] = bad
        for c in sorted(points.keys() - expected.keys()):
            out[c] = [f"C={c}: no reference for this point"]
        if workload == "fig12-sweep" and figure:
            sweep_bad = [
                f"results/ {name}: got {got}, want {self.fig12[name]}"
                for name in ("breakup", "potential")
                if (got := format_pct(figure[name])) != self.fig12[name]
            ]
            for bad in out.values():
                bad.extend(sweep_bad)
        return out
