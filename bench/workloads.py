"""The benchmark's workloads: fixed lists of `qks` command lines.

Each command has a short name (used in per-command metrics), its argument
vector, the catalog case whose expectations the correctness gate checks, and
whether it takes the run's seed.  Scan commands take `--samples`; the tiny
scale used by the smoke check only shrinks sample counts, windows and
degrees, never the list of commands or their names.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    name: str               # e.g. "scan-C3k2"
    argv: tuple             # qks arguments, without --seed and --format
    case: tuple | None      # (case_id, make_case keyword arguments) or None
    seeded: bool = False    # scans and freeness scans take --seed

    @property
    def kind(self) -> str:
        return self.argv[0]

    def full_argv(self, seed: int) -> list:
        out = list(self.argv)
        if self.seeded:
            out += ["--seed", str(seed)]
        return out + ["--format", "json"]


def _scan(kind: str, name: str, samples: int, case_id: str, **kwargs) -> Command:
    argv = [kind, "--case", case_id]
    for key in ("n", "k", "localization"):
        if key in kwargs:
            argv += [f"--{key}", str(kwargs[key])]
    argv += ["--samples", str(samples)]
    return Command(name, tuple(argv), (case_id, kwargs), seeded=True)


def _scan_small(tiny: bool) -> list:
    # Azumaya scans at fiber dimension <= 40 (full associativity check), plus
    # the criterion-5 negative controls.  Controls need >= 3 samples: every
    # third point is drawn on the stabilized locus.
    s = 1 if tiny else 3
    c = 3
    return [
        _scan("scan", "scan-C2k2", s, "i", n=2, k=2),
        _scan("scan", "scan-C3k2", s, "i", n=3, k=2),
        _scan("scan", "scan-C2k4", s, "i", n=2, k=4),
        _scan("scan", "scan-S2full", s, "ii", localization="full"),
        _scan("scan", "scan-D2torus", s, "iii", n=2, localization="torus"),
        _scan("scan", "scan-0none", c, "0", localization="none"),
        _scan("freeness", "freeness-0none", c, "0", localization="none"),
        _scan("scan", "scan-S2torus", c, "ii", localization="torus"),
        _scan("freeness", "freeness-S2torus", c, "ii", localization="torus"),
    ]


def _scan_large(tiny: bool) -> list:
    # fibers above dimension 40: sampled associativity, large structure tables
    s = 1 if tiny else 2
    return [
        _scan("scan", "scan-D3full", s, "iii", n=3, localization="full"),
        _scan("scan", "scan-D3torus", 3, "iii", n=3, localization="torus"),
        _scan("scan", "scan-C5k2", s, "i", n=5, k=2),
    ]


def _graded(tiny: bool) -> list:
    # no fibers: rational linear algebra, windowed centers and series
    deg, guard = (2, 4) if tiny else (4, 6)
    window = 8 if tiny else 12
    return [
        Command("auslander-ii", ("auslander", "--case", "ii", "--localization", "none",
                                 "--degree", str(deg), "--guard", str(guard)),
                ("ii", {"localization": "none"})),
        Command("auslander-iv", ("auslander", "--case", "iv",
                                 "--degree", str(deg), "--guard", str(guard)),
                ("iv", {})),
        Command("center-D3none", ("center", "--case", "iii", "--n", "3",
                                  "--localization", "none", "--degree", str(window)),
                ("iii", {"n": 3, "localization": "none"})),
        Command("center-D3full", ("center", "--case", "iii", "--n", "3",
                                  "--localization", "full")
                + (("--degree", "6") if tiny else ()),
                ("iii", {"n": 3, "localization": "full"})),
        Command("center-C3k2", ("center", "--case", "i", "--n", "3", "--k", "2")
                + (("--degree", "6") if tiny else ()),
                ("i", {"n": 3, "k": 2})),
        Command("invariants-ii", ("invariants", "--case", "ii", "--localization", "none")
                + (("--degree", "4") if tiny else ()),
                ("ii", {"localization": "none"})),
        Command("molien-D3", ("molien", "--case", "iii", "--m", "3",
                              "--degree", "6" if tiny else "12"),
                None),
    ]


WORKLOADS = {
    "scan-small": _scan_small,
    "scan-large": _scan_large,
    "graded": _graded,
}


def commands(workload: str, tiny: bool = False) -> list:
    return WORKLOADS[workload](tiny)


def all_command_names() -> list:
    """Every command name of every workload, in a fixed order."""
    return [c.name for w in WORKLOADS for c in commands(w)]


def cases(workload: str, tiny: bool = False) -> list:
    """Distinct (case_id, kwargs) pairs the workload constructs, in order."""
    out = []
    for cmd in commands(workload, tiny):
        if cmd.case is not None and cmd.case not in out:
            out.append(cmd.case)
    return out
