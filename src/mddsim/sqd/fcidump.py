"""Plain-text electron-integral files: a `&FCI` namelist header followed by
`value i j k l` records with 1-based indices.

Record conventions (the de-facto standard):

    value i j k l   two-electron integral (ij|kl), chemists' notation
    value i j 0 0   one-electron integral h_ij
    value i 0 0 0   orbital energy (range-checked, then dropped: nothing reads it)
    value 0 0 0 0   core energy

Two-electron values are completed to the full 8-fold permutational symmetry
on read; conflicting duplicates beyond 1e-12 are rejected.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

SYM_TOL = 1e-12
# the two-electron table holds NORB^4 float64 values: 32 orbitals take 8 MiB
MAX_NORB = 32

_EIGHTFOLD = (
    (0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
    (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0),
)


class ParseError(ValueError):
    """Malformed integral file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True)
class FciData:
    """Parsed one- and two-electron integrals (Hartree) for ``norb`` spatial
    orbitals, ``nelec`` electrons with spin projection ``ms2`` = 2 Sz."""

    norb: int
    nelec: int
    ms2: int
    h: np.ndarray
    eri: np.ndarray
    core_energy: float

    def __post_init__(self) -> None:
        h = np.asarray(self.h, dtype=float)
        eri = np.asarray(self.eri, dtype=float)
        if h.shape != (self.norb, self.norb):
            raise ValueError(f"one-electron table shape {h.shape} does not match norb={self.norb}")
        if eri.shape != (self.norb,) * 4:
            raise ValueError(f"two-electron table shape {eri.shape} does not match norb={self.norb}")
        if np.max(np.abs(h - h.T)) > SYM_TOL:
            raise ValueError("one-electron integrals are not symmetric")
        for perm in _EIGHTFOLD[1:]:
            if np.max(np.abs(eri - eri.transpose(perm))) > SYM_TOL:
                raise ValueError("two-electron integrals violate 8-fold symmetry")
        if (self.nelec + self.ms2) % 2 != 0 or abs(self.ms2) > self.nelec:
            raise ValueError(f"inconsistent NELEC={self.nelec}, MS2={self.ms2}")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "eri", eri)

    @property
    def n_alpha(self) -> int:
        return (self.nelec + self.ms2) // 2

    @property
    def n_beta(self) -> int:
        return (self.nelec - self.ms2) // 2

    @property
    def num_spin_orbitals(self) -> int:
        return 2 * self.norb


def _set_with_conflict_check(table: np.ndarray, idx: tuple, value: float, line: int) -> None:
    current = table[idx]
    if not np.isnan(current) and abs(current - value) > SYM_TOL:
        raise ParseError(
            f"integral {idx} already set to {current!r}, conflicting value {value!r}", line)
    table[idx] = value


def parse_fcidump(text: str) -> FciData:
    """Parse integral-file text into an :class:`FciData`."""
    lines = text.splitlines()
    header_parts: list[str] = []
    body_start = None
    for i, line in enumerate(lines):
        stripped = line.strip()
        if i == 0 and not stripped.upper().startswith("&FCI"):
            raise ParseError("file must start with an &FCI header", 1)
        header_parts.append(stripped)
        if "&END" in stripped.upper() or stripped.endswith("/"):
            body_start = i + 1
            break
    if body_start is None:
        raise ParseError("header is never terminated by &END or /")
    header = "\n".join(header_parts)

    def header_int(key: str, default: int | None = None) -> tuple[int, int | None]:
        """The key's value and the line it is on."""
        m = re.search(rf"{key}\s*=\s*(-?\d+)", header, re.IGNORECASE)
        if m is None:
            if default is None:
                raise ParseError(f"header is missing {key}")
            return default, None
        line = header.count("\n", 0, m.start()) + 1
        if len(m.group(1).lstrip("-")) > 9:
            raise ParseError(f"{key} has more than 9 digits", line)
        return int(m.group(1)), line

    norb, norb_line = header_int("NORB")
    nelec, nelec_line = header_int("NELEC")
    ms2, _ = header_int("MS2", default=0)
    if not 1 <= norb <= MAX_NORB:
        raise ParseError(f"NORB must lie in 1..{MAX_NORB}, got {norb}", norb_line)
    if (nelec + ms2) % 2 != 0 or abs(ms2) > nelec:
        raise ParseError(f"inconsistent NELEC={nelec}, MS2={ms2}", nelec_line)

    h = np.full((norb, norb), np.nan)
    eri = np.full((norb,) * 4, np.nan)
    core = 0.0

    for lineno, raw in enumerate(lines[body_start:], start=body_start + 1):
        stripped = raw.strip()
        if not stripped:
            continue
        tokens = stripped.split()
        if len(tokens) != 5:
            raise ParseError(f"expected 'value i j k l', got {stripped!r}", lineno)
        try:
            value = float(tokens[0].replace("D", "E").replace("d", "e"))
            i, j, k, l = (int(tok) for tok in tokens[1:])
        except ValueError:
            raise ParseError(f"non-numeric record {stripped!r}", lineno) from None
        if not math.isfinite(value):
            raise ParseError(f"non-finite value in record {stripped!r}", lineno)
        for idx in (i, j, k, l):
            if idx < 0 or idx > norb:
                raise ParseError(f"orbital index {idx} out of range 1..{norb}", lineno)
        if i == j == k == l == 0:
            core = value
        elif i and j and k and l:
            for perm in _EIGHTFOLD:
                _set_with_conflict_check(eri, tuple((i, j, k, l)[p] - 1 for p in perm), value, lineno)
        elif i and j and k == 0 and l == 0:
            _set_with_conflict_check(h, (i - 1, j - 1), value, lineno)
            _set_with_conflict_check(h, (j - 1, i - 1), value, lineno)
        elif i and j == 0 and k == 0 and l == 0:
            pass  # an orbital energy: range-checked above, not kept
        else:
            raise ParseError(f"unrecognized index pattern {(i, j, k, l)}", lineno)

    return FciData(norb=norb, nelec=nelec, ms2=ms2,
                   h=np.nan_to_num(h, nan=0.0), eri=np.nan_to_num(eri, nan=0.0),
                   core_energy=core)


def _pair_index(i: int, j: int) -> int:
    a, b = max(i, j), min(i, j)
    return a * (a + 1) // 2 + b


def write_fcidump(fci: FciData) -> str:
    """Emit canonical records; parse(write(x)) reproduces x exactly."""
    out = [f"&FCI NORB={fci.norb},NELEC={fci.nelec},MS2={fci.ms2},"]
    out.append(" ORBSYM=" + "1," * fci.norb)
    out.append(" ISYM=1,")
    out.append("&END")

    def record(value: float, i: int, j: int, k: int, l: int) -> str:
        return f" {value: .16E} {i:4d} {j:4d} {k:4d} {l:4d}"

    n = fci.norb
    for i in range(n):
        for j in range(i + 1):
            for k in range(n):
                for l in range(k + 1):
                    if _pair_index(i, j) < _pair_index(k, l):
                        continue
                    value = fci.eri[i, j, k, l]
                    if value != 0.0:
                        out.append(record(value, i + 1, j + 1, k + 1, l + 1))
    for i in range(n):
        for j in range(i + 1):
            if fci.h[i, j] != 0.0:
                out.append(record(fci.h[i, j], i + 1, j + 1, 0, 0))
    out.append(record(fci.core_energy, 0, 0, 0, 0))
    return "\n".join(out) + "\n"
