"""Synthetic instance generation and the on-disk ``.mcp`` text format.

Geometry follows the classic planar recipe: demand zones, candidate
locations, and incumbent competitor facilities are drawn uniformly on a
square, utilities decay linearly in Euclidean distance (``v = -beta * c``
for candidates, ``v = -beta * alpha * c`` for competitors), and each zone's
attraction vector is divided by its competitor aggregate so the outside
option carries total attraction 1.  Mixed-logit instances add zone- and
location-specific taste noise and are expanded into plain multinomial
instances with one zone per (zone, draw) pair.

Randomness is reproducible by construction: streams are PCG64 generators
seeded with ``SeedSequence([seed, stream_id])`` (0 = zone coordinates,
1 = candidate coordinates, 2 = competitor coordinates, 3 = taste noise),
and normal variates come from a fixed Box-Muller transform of uniforms
rather than the library's rejection sampler.
"""

from __future__ import annotations

import re
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .choice_models import ChoiceModel, MultinomialLogit, NestedLogit
from .objective import Instance, _integer, _positive_real

__all__ = [
    "GeneratorParams",
    "MmnlParams",
    "FormatError",
    "generate_euclidean",
    "mmnl_expand",
    "assign_nests",
    "write_instance",
    "read_instance",
]

# deterministic utilities beyond this magnitude are clamped to keep exp() sane
UTILITY_CLAMP = 50.0


class FormatError(ValueError):
    """Raised when an ``.mcp`` file cannot be parsed."""


@dataclass(frozen=True)
class GeneratorParams:
    """Planar generator settings.

    ``alpha`` scales how strongly competitor utilities decay with distance
    (their utility is ``-beta * alpha * c``); ``beta`` is the customers'
    distance sensitivity.  ``plane_side`` is the side of the square the
    points are drawn from.  On the default plane, clamping is the norm above
    beta 1: a 50 x 25 instance at seed 0 clamps 215 of its 1250 location
    utilities at beta 2, 984 at beta 5 and 1167 at beta 10.  The utility
    floor of -50 keeps every attraction nonzero, so every location
    attracts every zone a little.  Demand weights are uniform (q = 1).
    """

    zones: int
    locations: int
    competitors: int = 5
    alpha: float = 0.1
    beta: float = 1.0
    plane_side: float = 30.0
    seed: int = 0

    def __post_init__(self):
        for name in ("zones", "locations", "competitors"):
            _integer(getattr(self, name), name, low=1)
        _integer(self.seed, "seed", low=0)
        for name in ("alpha", "beta", "plane_side"):
            _positive_real(getattr(self, name), name)


@dataclass(frozen=True)
class MmnlParams:
    """Mixed-logit expansion settings: taste sensitivity theta and K draws."""

    theta: float
    samples: int
    seed: int = 0

    def __post_init__(self):
        _positive_real(self.theta, "theta")
        _integer(self.samples, "sample count", low=1)
        _integer(self.seed, "seed", low=0)


def _stream(seed: int, stream_id: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream_id])


def _standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    # Box-Muller on (0, 1] uniforms; fixed transform so draws are portable
    u1 = 1.0 - rng.random(shape)
    u2 = rng.random(shape)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def _outside_stacklevel() -> int:
    """``stacklevel`` that points our caller's warning at the first frame outside this module."""
    frame, level = sys._getframe(2), 2
    while frame.f_back is not None and frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    return level


def _exp_utility(v: np.ndarray, label: str) -> np.ndarray:
    clipped = int((np.abs(v) > UTILITY_CLAMP).sum())
    if clipped:
        warnings.warn(
            f"clamped {clipped} {label} utilities to |v| <= {UTILITY_CLAMP:g}",
            RuntimeWarning,
            stacklevel=_outside_stacklevel(),
        )
        v = np.clip(v, -UTILITY_CLAMP, UTILITY_CLAMP)
    return np.exp(v)


def _geometry(p: GeneratorParams):
    """Zone-to-candidate and zone-to-competitor distance matrices."""
    zone_xy = _stream(p.seed, 0).uniform(0.0, p.plane_side, (p.zones, 2))
    cand_xy = _stream(p.seed, 1).uniform(0.0, p.plane_side, (p.locations, 2))
    comp_xy = _stream(p.seed, 2).uniform(0.0, p.plane_side, (p.competitors, 2))
    c_cand = np.sqrt(((zone_xy[:, None, :] - cand_xy[None, :, :]) ** 2).sum(axis=2))
    c_comp = np.sqrt(((zone_xy[:, None, :] - comp_xy[None, :, :]) ** 2).sum(axis=2))
    return c_cand, c_comp


def _competitor_aggregate(c_comp: np.ndarray, beta: float, alpha: float) -> np.ndarray:
    return _exp_utility(-beta * alpha * c_comp, "competitor").sum(axis=1)


def generate_euclidean(p: GeneratorParams, model: ChoiceModel) -> Instance:
    """Planar instance with competitor-normalized attractions, q = 1 per zone."""
    c_cand, c_comp = _geometry(p)
    u = _competitor_aggregate(c_comp, p.beta, p.alpha)
    y = _exp_utility(-p.beta * c_cand, "location") / u[:, None]
    return Instance.from_arrays(np.ones(p.zones), y, model)


def _mmnl_with_noise(p: GeneratorParams, theta: float, tau: np.ndarray) -> Instance:
    c_cand, c_comp = _geometry(p)
    u = _competitor_aggregate(c_comp, theta, p.alpha)
    k = tau.shape[1]
    c = c_cand[:, None, :]  # (zones, 1, m) against tau's (zones, K, m)
    y = _exp_utility(-theta * c + c * tau / 3.0, "location") / u[:, None, None]
    return Instance.from_arrays(np.full(p.zones * k, 1.0 / k), y.reshape(-1, p.locations),
                                MultinomialLogit())


def mmnl_expand(p: GeneratorParams, mp: MmnlParams) -> Instance:
    """Mixed-logit instance expanded to K * zones multinomial zones.

    Utilities are ``-theta * c + c * tau / 3`` with tau standard normal per
    (zone, draw, location); competitor utilities stay deterministic at
    ``-theta * alpha * c``.  ``mp.theta`` plays the distance-sensitivity
    role throughout (``p.beta`` is not used here), so with K = 1 and tau
    forced to zero the result collapses to ``generate_euclidean`` with
    beta = theta.  Zones are ordered draw-within-zone: expanded zone index
    ``i * K + k`` carries weight ``1 / K``.
    """
    tau = _standard_normal(_stream(mp.seed, 3), (p.zones, mp.samples, p.locations))
    return _mmnl_with_noise(p, mp.theta, tau)


def assign_nests(m: int, n_nests: int, mu) -> NestedLogit:
    """Partition locations into contiguous near-equal nests.

    Earlier nests take the larger blocks when m is not divisible: m = 59
    with five nests yields sizes 12, 12, 12, 12, 11.
    """
    mu = np.asarray(mu, dtype=float)
    if not 1 <= _integer(n_nests, "nest count") <= m:
        raise ValueError(f"need 1 <= nests <= m, got {n_nests} nests for m={m}")
    if mu.shape != (n_nests,):
        raise ValueError(f"expected {n_nests} dissimilarity parameters, got {mu.shape}")
    base, extra = divmod(m, n_nests)
    sizes = [base + 1 if l < extra else base for l in range(n_nests)]
    nest_of = np.repeat(np.arange(n_nests), sizes)
    return NestedLogit(nest_of, mu)


# -- the .mcp text format ------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_instance(inst: Instance, path) -> None:
    """Serialize to format version 2: decimal header floats, a bit-exact hex Y block.

    ``mu`` and ``q`` keep 17 significant digits, which round-trip exactly.
    Each Y value is its big-endian IEEE-754 binary64 bit pattern in 16
    lowercase hex digits, the text of ``struct.pack(">d", x).hex()``, so Y
    round-trips bit for bit with no decimal conversion either way.
    """
    model = inst.model
    lines = ["MCP 2"]
    if isinstance(model, NestedLogit):
        lines.append(f"model nested {model.n_nests}")
        lines.append("mu " + " ".join(_fmt(v) for v in model.mu))
        lines.append("nest " + " ".join(str(int(l) + 1) for l in model.nest_of))
    elif isinstance(model, MultinomialLogit):
        lines.append("model mnl")
    else:
        raise ValueError(f"unsupported model {model!r}")
    lines.append(f"m {inst.m}")
    lines.append(f"zones {inst.n_zones}")
    lines.append("q " + " ".join(_fmt(v) for v in inst.q))
    lines.append("Y")
    # rows are converted one at a time, so no big-endian copy of the matrix exists
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
        fh.writelines(row.astype(">f8").tobytes().hex(" ", 8) + "\n" for row in inst.Y)


def _is_content(line: str) -> bool:
    return bool(line.strip()) and not line.lstrip().startswith("#")


class _Reader:
    """Line cursor over an .mcp file's text; skips comments, reports 1-based line numbers.

    Lines are cut from the text one at a time as they are read, so a Y block
    decoded whole is never split into lines.
    """

    def __init__(self, path):
        with open(path, "r", encoding="utf-8") as fh:
            self.text = fh.read()
        self.offset = 0  # where the next line starts
        self.lineno = 0  # the number of the last line read
        self.path = str(path)

    def next_line(self, section: str):
        """The next line that is neither blank nor a comment, and its number."""
        text = self.text
        while self.offset < len(text):
            end = text.find("\n", self.offset)
            end = len(text) if end < 0 else end
            line, self.offset = text[self.offset:end], end + 1
            self.lineno += 1
            if _is_content(line):
                return self.lineno, line
        self.fail(self.lineno + 1, f"unexpected end of file, missing section '{section}'")

    def expect_end(self, message: str):
        """Fail at the first line left that is neither blank nor a comment."""
        for n, line in enumerate(self.text[self.offset:].split("\n"), self.lineno + 1):
            if _is_content(line):
                self.fail(n, message)

    def fail(self, lineno: int, message: str):
        raise FormatError(f"{self.path}:{lineno}: {message}")


def _section(reader, name, n_values=None):
    """The next line and its values; it must be tagged ``name`` and hold ``n_values`` values if given."""
    n, line = reader.next_line(name)
    tokens = line.split()
    if not tokens or tokens[0] != name or n_values not in (None, len(tokens) - 1):
        reader.fail(n, f"expected section '{name}'")
    return n, tokens[1:]


def _parse_floats(reader, lineno, tokens, expected, what):
    """One line of plain decimal numbers, read with the Y block's converter."""
    if len(tokens) != expected:
        reader.fail(lineno, f"expected {expected} values for {what}, found {len(tokens)}")
    try:
        return np.loadtxt([" ".join(tokens)], dtype=float, comments=None, ndmin=1)
    except ValueError:
        reader.fail(lineno, f"non-numeric value in {what}")


def _parse_count(reader, lineno, token, what):
    """A positive decimal integer; ``isdecimal`` rejects signs, separators and superscripts."""
    if not token.isdecimal() or int(token) < 1:
        reader.fail(lineno, f"invalid {what} '{token}'")
    return int(token)


def _parse_matrix(reader, n_zones, m):
    """Version 1: decimal Y rows converted in one call, and their line numbers.

    A rejected block is walked for its error.
    """
    rows = [reader.next_line(f"Y row {i + 1}") for i in range(n_zones)]
    try:
        Y = np.loadtxt([line for _, line in rows], dtype=float, comments=None, ndmin=2)
    except ValueError:
        Y = None
    if Y is not None and Y.shape == (n_zones, m):
        return Y, [n for n, _ in rows]
    # only explains a rejected block: the first bad row raises with its line number
    for i, (n, line) in enumerate(rows):
        _parse_floats(reader, n, line.split(), m, f"Y row {i + 1} of the Y block")
    raise FormatError(
        f"{reader.path}: Y block is not {n_zones} rows of {m} plain decimal numbers"
    )


_HEX16 = re.compile(r"[0-9a-fA-F]{16}")


def _hex_values(raw: bytes, n_zones: int, m: int) -> np.ndarray:
    return np.frombuffer(raw, ">f8").astype(float).reshape(n_zones, m)


def _parse_hex_matrix(reader, n_zones, m):
    """Version 2: hex Y rows decoded in one call, and their line numbers.

    The writer's block is ``n_zones * m`` fields of 17 characters: 16 hex
    digits, then a space, or a newline after a row's last value.  The text
    at the cursor is taken whole when every 17th character is that
    separator and ``bytes.fromhex`` turns it into ``8 * n_zones * m``
    bytes; ``fromhex`` skips whitespace, so a field holding any would come
    out short.  Any other block (comments between rows, stray spaces, bad
    digits) is walked row by row: the first bad row raises with its line
    number, and valid rows are decoded together.
    """
    cells = n_zones * m
    block = reader.text[reader.offset:reader.offset + 17 * cells]
    try:
        # a short block is walked, so the separator pattern is built only at full length
        whole = len(block) == 17 * cells and block[16::17] == (" " * (m - 1) + "\n") * n_zones
        raw = bytes.fromhex(block) if whole else b""
    except ValueError:
        raw = b""
    del block  # the text copy goes before the arrays are made
    if len(raw) == 8 * cells:
        first = reader.lineno + 1
        reader.offset += 17 * cells
        reader.lineno += n_zones
        return _hex_values(raw, n_zones, m), range(first, first + n_zones)
    rows = []
    for i in range(n_zones):
        what = f"Y row {i + 1}"
        n, line = reader.next_line(what)
        tokens = line.split()
        if len(tokens) != m:
            reader.fail(n, f"expected {m} values for {what} of the Y block, found {len(tokens)}")
        bad = next((t for t in tokens if not _HEX16.fullmatch(t)), None)
        if bad is not None:
            reader.fail(n, f"value '{bad}' in {what} is not 16 hex digits")
        if line != " ".join(tokens):
            reader.fail(n, f"values in {what} must be separated by single spaces")
        rows.append((n, line))
    raw = bytes.fromhex(" ".join(line for _, line in rows))
    return _hex_values(raw, n_zones, m), [n for n, _ in rows]


_Y_DECODERS = {"1": _parse_matrix, "2": _parse_hex_matrix}


def read_instance(path) -> Instance:
    """Parse an ``.mcp`` file of version 1 or 2; malformed input raises :class:`FormatError`."""
    reader = _Reader(path)

    n, line = reader.next_line("header")
    tokens = line.split()
    if len(tokens) != 2 or tokens[0] != "MCP":
        reader.fail(n, "expected header 'MCP <version>'")
    if tokens[1] not in _Y_DECODERS:
        reader.fail(n, f"unsupported format version '{tokens[1]}'")
    parse_y = _Y_DECODERS[tokens[1]]

    n, values = _section(reader, "model")
    tag = values[0] if values else ""
    mu = nest = None
    if tag == "mnl":
        if len(values) != 1:
            reader.fail(n, "expected 'model mnl'")
    elif tag == "nested":
        if len(values) != 2:
            reader.fail(n, "expected 'model nested <L>'")
        n_nests = _parse_count(reader, n, values[1], "nest count")
        n, values = _section(reader, "mu")
        mu = _parse_floats(reader, n, values, n_nests, "mu")
        n, values = _section(reader, "nest")
        nest = np.array([_parse_count(reader, n, t, "nest index") for t in values])
        over = nest[nest > n_nests]
        if over.size:
            reader.fail(n, f"nest index {over[0]} exceeds the nest count {n_nests}")
        nest -= 1
    else:
        reader.fail(n, f"unsupported model '{tag}'")

    n, values = _section(reader, "m", 1)
    m = _parse_count(reader, n, values[0], "location count")
    n, values = _section(reader, "zones", 1)
    n_zones = _parse_count(reader, n, values[0], "zone count")
    n, values = _section(reader, "q")
    q = _parse_floats(reader, n, values, n_zones, "q")
    _section(reader, "Y", 0)
    Y, row_lines = parse_y(reader, n_zones, m)
    reader.expect_end(f"unexpected text after the last of {n_zones} Y rows")

    if nest is not None and nest.size != m:
        raise FormatError(f"{reader.path}: nest assignment has {nest.size} entries, expected {m}")
    try:
        model = NestedLogit(nest, mu) if nest is not None else MultinomialLogit()
        return Instance.from_arrays(q, Y, model)
    except ValueError as exc:
        bad = np.flatnonzero(~np.isfinite(Y).all(axis=1) | (Y < 0.0).any(axis=1))
        if bad.size:
            i = int(bad[0])
            reader.fail(row_lines[i], f"Y row {i + 1}: attraction entries must be finite and non-negative")
        raise FormatError(f"{reader.path}: {exc}") from exc
