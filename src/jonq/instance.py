"""Instance files: a flat sectioned text format over the polynomial grammar.

Lines are `key: value`; `#` starts a comment; blank lines are ignored.
Keys: ring (variable names, comma/space separated), cremona and
cremona_inverse (comma-separated coordinate forms), f, g, and
`option.*` entries (non-negative integers).  The inverse is written in
the automatic target variables y0..yn.  The degree relation
deg(g) = deg(cremona) + deg(f) is validated at load time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from jonq.birational import RationalMapData, verify_cremona
from jonq.errors import HypothesisViolation, ParseError, StructuralError
from jonq.implicitize import JonquieresData
from jonq.ring import Polynomial, VariableSet, parse_polynomial, poly_gcd

_KNOWN_OPTIONS = {"seed", "deg_bound", "max_pairs", "sat_cap"}


@dataclass
class InstanceFile:
    ring: VariableSet
    target: VariableSet
    cremona_coords: tuple
    inverse_coords: tuple
    f: Polynomial | None
    g: Polynomial | None
    options: dict = field(default_factory=dict)

    def forward_map(self):
        return RationalMapData(self.ring, self.target, self.cremona_coords)

    def inverse_map(self):
        return RationalMapData(self.target, self.ring, self.inverse_coords)

    def verified_cremona(self):
        return verify_cremona(self.forward_map(), self.inverse_map())

    def jonquieres(self):
        if self.f is None or self.g is None:
            raise HypothesisViolation(
                "this instance declares no (f, g) pair; nothing to implicitize"
            )
        return JonquieresData.build(self.verified_cremona(), self.f, self.g)


def _split_forms(value, ring, line):
    parts = [p.strip() for p in value.split(",")]
    if any(not p for p in parts):
        raise ParseError("empty coordinate in a form list", line, 1)
    return tuple(parse_polynomial(p, ring, line) for p in parts)


def parse_instance(text):
    """Parse instance text; raises ParseError with line/column positions."""
    raw = {}
    lines = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if ":" not in body:
            raise ParseError("expected 'key: value'", lineno, 1)
        key, value = body.split(":", 1)
        key = key.strip()
        value = value.strip()
        if key in raw:
            raise ParseError(f"duplicate key {key!r}", lineno, 1)
        if not value:
            raise ParseError(f"empty value for {key!r}", lineno, len(body))
        raw[key] = value
        lines[key] = lineno
    if "ring" not in raw:
        raise ParseError("missing 'ring' declaration", 1, 1)
    names = [n for chunk in raw["ring"].split(",") for n in chunk.split()]
    try:
        ring = VariableSet(names)
    except StructuralError as exc:
        raise ParseError(str(exc), lines["ring"], 1) from None
    target = VariableSet([f"y{i}" for i in range(len(ring))])
    if set(target.names) & set(ring.names):
        raise ParseError(
            "ring names clash with the reserved target names y0..yn",
            lines["ring"],
            1,
        )
    if "cremona" not in raw:
        raise ParseError("missing 'cremona' coordinates", 1, 1)
    if "cremona_inverse" not in raw:
        raise ParseError("missing 'cremona_inverse' coordinates", 1, 1)
    coords = _split_forms(raw["cremona"], ring, lines["cremona"])
    inverse = _split_forms(raw["cremona_inverse"], target, lines["cremona_inverse"])
    if len(coords) != len(ring):
        raise ParseError(
            f"a Cremona map of P^{len(ring)-1} needs {len(ring)} coordinates",
            lines["cremona"],
            1,
        )
    if len(inverse) != len(ring):
        raise ParseError(
            f"the inverse needs {len(ring)} coordinates",
            lines["cremona_inverse"],
            1,
        )
    f = g = None
    if "f" in raw:
        f = parse_polynomial(raw["f"], ring, lines["f"])
    if "g" in raw:
        g = parse_polynomial(raw["g"], ring, lines["g"])
    options = {}
    for key, value in raw.items():
        if key.startswith("option."):
            name = key[len("option.") :]
            if name not in _KNOWN_OPTIONS:
                raise ParseError(f"unknown option {name!r}", lines[key], 1)
            try:
                options[name] = int(value)
            except ValueError:
                raise ParseError(
                    f"option {name!r} needs an integer", lines[key], 1
                ) from None
            if options[name] < 0:
                raise ParseError(
                    f"option {name!r} must not be negative", lines[key], 1
                )
        elif key not in {"ring", "cremona", "cremona_inverse", "f", "g"}:
            raise ParseError(f"unknown key {key!r}", lines[key], 1)

    inst = InstanceFile(ring, target, coords, inverse, f, g, options)
    _validate(inst, lines)
    return inst


def _validate(inst, lines):
    for label, forms in (("cremona", inst.cremona_coords), ("cremona_inverse", inst.inverse_coords)):
        degs = set()
        for c in forms:
            if c.is_zero():
                continue
            if not c.is_homogeneous():
                raise ParseError(
                    f"{label} coordinate {c} is not homogeneous", lines[label], 1
                )
            degs.add(c.total_degree())
        if len(degs) != 1:
            raise ParseError(
                f"{label} coordinates have unequal degrees {sorted(degs)}",
                lines[label],
                1,
            )
    d = next(iter({c.total_degree() for c in inst.cremona_coords if not c.is_zero()}))
    if inst.f is not None:
        if inst.f.is_zero() or not inst.f.is_homogeneous():
            raise ParseError("f must be a nonzero homogeneous form", lines["f"], 1)
    if inst.g is not None:
        if inst.g.is_zero() or not inst.g.is_homogeneous():
            raise ParseError("g must be a nonzero homogeneous form", lines["g"], 1)
    if inst.f is not None and inst.g is not None:
        want = d + inst.f.total_degree()
        if inst.g.total_degree() != want:
            raise ParseError(
                "degree relation deg(g) = deg(cremona) + deg(f) fails: "
                f"{inst.g.total_degree()} != {d} + {inst.f.total_degree()}",
                lines["g"],
                1,
            )
        if not poly_gcd(inst.f, inst.g).is_constant():
            raise ParseError(
                "f and g are not relatively prime", lines["g"], 1
            )


def load_instance(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())
