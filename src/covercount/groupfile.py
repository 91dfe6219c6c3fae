"""Group definition files (JSON): disks plus either explicit matrices or a
per-generator twist from which the pairing map is synthesized."""

from __future__ import annotations

import cmath
import json
from importlib import resources
from pathlib import Path
from typing import Union

from .errors import ValidationError
from .hyperbolic import Model, MoebiusMap
from .schottky import Disk, SchottkyGroup

FIXTURES = {
    "toy2": "toy2.json",
    "b": "fuchsian_pair.json",
    "c": "fuchsian_triple.json",
    "d0": "loxodromic_pair_d0.json",
    "d1": "loxodromic_pair_d1.json",
}


def pairing_map(minus: Disk, plus: Disk, model: Model, twist: float = 0.0) -> MoebiusMap:
    """The Moebius map sending the exterior of `minus` onto the interior of
    `plus`: z -> c+ + r+ r- e^{i twist} / (z - c-).  In H2 the twist is pinned
    to pi (the unique half-plane-preserving choice, real trace)."""
    k = plus.radius * minus.radius * (-1.0 if model == Model.H2 else cmath.exp(1j * twist))
    a = plus.center
    b = k - plus.center * minus.center
    c = 1.0
    d = -minus.center
    if model == Model.H2:
        return MoebiusMap(a.real, b.real, c, d.real, model)
    return MoebiusMap(a, b, c, d, model)


def _parse_scalar(x) -> complex:
    if isinstance(x, (list, tuple)):
        return complex(x[0], x[1])
    return complex(x)


def group_from_dict(data: dict) -> SchottkyGroup:
    model = Model(data["model"])
    disks_minus, disks_plus, twists = [], [], []
    for entry in data["disks"]:
        disks_minus.append(Disk(_parse_scalar(entry["minus"]["center"]),
                                float(entry["minus"]["radius"])))
        disks_plus.append(Disk(_parse_scalar(entry["plus"]["center"]),
                               float(entry["plus"]["radius"])))
        twists.append(float(entry.get("twist", 0.0)))
    if "generators" in data and data["generators"] is not None:
        gens = []
        for rows in data["generators"]:
            a, b, c, d = (_parse_scalar(x) for x in rows)
            gens.append(MoebiusMap(a, b, c, d, model))
    else:
        gens = [pairing_map(m, p, model, t)
                for m, p, t in zip(disks_minus, disks_plus, twists)]
    hom = data.get("homology_matrix", [])
    return SchottkyGroup(gens, disks_minus, disks_plus, hom, model)


def _refuse_constant(name: str):  # strict JSON: json reads NaN and Infinity as numbers
    raise ValueError(f"{name} is not a JSON number")


def _read_source(source: Union[str, Path, dict]) -> dict:
    if isinstance(source, dict):
        return source
    text = str(source)
    if text.startswith("fixture:"):
        body = fixture_text(text.split(":", 1)[1])
    else:
        path = Path(text)
        if not path.is_file():
            raise FileNotFoundError(f"input file {path} does not exist or is not a file")
        body = path.read_bytes()
    try:
        data = json.loads(body, parse_constant=_refuse_constant)
    except ValueError as e:  # JSONDecodeError, or UnicodeDecodeError of the bytes
        raise ValidationError(f"input {text} is not JSON: {e}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"input {text} is a JSON {type(data).__name__}, not an object")
    return data


def _build(make, data: dict):
    """make(data), a missing or malformed field raised as ValidationError."""
    try:
        return make(data)
    except KeyError as e:
        raise ValidationError(f"input lacks field {e}") from None
    except (IndexError, TypeError, ValueError) as e:
        raise ValidationError(f"bad input field: {e}") from None


def load_group(source: Union[str, Path, dict]) -> SchottkyGroup:
    """Load from a dict, a JSON path, or a shipped reference ('fixture:b')."""
    data = _read_source(source)
    if "model" not in data:
        raise ValidationError("not a group file (no model tag)")
    return _build(group_from_dict, data)


def load_any(source: Union[str, Path, dict]):
    """Group or toy-shift input, distinguished by schema."""
    from .shift import toy_from_json
    data = _read_source(source)
    return _build(toy_from_json if "transition" in data else group_from_dict, data)


def fixture_text(name: str) -> str:
    if name not in FIXTURES:
        raise ValidationError(f"unknown fixture {name!r}; have {sorted(FIXTURES)}")
    return resources.files("covercount.fixtures").joinpath(FIXTURES[name]).read_text()
