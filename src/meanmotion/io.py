"""Polynomial file format: JSON with exact "num/den" exponent strings."""

from __future__ import annotations

import cmath
import json
from fractions import Fraction
from pathlib import Path

from .core import ExpPolynomial, ExpTerm, FrequencyVector
from .errors import DegenerateInputError, DimensionError, PolynomialLoadError


def parse_polynomial(obj: dict) -> ExpPolynomial:
    """Validate and build an ExpPolynomial from its JSON dict form."""
    try:
        dimension, raw_terms = obj["dimension"], obj["terms"]
    except (KeyError, TypeError) as e:
        raise PolynomialLoadError(f"malformed polynomial object: {e}") from e
    if type(dimension) is not int or dimension < 1:
        raise PolynomialLoadError("dimension must be a positive integer")
    if not isinstance(raw_terms, list):
        raise PolynomialLoadError("terms must be a list")
    terms = []
    seen: dict[tuple, int] = {}
    for k, t in enumerate(raw_terms):
        try:
            parts = (t["re"], t["im"])
            if any(type(x) not in (int, float) for x in parts):  # no bool, no str
                raise TypeError("re and im must be JSON numbers")
            coeff = complex(*map(float, parts))
            if not isinstance(t["exponent"], list):
                raise TypeError("exponent must be a list")
            comps = tuple(Fraction(str(c)) for c in t["exponent"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
            raise PolynomialLoadError(f"term {k}: malformed ({e})") from e
        if len(comps) != dimension:
            raise PolynomialLoadError(
                f"term {k}: exponent has length {len(comps)}, "
                f"expected {dimension}"
            )
        if coeff == 0:
            raise PolynomialLoadError(f"term {k}: zero coefficient")
        if not cmath.isfinite(coeff):
            raise PolynomialLoadError(f"term {k}: non-finite coefficient")
        if comps in seen:
            raise PolynomialLoadError(
                f"terms {seen[comps]} and {k} share exponent "
                f"{[str(c) for c in comps]}"
            )
        seen[comps] = k
        terms.append(ExpTerm(coeff, FrequencyVector(comps)))
    try:
        return ExpPolynomial(dimension, tuple(terms))
    except (DimensionError, DegenerateInputError) as e:
        raise PolynomialLoadError(str(e)) from e


def parse_polynomial_file(path) -> ExpPolynomial:
    try:
        obj = json.loads(Path(path).read_text())
    except OSError as e:
        raise PolynomialLoadError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise PolynomialLoadError(f"{path} is not valid JSON: {e}") from e
    return parse_polynomial(obj)


def polynomial_to_dict(P: ExpPolynomial) -> dict:
    return {
        "dimension": P.dimension,
        "terms": [
            {
                "re": t.coefficient.real,
                "im": t.coefficient.imag,
                "exponent": [str(c) for c in t.exponent],
            }
            for t in P.terms
        ],
    }


def write_polynomial_file(P: ExpPolynomial, path) -> None:
    Path(path).write_text(json.dumps(polynomial_to_dict(P), indent=2) + "\n")
