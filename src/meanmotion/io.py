"""Polynomial file format: JSON with exact "num/den" exponent strings."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .core import ExpPolynomial, ExpTerm
from .errors import DegenerateInputError, DimensionError, PolynomialLoadError


def parse_polynomial(obj: dict) -> ExpPolynomial:
    """Build an ExpPolynomial from its JSON dict form. The JSON shape is
    checked here; ExpTerm and ExpPolynomial check the terms' values."""
    try:
        dimension, raw_terms = obj["dimension"], obj["terms"]
    except (KeyError, TypeError) as e:
        raise PolynomialLoadError(f"malformed polynomial object: {e}") from e
    if type(dimension) is not int or dimension < 1:
        raise PolynomialLoadError("dimension must be a positive integer")
    if not isinstance(raw_terms, list):
        raise PolynomialLoadError("terms must be a list")
    terms = []
    for k, t in enumerate(raw_terms):
        try:
            parts = (t["re"], t["im"])
            if any(type(x) not in (int, float) for x in parts):  # no bool, no str
                raise TypeError("re and im must be JSON numbers")
            if not isinstance(t["exponent"], list):
                raise TypeError("exponent must be a list")
            comps = tuple(Fraction(str(c)) for c in t["exponent"])
            terms.append(ExpTerm(complex(*map(float, parts)), comps))
        except ZeroDivisionError as e:
            raise PolynomialLoadError(f"term {k}: zero denominator in {t['exponent']}") from e
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise PolynomialLoadError(f"term {k}: invalid ({e})") from e
    try:
        return ExpPolynomial(dimension, tuple(terms))
    except (DimensionError, DegenerateInputError) as e:
        raise PolynomialLoadError(str(e)) from e


def parse_polynomial_file(path) -> ExpPolynomial:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise PolynomialLoadError(f"cannot read {path}: {e}") from e
    except (ValueError, RecursionError) as e:  # not UTF-8, not JSON, or nested too deep
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
