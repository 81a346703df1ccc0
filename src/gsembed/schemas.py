"""JSON schemas for the command-line output and the bundled case corpus.

Kept deliberately permissive: required keys and coarse types only, so that
adding evidence fields never breaks downstream consumers.
"""

NUMBER_OR_STRING = {"type": ["number", "string"]}

VERDICT_SCHEMA = {
    "type": "object",
    "required": ["status", "tag", "target", "evidence"],
    "properties": {
        "status": {"enum": ["holds", "fails", "inconclusive"]},
        "tag": {"type": "string"},
        "target": {"type": ["string", "null"]},
        "criterion": {"type": ["string", "null"]},
        "evidence": {"type": "object"},
    },
}

RATE_SCHEMA = {
    "type": "object",
    "required": ["kind", "tag"],
    "properties": {
        "kind": {"type": "string"},
        "k_exponent": {"type": ["string", "null"]},
        "log_exponent": {"type": ["string", "null"]},
        "residual": {"type": ["string", "null"]},
        "notes": {"type": "array", "items": {"type": "string"}},
        "tag": {"type": "string"},
    },
}

PROFILE_SCHEMA = {
    "type": "object",
    "required": ["expr", "classified", "canonical"],
    "properties": {
        "expr": {"type": "string"},
        "classified": {"type": "boolean"},
        "canonical": {"type": "boolean"},
        "rate": {"type": ["string", "null"]},
        "log_exponent": {"type": ["string", "null"]},
        "sv_factor": {"type": ["string", "null"]},
    },
}

BOYD_SCHEMA = {
    "type": "object",
    "required": ["exact", "lower_bracket", "upper_bracket"],
    "properties": {
        "exact": {"type": "boolean"},
        "lower": {"type": ["string", "null"]},
        "upper": {"type": ["string", "null"]},
        "lower_bracket": {"type": ["array", "null"], "items": {"type": "number"}},
        "upper_bracket": {"type": ["array", "null"], "items": {"type": "number"}},
        "depth": {"type": ["integer", "null"]},
    },
}

ADMISSIBLE_SCHEMA = {
    "type": "object",
    "required": ["log2_d0", "log2_d1", "window"],
    "properties": {
        "log2_d0": NUMBER_OR_STRING,
        "log2_d1": NUMBER_OR_STRING,
        "window": {"type": "integer"},
        "strongly_increasing": {"type": "boolean"},
    },
}

EVAL_SCHEMA = {
    "type": "object",
    "required": ["values"],
    "properties": {
        "values": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["j", "log2"],
                "properties": {
                    "j": {"type": "integer"},
                    "value": {"type": ["number", "null"]},
                    "log2": NUMBER_OR_STRING,
                },
            },
        },
    },
}

STANDARDIZE_SCHEMA = {
    "type": "object",
    "required": ["result"],
    "properties": {
        "result": {"type": "string"},
        "kappa0": {"type": "integer"},
    },
}

LAB_NORM_SCHEMA = {
    "type": "object",
    "required": ["closed", "search", "attained_by"],
    "properties": {
        "closed": {"type": "number"},
        "search": {"type": "number"},
        "attained_by": {"type": "string"},
        "section": {"type": "object"},
    },
}

LAB_NUCLEAR_SCHEMA = {
    "type": "object",
    "required": ["exact"],
    "properties": {
        "exact": {"type": "number"},
        "oracle": {"type": "object"},
        "section": {"type": "object"},
    },
}

LAB_ENTROPY_SCHEMA = {
    "type": "object",
    "required": ["bounds"],
    "properties": {
        "bounds": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["k", "upper", "lower"],
                "properties": {
                    "k": {"type": "integer"},
                    "upper": {"type": "number"},
                    "lower": {"type": "number"},
                },
            },
        },
        "norm": {"type": "number"},
    },
}

RATEFIT_SCHEMA = {
    "type": "object",
    "required": ["ks", "bounds", "slope"],
    "properties": {
        "ks": {"type": "array", "items": {"type": "integer"}},
        "bounds": {"type": "array", "items": {"type": "number"}},
        "slope": {"type": "number"},
        "predicted_slope": {"type": ["number", "null"]},
        "ratio": {"type": ["number", "null"]},
        "non_decaying": {"type": "boolean"},
    },
}

REPRODUCE_SCHEMA = {
    "type": "object",
    "required": ["cases", "all_pass"],
    "properties": {
        "all_pass": {"type": "boolean"},
        "cases": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "passed"],
                "properties": {
                    "id": {"type": "string"},
                    "passed": {"type": "boolean"},
                    "expected": {"type": "object"},
                    "got": {"type": "object"},
                },
            },
        },
    },
}

ERROR_SCHEMA = {
    "type": "object",
    "required": ["error"],
    "properties": {"error": {"type": "string"}},
}

CORPUS_SCHEMA = {
    "type": "array",
    "items": {
        "type": "object",
        "required": ["id", "title", "source", "citation", "check"],
        "properties": {
            "id": {"type": "string"},
            "title": {"type": "string"},
            "source": {"enum": ["literature", "derived", "elementary"]},
            "citation": {"type": "string"},
            "check": {
                "type": "object",
                "required": ["op"],
                "properties": {"op": {"type": "string"}},
            },
        },
    },
}
