"""Deterministic config sweep: every key path of one full config per protocol is
replaced by each of a fixed set of JSON values, and `dfipp run` must either run
or refuse the config as a usage error.

A run must not end in a traceback, and it must not blame the prover (a
`malformed` note) unless the mutated path lies under `prover`.
"""

import json

import pytest

from dfipp.cli import main as cli_main
from dfipp.field import InputTensor, PrimeField, lde_eval

REPLACEMENTS = [-1, 0, 2, "x", 1.5, [], [[1]], {}, None, True]

X8 = [3, 1, 4, 1, 5, 9, 2, 6]
ALT8 = [4, 2, 5, 2, 6, 10, 3, 7]
SHAPED_2X3 = {"kind": "explicit", "shape": [2, 3],
              "masses": ["1/16", "1/8", "1/16", "1/8", "1/8", "1/4", "1/8", "1/8"]}
FLAT_4 = {"kind": "explicit", "masses": ["1/4", "1/8", "1/2", "1/8"]}
CIRCUIT_4 = {"kind": "circuit", "inputs": 2, "gates": [["XOR", 0, 1], ["NOT", 2]],
             "outputs": [3, 0]}
PRODUCT_4 = {"kind": "product", "factors": [["1/2", "1/2"], [0.25, "3/4"]]}
RUN = {"trials": 1, "seed": 1, "repetitions": 1, "rule": "majority"}
TENSOR = {"field_modulus": 17, "k": 2, "m": 3, "x": X8}
POINTS = [[1, 2, 3], [4, 5, 6]]
# true claims, so an honest prover gets past the claim checks to the folds
CLAIMED = {"points": POINTS, "values": [
    lde_eval(InputTensor(PrimeField(17), 2, 3, tuple(X8)), tuple(pt)) for pt in POINTS]}

# one config per protocol (two for fin_ipp) that sets every optional key
CONFIGS = {
    "echo": {"protocol": "echo", "bits": 4},
    "ham": {"protocol": "ham", "n": 4, "eps": "1/4", "w": 2, "x": [1, 0, 1, 0],
            "distribution": FLAT_4, "c": 1,
            "prover": {"mode": "committed", "alt": [1, 1, 0, 0]}},
    "symmetric": {"protocol": "symmetric", "n": 4, "eps": "1/4", "x": [1, 0, 1, 0],
                  "distribution": CIRCUIT_4, "c": 1, "predicate": 2,
                  "prover": {"mode": "bad-sum"}},
    "poly_fold": {"protocol": "poly_fold", **TENSOR, **CLAIMED, "t": 2, "kappa": 1,
                  "prover": {"mode": "row-tamper", "row": 1, "col": 0, "delta": 3}},
    "fin_ipp-honest": {"protocol": "fin_ipp", **TENSOR, **CLAIMED, "t": 2, "r": 1,
                       "eps": "1/2", "kappa_override": 1, "distribution": SHAPED_2X3,
                       "dist_mode": "oracle", "prover": {"mode": "honest"}},
    "fin_ipp-random-lie": {"protocol": "fin_ipp", **TENSOR, **CLAIMED, "t": 2,
                           "r": 1, "eps": "1/2", "kappa_override": 1,
                           "distribution": SHAPED_2X3, "dist_mode": "uniform",
                           "prover": {"mode": "random-lie", "prob": 0.5}},
    "df_ipp_nc": {"protocol": "df_ipp_nc", **TENSOR, "eps": "1/2", "r": 1,
                  "kappa_override": 1, "distribution": SHAPED_2X3,
                  "claims": {"mode": "honest", "t": 2},
                  "prover": {"mode": "fixed-alternative", "alt": ALT8}},
    "dispersed_ipp_nc": {"protocol": "dispersed_ipp_nc", **TENSOR, "eps": "1/2", "r": 1,
                         "kappa_override": 1, "distribution": SHAPED_2X3,
                         "claims": {"mode": "adversarial", "points": [[1, 2, 3]],
                                    "values": [5]},
                         "prover": {"mode": "honest"}},
    "whitebox_product": {"protocol": "whitebox_product", **TENSOR, **CLAIMED, "r": 1,
                         "eps": "1/2", "kappa_override": 1, "profile": "uniform",
                         "tau": "1/1000", "bucket_bits": 1,
                         "prover": {"mode": "fixed-alternative", "alt": ALT8}},
    "rlcc": {"protocol": "rlcc", "bits": 2, "eps": "1/8", "message": 1,
             "corruptions": [3], "distribution": PRODUCT_4},
    "set_lower_bound": {"protocol": "set_lower_bound", "ell": 2,
                        "claims": ["1/4", "1/8", 0.125, 0], "tau": "1/1000",
                        "delta": "1/20", "bucket_bits": 1},
}
CONFIGS = {name: {**cfg, **RUN} for name, cfg in CONFIGS.items()}


def key_paths(obj, prefix=()):
    """Every key path of the nested objects of obj, parents before children."""
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


def replaced(config, path, value):
    out = json.loads(json.dumps(config))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def outcome(config, tmp_path, capsys):
    """None when `dfipp run` ran or refused the config cleanly, else what went wrong."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    try:
        code = cli_main(["run", "--config", str(path)])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # any other exception is what the sweep looks for
        capsys.readouterr()
        return f"{type(exc).__name__}: {exc}"
    captured = capsys.readouterr()
    if code == 2:
        errors = [line for line in captured.err.splitlines() if line.startswith("dfipp: error:")]
        return None if len(errors) == 1 and not captured.out else f"usage output {captured.err!r}"
    if code != 0:
        return f"exit {code}"
    return json.loads(captured.out)["parameter_notes"]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_config_sweep_runs_or_is_a_usage_error(name, tmp_path, capsys):
    base = CONFIGS[name]
    notes = outcome(base, tmp_path, capsys)
    assert isinstance(notes, list) and not any(n.startswith("malformed") for n in notes), notes
    failures = []
    for path in key_paths(base):
        for value in REPLACEMENTS:
            got = outcome(replaced(base, path, value), tmp_path, capsys)
            if isinstance(got, list):
                blamed = any(n.startswith("malformed") for n in got)
                got = "malformed" if blamed and path[0] != "prover" else None
            if got is not None:
                failures.append((".".join(path), value, got))
    assert failures == []
