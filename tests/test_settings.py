"""Every real-valued setting is checked at the boundary.

NaN, both infinities and the domain edge of each setting are rejected
where the setting enters: the package raises InvalidSpec (ConfigError
for RunConfig) with a message that states the setting's domain and
names the value; the CLI, given `--opt=value` or `--opt value`, exits 2
with that message on one `error:` line.
Before, a NaN learning rate failed inside a client's round, a NaN split
fraction failed as a run error or went into the report, and a NaN noise
or infinite margin was blamed on the generated data.
"""

import os
import re

import numpy as np
import pytest

from mvfed.cli import main
from mvfed.data import GeneratorSpec, SeqGeneratorSpec
from mvfed.errors import ConfigError, InvalidSpec
from mvfed.experiments import RunConfig
from mvfed.mvl import HyperParams, fit_view_transform, predict_mvl
from mvfed.sfed import TrainerConfig
from mvfed.vfed import vfed_predict

BELOW_ZERO = -5e-324  # the largest float below 0
X, W = np.eye(3), np.ones((3, 2))


def run_config(split):
    return RunConfig(
        mode="mvl", hp=HyperParams.uniform(2), spec=GeneratorSpec(40, (3, 2)), split=split
    )


# setting: (call with the value, domain edges outside the domain, message)
SETTINGS = {
    "HyperParams.beta": (
        lambda v: HyperParams.uniform(2, beta=v), (0.0,), "beta must be finite and > 0"),
    "HyperParams.zeta": (
        lambda v: HyperParams.uniform(2, zeta=v), (BELOW_ZERO,), "zeta must be finite and >= 0"),
    "HyperParams.eta": (
        lambda v: HyperParams.uniform(2, eta=v), (BELOW_ZERO,), "eta must be finite and >= 0"),
    "HyperParams.epsilon": (
        lambda v: HyperParams.uniform(2, epsilon=v), (0.0,),
        "epsilon must be finite; IRLS needs epsilon > 0"),
    "TrainerConfig.learning_rate": (
        lambda v: TrainerConfig(learning_rate=v), (0.0,), "learning_rate must be finite and > 0"),
    "RunConfig.split": (
        lambda v: run_config((0.6, v, 0.4)), (0.0,), "split: need three finite positive fractions"),
    "GeneratorSpec.noise": (
        lambda v: GeneratorSpec(40, (3, 2), noise=v), (BELOW_ZERO,),
        "noise must be finite and >= 0"),
    "GeneratorSpec.margin": (
        lambda v: GeneratorSpec(40, (3, 2), margin=v), (), "margin must be finite"),
    "SeqGeneratorSpec.noise": (
        lambda v: SeqGeneratorSpec(40, (3,), noise=v), (BELOW_ZERO,),
        "noise must be finite and >= 0"),
    "SeqGeneratorSpec.drift": (
        lambda v: SeqGeneratorSpec(40, (3,), drift=v), (BELOW_ZERO,),
        "drift must be finite and >= 0"),
    "predict_mvl.zeta": (
        lambda v: predict_mvl([X], [W], [v]), (BELOW_ZERO,), "zeta must be finite and >= 0"),
    "predict_mvl.tol": (
        lambda v: predict_mvl([X], [W], [1.0], tol=v), (BELOW_ZERO, 1.0),
        "tol must lie in [0, 1)"),
    "vfed_predict.zeta": (
        lambda v: vfed_predict([X], [W], [v]), (BELOW_ZERO,), "zeta must be finite and >= 0"),
    "vfed_predict.tol": (
        lambda v: vfed_predict([X], [W], [1.0], tol=v), (BELOW_ZERO, 1.0),
        "tol must lie in [0, 1)"),
    "fit_view_transform.beta": (
        lambda v: fit_view_transform(X, W, beta=v), (0.0,), "beta must be finite and > 0"),
    "fit_view_transform.epsilon": (
        lambda v: fit_view_transform(X, W, beta=1.0, epsilon=v), (0.0,),
        "epsilon must be finite; IRLS needs epsilon > 0"),
    "fit_view_transform.tol": (
        lambda v: fit_view_transform(X, W, beta=1.0, tol=v), (0.0, 1.0),
        "tol must lie in (0, 1)"),
}


@pytest.mark.parametrize("setting, value", [
    (setting, value)
    for setting, (_, edges, _) in SETTINGS.items()
    for value in (np.nan, np.inf, -np.inf, *edges)
])
def test_real_setting_rejected_at_entry(setting, value):
    call, _, message = SETTINGS[setting]
    error = ConfigError if setting.startswith("RunConfig") else InvalidSpec
    with pytest.raises(error, match=re.escape(message)) as err:
        call(value)
    assert repr(value) in str(err.value).rpartition("got ")[2]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv, message", [
    (("train", "--mode", "sfed", "--learning-rate={}"), "learning_rate must be finite and > 0"),
    (("train", "--mode", "mvl", "--split=0.6,0.2,{}"), "split: need three finite positive fractions"),
    (("gen-data", "--noise={}"), "noise must be finite and >= 0"),
    (("gen-data", "--margin={}"), "margin must be finite"),
    (("gen-data", "--kind", "sequences", "--drift={}"), "drift must be finite and >= 0"),
    (("train", "--mode", "mvl", "--epsilon={}"), "epsilon must be finite; IRLS needs epsilon > 0"),
    (("gen-data", "--margin", "{}"), "margin must be finite"),
    (("train", "--mode", "sfed", "--learning-rate", "{}"), "learning_rate must be finite and > 0"),
    (("train", "--mode", "mvl", "--split", "{},0.2,0.2"), "split: need three finite positive fractions"),
], ids=[
    "learning-rate", "split", "noise", "margin", "drift", "epsilon",
    "margin-spaced", "learning-rate-spaced", "split-spaced",
])
def test_cli_rejects_real_setting(tmp_path, capsys, argv, message, value):
    out = os.path.join(tmp_path, "out")
    if argv[0] == "gen-data":
        argv = (*argv, "--out", out)
    code = main([a.format(value) for a in argv])
    stderr = capsys.readouterr().err
    assert code == 2
    assert len(stderr.splitlines()) == 1 and stderr.startswith("error: ")
    assert message in stderr and "Traceback" not in stderr
    assert not os.path.exists(out)


def test_cli_spaced_negative_value_parses_as_joined(tmp_path):
    outs = [os.path.join(tmp_path, name) for name in ("spaced", "joined")]
    assert main(["gen-data", "--samples", "20", "--margin", "-2", "--out", outs[0]]) == 0
    assert main(["gen-data", "--samples", "20", "--margin=-2", "--out", outs[1]]) == 0
    for name in os.listdir(outs[1]):
        with open(os.path.join(outs[0], name)) as a, open(os.path.join(outs[1], name)) as b:
            assert a.read() == b.read()


def test_cli_joins_a_dash_token_only_to_an_option_that_takes_a_value(capsys):
    # --grid takes no value, so "-inf" after it stays an unknown option.
    assert main(["train", "--grid", "-inf"]) == 2
    assert "unrecognized arguments: -inf" in capsys.readouterr().err
