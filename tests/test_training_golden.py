"""Golden training digests: what the training loop produces, byte for byte.

Each row pins one training run on the conftest mini world: ``total_steps``,
the number of losses, and sha256 digests of the float64 episode returns,
the losses, the online network's weights (``state_dict`` in name order)
and the episode lengths.  A refactor of the training loop or of the MDP it
plays must leave every row unchanged; a change to *what* is trained (a new
sampling rule, a warm start) changes rows on purpose and says so.
"""

import hashlib

import numpy as np
import pytest

from repro.core.reward import RewardConfig
from repro.rl.training import train_agent

#: name -> (algo, first-n train items or None for all, config overrides,
#: reward config).
CONFIGS = {
    "dueling_250": ("dueling_dqn", None, dict(episodes=250), None),
    "dqn_40": ("dqn", None, dict(episodes=40), None),
    "double_dqn_40": ("double_dqn", None, dict(episodes=40), None),
    "deep_sarsa_60": ("deep_sarsa", None, dict(episodes=60), None),
    "no_end_15": ("dqn", 10, dict(episodes=15, use_end_action=False), None),
    "theta_120": (
        "dueling_dqn",
        None,
        dict(episodes=120),
        RewardConfig(theta={"mini_face_det": 10.0}),
    ),
    "mean_80": ("dqn", None, dict(episodes=80), RewardConfig(smoothing="mean")),
}

#: name -> (total_steps, n losses, returns, losses, weights, lengths).
GOLDEN = {
    "dueling_250": (
        1082,
        1033,
        "944900e9f0dfeb8cca3148396ed1a9527705ab1baf4a4625f91c5a980ab14981",
        "6c17da3a9d18d23fb8f9926ed023c2169f05b04218dbd80b8a8c3c5ce18073a3",
        "56d682f75bd0470571eb7561e831121cd833aeb4c15b4812a510ef8627b65895",
        "351994aa65ad5559939ce0740c738bdb9afcd9032a13365fdebad211e0d71897",
    ),
    "dqn_40": (
        187,
        138,
        "bbddbb369350277ba49eed89087dbfe215bbc402deb6145fa6a4493f0a43b312",
        "b1bf58570c2766cce66bfa7e864f598de29244a3fc009c0550aa1adc81792ceb",
        "43aa72b86ce983bd6916146cb5556fc5793125fa5d6a6dffc02606b32dcf8390",
        "a166d5096aff5ce901d759a6264cb8529757e0fa8b97baf5ecd455cc240f0d7f",
    ),
    "double_dqn_40": (
        186,
        137,
        "8929d9074bab18c1a51ab402344173154c7cf046597dbf9d0ae9d8d4e2685a25",
        "7f4ec3b35949529b33fd5e24dee4a2a8c903fd384833fbd19376ec7ca2625475",
        "b16b51b5fe3e2bbc0a486f4a6240d6d2df79ff232b985bbfcc2d9775ed9553cb",
        "3e7f7a80418d8d7715a4c7f23875cda3cf25c0c13b034a9be372b76c41913d07",
    ),
    "deep_sarsa_60": (
        282,
        233,
        "926bfd8f494114152857a47f4aa3f4dd57c1a40cffe3ed3b590f0f392e740659",
        "4d941707639fa6e95573fc2285e24a0ad8318137364ab4ca4845e2139431e04f",
        "ecd457bb93564b2ca03084cb344851f91f7287ce07ac688f16febb8bed14eab3",
        "1f4cfc5b14d5bd66903f38acef0f9eca64c3df13993989b19de699832adef6db",
    ),
    "no_end_15": (
        150,
        101,
        "6f57c4575037647dc8326ad35a1c84028cb2a727407a6178bfc74111cb649352",
        "6c2a78ae178cf500c464cdd0712ad4de1a629cd68539748f27967c39f8e639e5",
        "a4411f5e337b09c8b14be9b8e34795af08fc729b4f6dc30ee04b348e2a9b8484",
        "b25c939e75feab43f1c27c49fdeeaf843d12214c5dfbaf9b6e9e17340871e506",
    ),
    "theta_120": (
        343,
        294,
        "66adf9d60162c18738d76796a7a59a6f15fe2d0811df48b8a5ae986c642e7436",
        "75773577e0a0f144ab42eeb855af43f17f23a05cb1eb3ab1153f9c4e1311bfc0",
        "25c0df672d38ddbf2dd6d57c2234ec196b86996b6e82084ad4fb88a4b04c7cb3",
        "10eb7b1ffaecaa34e5f8775161e4e8783dda85e0ed7fc07c06466da888054a9d",
    ),
    "mean_80": (
        342,
        293,
        "ce6ea0580bbe54cd45232c3479cf60edc0cf71841149742e9107a2f2e77c1ad8",
        "b3a21530bb0d8b0929d4d65b877b3ffaae9c17a33a769fc5924557cde4f1bdbf",
        "bdcb2a57cd058ff1c81d71915ced49b62ec52816ec9a31e1d753088a0787c6e5",
        "573c62922c248ddfc95924f8b58e1efa4a220f33b189880902964900d863ca65",
    ),
}


def _digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


def _weights_digest(agent) -> str:
    h = hashlib.sha256()
    for name, array in sorted(agent.state_dict().items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_training_matches_golden(name, truth, splits, train_config, trained):
    algo, first, overrides, reward_config = CONFIGS[name]
    if name == "dueling_250":
        result = trained  # the session fixture is exactly this run
    else:
        ids = [item.item_id for item in splits[0]]
        result = train_agent(
            algo,
            truth,
            ids if first is None else ids[:first],
            config=train_config.with_(**overrides),
            reward_config=reward_config,
        )
    observed = (
        result.total_steps,
        len(result.losses),
        _digest(result.episode_returns),
        _digest(result.losses),
        _weights_digest(result.agent),
        _digest(result.episode_lengths),
    )
    assert observed == GOLDEN[name]
