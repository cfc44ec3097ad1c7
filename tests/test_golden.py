"""Byte-identity of the CLI artifacts for the documented example configs.

Each example in ``docs/examples`` is run through every command (``simulate``
and ``experiment`` with its configured seeds), and the ``transform`` output
of each is fed back through ``validate``, ``exact-stationary``, ``simulate``
and ``mean-dynamic``.  The sha256 of every file written is compared
with a recorded digest.  A change that alters any printed digit, state order
or path fails here; one that does so on purpose must record the new digests
and say why.
"""

import hashlib
from pathlib import Path

import pytest

from symgame.cli import main

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"

GOLDEN = {
    "coordination_table": {
        "exact_stationary.csv": "794226b6aeb887db3b49eb9b8c257188b30810cf66cec891e7127e7927f5bd7f",
        "experiment_report.txt": "331f0914555687a66181598d94fba1c1787cbc2f07a8d3eef732ec4c7d72cbe1",
        "occupancy_5.csv": "5a4cf09b9022eca5450d8875dd5df3b952e3efa1bc82e73346ad79c1ff17bf49",
        "path_5.csv": "49d04606299901ccc9b89ef5b56967fc9a331e11dab8216a39571f69d6a0a350",
        "predicted.csv": "ab8b0e98ced80b16eb824450529d3bf8620bb003c2ee97b62bff5757e5015df0",
        "trajectory.csv": "43b6eed8c42eee6fa4fbb431ba914cb1a13e56ad8199506de5013975eb748fdf",
        "transformed_game.cfg": "96067066bf5932077e39f698442ba701591c6d2967f4ea9584642be0232c0281",
    },
    "rps_constant": {
        "exact_stationary.csv": "19c223ca450e49031f432fdbe76b10e371cb0403a84401de3b3005599c835474",
        "experiment_report.txt": "11f5137b82d442ba26bb84f8d04f5b1fd5ac063ecaa8e3a81bb8519a5d866a28",
        "occupancy_1.csv": "8c959eabdb08488cb40dca973d362f952e9d31c5820e4b99900bc7245dbab270",
        "occupancy_2.csv": "5b593e14314a467fec1c8b5ecce850c6442d687ae745e5a1fc8060e2d8dc82f0",
        "occupancy_3.csv": "cf75c14d365b1b04d1c6ca4ead4df7ba2c1581e61cde18d7c32b03a7be998b92",
        "path_1.csv": "cafbcbffc767a2fc4438fbc83e771862793d88148d67f05fba1f312e5ba7944e",
        "path_2.csv": "050d39ab4d1b8bb48fc87ed74438188131335487054b2b88ab7ac26178a0447f",
        "path_3.csv": "d919ba2e644afe7346bf5f5cf59f8e118e297e45635c38b2358665895c80cad8",
        "predicted.csv": "30fe3d0cac7efbcb60f75968b1153657153c02078313f355597d85401f353b79",
        "trajectory.csv": "5f9f12832ece50aff1736ad65c77d14f165d3ab42a4395a0cf64e6a5d6501b10",
        "transformed_game.cfg": "beb68399ade717f503e0a122e27b6e7b87cb9b9956a0cfeffbd9a33852dc7340",
    },
    "rps_sum_exponential": {
        "exact_stationary.csv": "f9d584a8aebbe9650eac4d3ce5c858a9383ec21d89e07908c5222396d84c8984",
        "experiment_report.txt": "3831430d043b7def878f4719db4769010b643df9e8baf0067ee58ff80c092418",
        "occupancy_11.csv": "5d687c1381567b2fda4900305e6d72a116fe6d755e93372ee32926fe504bb6fc",
        "occupancy_12.csv": "4228b11da1d2c75f8374c805166698210c9de795411f151c5c9fa403ca1288b8",
        "path_11.csv": "b3c9899d2888e310112ee0c9e3e955842de95ecaf9f37467153aeed003a2013c",
        "path_12.csv": "eebccbbfb4c003d3cc9b15455f719b2e91db8abb28809aae17b1b2b2adeeb50e",
        "predicted.csv": "4110db1dbb123e7a7446c1053e3c3ceb122d3b3865802cad22de750707c6d6ec",
        "trajectory.csv": "8454cf5fc977b37d32bd8ce0af2a22f0c172f47513285576beca4287ec14e8ac",
        "transformed_game.cfg": "ff3766ee10fdcd718bd9dab65bc0523bed48e37d20662e92528fb52a1ec7545a",
    },
    "two_populations": {
        "exact_stationary.csv": "21f3f427414ac196d2d528b81ff6e62c7d3ee6e3214ed3053b82360d7ffd973e",
        "experiment_report.txt": "d372f901305fd10675c24090c0203be5dde231a7e997c2c094b7aa7430093c74",
        "occupancy_21.csv": "5dad830be8c97e86a51863a5ee87a1fc537151c0ec900fc16724782eb67b1f4b",
        "occupancy_22.csv": "4785378ddd52455eebd1c3baa1754797b7f4b4d25f9878f3a230e84496bcda9c",
        "path_21.csv": "a81675201da761707a26a447a2875042456ccad0cfc636136a49982cebcb6301",
        "path_22.csv": "a021f00c3b81b0ee15263ef8328011b9f7009c00e1cbc9030463535578a5e975",
        "predicted.csv": "d11c5f4d56a8d70d81192f18b4e60d6d48ea4e76c47ad770faffcba37dfaa542",
        "trajectory.csv": "aec2e56ec1124cce521d5bdf9dfae269f1191b2042afb537e85ad957c2d6d1e0",
        "transformed_game.cfg": "e2cee232bac605ae099a00ea21465c224c1cdbb28a668123cdf0bcc6014410f8",
    },
}

GOLDEN_SIMULATE = {
    "coordination_table": {
        "occupancy_5.csv": "1eac18e1ea650ed66d845ea0c76760a199468cd9ba810d13de2502d6814db0df",
        "path_5.csv": "89b6f1633af011a1c36e4ea9dd9b8002d3f31afe7b1032ca36308bea3e0eaec0",
    },
    "rps_constant": {
        "occupancy_1.csv": "1e7a5e483ee1f740937d2e37d148f254dc03682eefa7f8f74199616d05f10ac7",
        "occupancy_2.csv": "614a5f5c677b600dc75e6477b2c7638067f2c148e0e1bedb65d824c08795a5d1",
        "occupancy_3.csv": "7d5254552357efd3a0bfce2eefb28ddccdecc28922e0a724b1cecac7b908a561",
        "path_1.csv": "53a1d7ec0dbd071f8fa70d1c7ea04b21a0cb604aeb6fe7b251a11a66852b0cd4",
        "path_2.csv": "833c7b7010f79b7bf722f8b430f5d0860e8e94b16c40c4fe6fa5f369bb82efe3",
        "path_3.csv": "99e44fbcf10b4d4a15fdb410a8ef07430570b770c2084232739c33be126a7ef0",
    },
    "rps_sum_exponential": {
        "occupancy_11.csv": "1492cc8fb13c6addb08c297de0708690e113030b2fcd8ac32fd9555f0cb5096a",
        "occupancy_12.csv": "9b952bce42d964911bba58dcc6a76f3b28aac13be98f5c02c805fa813b6760c7",
        "path_11.csv": "5a1e01584065d29e6edd13f5599e5da5016a1a78d6cd49d281b32fd8e531f635",
        "path_12.csv": "e2100318d286876f3099e6339a4747f8ec3cbc25e3f91fa782af3d8bbaf823d0",
    },
    "two_populations": {
        "occupancy_21.csv": "ad51b5abc8de55bb35394672db6ebaf56d32d91a2f47bc7c862c2373081a8d05",
        "occupancy_22.csv": "86c77b8fa8dd059440108446cbf1c6ea17a50286f6ea5e9073eec8028c74e54b",
        "path_21.csv": "a96a1efd9ddb0a990fe8273d570e258e5ea9f560ca91b036920c89d677ffcf73",
        "path_22.csv": "3cc826f33662e98de6448664237a260a3bf967a1d09c062ff367fd8ff7078c02",
    },
}

# the single-stage commands; their artifacts carry no seed
GOLDEN_COMMANDS = {
    "validate": {
        "coordination_table": {
            "validate_report.txt": "7acc7de02a1d3ecf0596f2dcdca51b28149a67a397b362e7ec8dd391a9068a26",
        },
        "rps_constant": {
            "validate_report.txt": "2e91282b1db3ca91c38aff975bcb9c31469b95c6fe84f7e19e9f007bd2d427fb",
        },
        "rps_sum_exponential": {
            "validate_report.txt": "011e1e4170ec58be744507cb0649303260b38972d78bec5f5fe57056cc35e68f",
        },
        "two_populations": {
            "validate_report.txt": "d26bc625658952bd09a7850f78fe67b73d9bb04ad75e043d1368d699dcc62d7f",
        },
    },
    "transform": {
        "coordination_table": {
            "transform_report.txt": "e0e1a4a29a824a830a1b76e1a2770f9fdb433ed39f6b0c1a9f791e98d207e84d",
            "transformed_game.cfg": "96067066bf5932077e39f698442ba701591c6d2967f4ea9584642be0232c0281",
        },
        "rps_constant": {
            "transform_report.txt": "f64b1619da903f8497e6d37409c9c5f3e3b0a7c3e20f19c39d26ac0fb7736002",
            "transformed_game.cfg": "beb68399ade717f503e0a122e27b6e7b87cb9b9956a0cfeffbd9a33852dc7340",
        },
        "rps_sum_exponential": {
            "transform_report.txt": "15264bb8ccbd1e63a2bf6ea2388c956575fb6bcd94958405da1cb43356699817",
            "transformed_game.cfg": "ff3766ee10fdcd718bd9dab65bc0523bed48e37d20662e92528fb52a1ec7545a",
        },
        "two_populations": {
            "transform_report.txt": "1205a9d69061f3f6ef04c3f618700e0ec69ddd287fab6a343847d29551996a70",
            "transformed_game.cfg": "e2cee232bac605ae099a00ea21465c224c1cdbb28a668123cdf0bcc6014410f8",
        },
    },
    "predict": {
        "coordination_table": {
            "predicted.csv": "103aee7e3f2fc3b3977a069a80b850f334ff517ea5309482242d8fa0df563ac5",
            "predicted_marginal_0.csv": "6a1b28d610eb15497d476204a7f212e8fabca1250fb5d3450da764827806362d",
            "predicted_marginal_1.csv": "6a1b28d610eb15497d476204a7f212e8fabca1250fb5d3450da764827806362d",
            "predicted_marginal_2.csv": "6a1b28d610eb15497d476204a7f212e8fabca1250fb5d3450da764827806362d",
        },
        "rps_constant": {
            "predicted.csv": "1eacc9eef48248346d1f453fb2023822c600b1ade872b8f314e963736e0030d2",
            "predicted_marginal_0.csv": "b19c417767779d883cd0fd7d490f2255d1f8186953821087043fd0fb873c3f92",
            "predicted_marginal_1.csv": "b19c417767779d883cd0fd7d490f2255d1f8186953821087043fd0fb873c3f92",
            "predicted_marginal_2.csv": "b19c417767779d883cd0fd7d490f2255d1f8186953821087043fd0fb873c3f92",
        },
        "rps_sum_exponential": {
            "predicted.csv": "bb142deb57ba1b2875b7f33cec217967744cb4766caa92c02627a3f64c62495d",
            "predicted_marginal_0.csv": "cd57b24a5470bb8fe2b3e9426973f23400069266e1d992b7bd18fc28be30ed60",
            "predicted_marginal_1.csv": "cd57b24a5470bb8fe2b3e9426973f23400069266e1d992b7bd18fc28be30ed60",
            "predicted_marginal_2.csv": "cd57b24a5470bb8fe2b3e9426973f23400069266e1d992b7bd18fc28be30ed60",
        },
        "two_populations": {
            "predicted.csv": "38dcb7fa7c4f5f625ae1a2f1eb91041248783808cb458c80e9c5e7d94fcb85d2",
            "predicted_marginal_0.csv": "7d20fb59e0e1ccf5bef4d1ce13343e39c5166deec481eb29e45a3d1069bdf815",
            "predicted_marginal_1.csv": "c3c416401821bafcef8aa3b788fc0c46db73e2b81239be6ca414e9aac4623032",
            "predicted_marginal_2.csv": "c3c416401821bafcef8aa3b788fc0c46db73e2b81239be6ca414e9aac4623032",
            "predicted_marginal_3.csv": "c3c416401821bafcef8aa3b788fc0c46db73e2b81239be6ca414e9aac4623032",
        },
    },
    "compare": {
        "coordination_table": {
            "compare_report.txt": "890cc775037b8be485868a108a41c451b3d591902b46cb75db3943d855502561",
        },
        "rps_constant": {
            "compare_report.txt": "eda1296e4e5ac26b67e8d94b41a805347e06e69970a116c654fa47d0f8566bab",
        },
        "rps_sum_exponential": {
            "compare_report.txt": "853cf16352130871c092ec685ce3512e6d25880afd3de9d13cc81ce17e70b7f3",
        },
        "two_populations": {
            "compare_report.txt": "8351379149f90342e9c722f3a3df57486a65942b102fa9054c788ad6936dc750",
        },
    },
    "mean-dynamic": {
        "coordination_table": {
            "trajectory.csv": "2b1e15ccdb05fb00238d6a62f932ba33ad4b1043b172bd6aab565cdef578d88b",
        },
        "rps_constant": {
            "trajectory.csv": "ddea4a8e594cb626c5f8b5ece999ce4c474137be5ef7e9931f8d35278205582a",
        },
        "rps_sum_exponential": {
            "trajectory.csv": "db6fcc1e0cef2b1a03a4c4b5535a4e293272e5a46170fad715002558957bf3dc",
        },
        "two_populations": {
            "trajectory.csv": "f6de043161f633d141d74d75e90a5a6516da47ee3c7692651291e506eca3ec89",
        },
    },
    "exact-stationary": {
        "coordination_table": {
            "exact_stationary.csv": "8f62615988c967207674eabb60f8b7d3a3e5dcfff685ef59683dcfb2156a0155",
        },
        "rps_constant": {
            "exact_stationary.csv": "80246f6bf29e0ad702f24b91bbd7afc42bd2a764789e42eac1e43f64764fbb4c",
        },
        "rps_sum_exponential": {
            "exact_stationary.csv": "51f8f93273125fdd80ee501415a39e48299f9d722c5efcf254df320cb12c323a",
        },
        "two_populations": {
            "exact_stationary.csv": "fd05983bb662720bcd27ef034cd42a0a01f94053cad9c307447e482067de9db7",
        },
    },
}

# the single-stage commands on each example's transformed_game.cfg
GOLDEN_TRANSFORMED = {
    "validate": {
        "coordination_table": {
            "validate_report.txt": "00b0bb4f0acb12fd48282ca2a324e0a3132493832dd9190fdb476b78fd3598c0",
        },
        "rps_constant": {
            "validate_report.txt": "505e4651921e5f504abc4eb09174ab1d0ae0dab6b40e6224a3c2d7abf28c5fde",
        },
        "rps_sum_exponential": {
            "validate_report.txt": "deee2a1539168ec8be6722050760b7aabea308ca7254b8e5d7d6308d409f1e77",
        },
        "two_populations": {
            "validate_report.txt": "1bc7ed3389210751144d8ab5dcc3d7c95ded2038cb3c068b1f9775f367ca4276",
        },
    },
    "exact-stationary": {
        "coordination_table": {
            "exact_stationary.csv": "4fc482931527d5bdfd34c1c42974176fd1e35d247782aa65b2ac6ca0971adb83",
        },
        "rps_constant": {
            "exact_stationary.csv": "5fd29d73b5c3a7891512a195eef08ee0cd6fa20de4a6822aa2db11f8a75c38ac",
        },
        "rps_sum_exponential": {
            "exact_stationary.csv": "e49a3af1ec772bd79379d94b9df2f2443e898c309db286f973ca39c31ad2ddf2",
        },
        "two_populations": {
            "exact_stationary.csv": "04c67a6cee964164a8da80b444b9f01a8ab121837440cf948761f48f0b0a9034",
        },
    },
    "simulate": {
        "coordination_table": {
            "occupancy_5.csv": "6b06b4f39e4782ec930fea1cfa364b669d6c54978140e134d4c749aeeda9f06b",
            "path_5.csv": "725d7bad99087453abf6daffa9c0dbe021399a619b81ac23d8b0e82207721b6f",
        },
        "rps_constant": {
            "occupancy_1.csv": "6c5d35cbd7b9ed6d6304f5dfd764a095f4b0fcf96943cebc54a78e2569138d27",
            "occupancy_2.csv": "856e1faf719f67ca5311aac9a57f50d984a96bd419a4eca225c770812af2ae72",
            "occupancy_3.csv": "2cb9153bf48698a2aefe378d8a6e021bda2f7d6d70a334f8b2787fcc3aa083ba",
            "path_1.csv": "1824c8890c0b9877ac3db13abff34dc732f7ab1cee68b9a7d8652d11bb6f5107",
            "path_2.csv": "e18e1b9a9cf81d601a3ea86a84c8254ebbede633513aebd2f1104e5cc285f558",
            "path_3.csv": "3ad87ab36963c60f34664bb8d68fdb08b7f4575ea5d2eca9dd00d53fbacb493d",
        },
        "rps_sum_exponential": {
            "occupancy_11.csv": "df23c5fb639fc1935e445736bbaddcce302615f9d544ce593ad0286b7e1dad9f",
            "occupancy_12.csv": "f3ee2072485b99259fff257a124e20a507a7b5b97976e6fd0bd1cf69745fbef1",
            "path_11.csv": "1e8ad8174b383a657fb654e43fb573277c330c5df23f3d267e5840e91ef38f42",
            "path_12.csv": "a10c6632c4a3b25a86b881a9c3853ef344816dd83565f53ed668471b22a4fc34",
        },
        "two_populations": {
            "occupancy_21.csv": "eee1a0e75d6f894594fa1765a910a0f4797511eaf40f193b2fbbefec54e468fc",
            "occupancy_22.csv": "b39039c1401b19f14bba19798fb745a06c6e3e61ec151e71b053b6fb91611eca",
            "path_21.csv": "188bd7c67d0e31b473adcc3be626146a9bb5df6a1ed7aa2cdfb1fbc1cd3cc67d",
            "path_22.csv": "51e3918a764cb6adfaa42260b9cde814e8616866208d08c4a7cd9115d383f46b",
        },
    },
    "mean-dynamic": {
        "coordination_table": {
            "trajectory.csv": "b6c0ebfd1c1bd5a92025374d20e148262b08d3096765f98c8824c95ba9891e96",
        },
        "rps_constant": {
            "trajectory.csv": "0252b6b9f866de527a09184983f06a4b1ac249c4d7d18001e947648b1b0ddd9f",
        },
        "rps_sum_exponential": {
            "trajectory.csv": "cac1978f32358b100c93e6c7c0f0aa81bb1af02d14294f48f45b6c6767e60c70",
        },
        "two_populations": {
            "trajectory.csv": "c75c8351d5da01114f817eafbccd8cf9bde519a9921ab07aa6002ea722721305",
        },
    },
}

# the derived two-strategy blocks are not symmetric, so validate reports failure
TRANSFORMED_STATUS = {"validate": 1}


def _digests(command, config, out, status=0):
    assert main([command, "--config", str(config), "--out", str(out)]) == status
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_experiment_artifacts_match_recorded_digests(name, tmp_path):
    assert _digests("experiment", EXAMPLES / f"{name}.cfg", tmp_path / name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_SIMULATE))
def test_simulate_artifacts_match_recorded_digests(name, tmp_path):
    assert _digests("simulate", EXAMPLES / f"{name}.cfg", tmp_path / name) == GOLDEN_SIMULATE[name]


@pytest.mark.parametrize(
    "command, name",
    [(command, name) for command, per_name in GOLDEN_COMMANDS.items() for name in sorted(per_name)],
)
def test_stage_artifacts_match_recorded_digests(command, name, tmp_path):
    digests = _digests(command, EXAMPLES / f"{name}.cfg", tmp_path / name)
    assert digests == GOLDEN_COMMANDS[command][name]


@pytest.mark.parametrize(
    "command, name",
    [(command, name) for command, per_name in GOLDEN_TRANSFORMED.items() for name in sorted(per_name)],
)
def test_transformed_round_trip_matches_recorded_digests(command, name, tmp_path):
    _digests("transform", EXAMPLES / f"{name}.cfg", tmp_path / "transform")
    config = tmp_path / "transform" / "transformed_game.cfg"
    digests = _digests(command, config, tmp_path / name, TRANSFORMED_STATUS.get(command, 0))
    assert digests == GOLDEN_TRANSFORMED[command][name]
