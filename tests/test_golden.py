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
        "experiment_report.txt": "1e9c7820c2952b2d8416d9c660f204464a982f36f831e1ceaedde4d8d702da21",
        "occupancy_5.csv": "96a571408ccdd277fe7e0ff760ff62f0387689c443d9930def7a378fb89af621",
        "path_5.csv": "e9953171a5fb60284593e6a79d50ccc58a1a2bcc7916a884c6a7840542a4a818",
        "predicted.csv": "ab8b0e98ced80b16eb824450529d3bf8620bb003c2ee97b62bff5757e5015df0",
        "trajectory.csv": "43b6eed8c42eee6fa4fbb431ba914cb1a13e56ad8199506de5013975eb748fdf",
        "transformed_game.cfg": "96067066bf5932077e39f698442ba701591c6d2967f4ea9584642be0232c0281",
    },
    "rps_constant": {
        "exact_stationary.csv": "19c223ca450e49031f432fdbe76b10e371cb0403a84401de3b3005599c835474",
        "experiment_report.txt": "3e372540c363e9cf1fbdcdc8b0966873e4db5acb76845b398318ca49071a8699",
        "occupancy_1.csv": "7600cc3279d7a59861cee8cd0909bec1c33234039654c8de96c11f1d5316ca50",
        "occupancy_2.csv": "7821a80b3dca755ff278e64dac7250ef4dbefb0064175e80ba61ef3bdf4f0a4c",
        "occupancy_3.csv": "9f4db1cd0aec07cfac8dc73cc446047e556858513b2f2b5d8dcc42bbb7fdf4d3",
        "path_1.csv": "8c291365653cae11f6933c875cd19f13a915976a5c4abf3ee051f4504bdf3c1f",
        "path_2.csv": "0a0c3c3ab21ea2daa5fdfe2dd15d7a1b5923c4d0b4289ef5efbc31cd725d588c",
        "path_3.csv": "785656cc507c4640ab7fbbfeaa20d3e02a4352a1ad9d7ac9a86cee246fd30907",
        "predicted.csv": "30fe3d0cac7efbcb60f75968b1153657153c02078313f355597d85401f353b79",
        "trajectory.csv": "5f9f12832ece50aff1736ad65c77d14f165d3ab42a4395a0cf64e6a5d6501b10",
        "transformed_game.cfg": "beb68399ade717f503e0a122e27b6e7b87cb9b9956a0cfeffbd9a33852dc7340",
    },
    "rps_sum_exponential": {
        "exact_stationary.csv": "f9d584a8aebbe9650eac4d3ce5c858a9383ec21d89e07908c5222396d84c8984",
        "experiment_report.txt": "1257844b3e45e7dbdf2c1d19d2b0421f1e433be4d5a726624088481569f52a04",
        "occupancy_11.csv": "9e7444310b661961bf6fb1d1922d1a00e482946ff929c77a1b4674a596b870d0",
        "occupancy_12.csv": "0a28f25c54f70cedd2e247e2d5db09a82dadc81dd948e78ae1874e66cdd10cfe",
        "path_11.csv": "69b27ed2c6e7d4b7e0036f4baae81eca429b82e25d2aab203f7ef43f8ae64d96",
        "path_12.csv": "2e4a3770e8b4e376d78e587e59b1fd4dcade4eeafd82cfa8ef6b3e696f346857",
        "predicted.csv": "4110db1dbb123e7a7446c1053e3c3ceb122d3b3865802cad22de750707c6d6ec",
        "trajectory.csv": "8454cf5fc977b37d32bd8ce0af2a22f0c172f47513285576beca4287ec14e8ac",
        "transformed_game.cfg": "ff3766ee10fdcd718bd9dab65bc0523bed48e37d20662e92528fb52a1ec7545a",
    },
    "two_populations": {
        "exact_stationary.csv": "21f3f427414ac196d2d528b81ff6e62c7d3ee6e3214ed3053b82360d7ffd973e",
        "experiment_report.txt": "35ef2991bea46116fef901731c4b731627a4a651c61a09a4a5be85a61b61e9d5",
        "occupancy_21.csv": "e1ce2c99c0ecf1ea8882d74f255d47a64c2aac51a74abd279b2078b46f07573e",
        "occupancy_22.csv": "473fdf0709ff88b6d8474b7b56fd263496f038b16f109691946bf5a759dbde28",
        "path_21.csv": "7e13b6a5e3c0f5537ce7352b4ff0495cff4b713977117d3bdd1eda59d04e03bb",
        "path_22.csv": "46fbac567db7c561459135f9833cd05f26687b4d39c680da124963e96c8d8944",
        "predicted.csv": "d11c5f4d56a8d70d81192f18b4e60d6d48ea4e76c47ad770faffcba37dfaa542",
        "trajectory.csv": "aec2e56ec1124cce521d5bdf9dfae269f1191b2042afb537e85ad957c2d6d1e0",
        "transformed_game.cfg": "e2cee232bac605ae099a00ea21465c224c1cdbb28a668123cdf0bcc6014410f8",
    },
}

GOLDEN_SIMULATE = {
    "coordination_table": {
        "occupancy_5.csv": "1a6658c1728b5f0475e0d9a0bffd9926f3ee1a8cc21f01da70ea7a17cc9dc1fd",
        "path_5.csv": "365ffd5c6e1e655ffe9d70aed94243da915473cadf0cba2ab06b63c11340522b",
    },
    "rps_constant": {
        "occupancy_1.csv": "0a745eed02273052d638765146a8c3966170d19e0b7463dd1f292f861fbd17f8",
        "occupancy_2.csv": "023f620a1040a4541b1a829610363931dd6b3cc1d7f4866816f8768b13d51115",
        "occupancy_3.csv": "4e1c859eebab1b4e104042ac41851c28484929ef1ef3e9be2c9663c8cfdfd3bd",
        "path_1.csv": "378705167bc73148800c663fbcea2105f29051a201a951e400dc1bccc5edb36f",
        "path_2.csv": "dbb94e415dc5a643418a77afa8362c0d761f79bf57549f0a2389374d192599c8",
        "path_3.csv": "fce8d7df7beb768a06d35a9188e3f09b0965892475c06c3d9681488758b2aecb",
    },
    "rps_sum_exponential": {
        "occupancy_11.csv": "3c7ee5d687a1a57510d4eaa00532802ce5353f547d8a73a540b77ebd54fe1cc9",
        "occupancy_12.csv": "ff3ab2307884e5833f2cb4a87d182156944e20c12d8522ba88010a9c826cfd63",
        "path_11.csv": "7e1bc920e91d81e8f6048c6920ab2b656c4b9052fede3a23d9518e751d174357",
        "path_12.csv": "8505658ee6c84d00c312cbf3569125500317a5fd440f927b850e951424e40cc6",
    },
    "two_populations": {
        "occupancy_21.csv": "91ba28a6855c74a49c2ae28834716b0aff782cd2cfc5d0d11dc863a20342f9c2",
        "occupancy_22.csv": "3f7e72b617341d76ff0034ad72361771b5b689e06bcda0567d833601e35fa64a",
        "path_21.csv": "3c419c6541d4bd5c5cc297dbb587d540010879316753aeca9df6becf7e35f7a4",
        "path_22.csv": "2dedf9ee6cc87d69d43d2676a238928dde8db419fd2709a80484fd3b59fb6766",
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
            "occupancy_5.csv": "907a3534aee0140a677db5425ececef7817e38a833ca35482afd59fb9d37a4b3",
            "path_5.csv": "f793242e04b11e6fe2eb00bc69536f1f1c3b86c8b254228cbae3d937518569aa",
        },
        "rps_constant": {
            "occupancy_1.csv": "d0a8479668700d959f6db604a4201df912a8e95d3c7f0f8444f0d2a717b72546",
            "occupancy_2.csv": "aba33b1be12ce7a4f5fac577a97692d6ef0357f03b0f9597e86119cf5e101bc2",
            "occupancy_3.csv": "626156f4ed7f60b9e5484812e87d59f3bbbdf4b2f18221d055b307c3d10d2210",
            "path_1.csv": "863dbfde958ff0e2833605d06cd59201debf5201562f4ccf4797cf9d0ac0176d",
            "path_2.csv": "dce3388dde4efb39c6d3d4b5f59d85fd9e6e21d9ccde52192a0f79219e484c10",
            "path_3.csv": "c910f1cd87eea61f8eefaa89156b8dc9a426d850f7bf1cf16a1a8bf08e4331ad",
        },
        "rps_sum_exponential": {
            "occupancy_11.csv": "7c60d772c3be9e321a8689a9d4ae17e25f94b8519a6b206d27eaf6a6a087ea27",
            "occupancy_12.csv": "32ca53a5c34d721e1f0442155954a93c4c4172426908a68fcbf2c27cb060dca8",
            "path_11.csv": "e02599d697ba1a5362e9b7835439fe68b3dff2859214861b87c326409e4bccee",
            "path_12.csv": "f3048374aa76ea62867aa397150f4de1913d0ee7753e026dffe598ee6d171738",
        },
        "two_populations": {
            "occupancy_21.csv": "763679244bd700f473279bf3da4ff196ce3e0e876631df3391f52394527e0408",
            "occupancy_22.csv": "2b2786ffee96a8b2bb5a5aecf2db852fb273cb3366d8bbb71e421d855c47a257",
            "path_21.csv": "1f88285fa1841b881fafdc280aa92b06781e367933419c29d2eeeb40f39d8fc5",
            "path_22.csv": "e46ee6230a0a9406f6c32952a7b55d2ba52d26fa8687a35dc87b2389613803d9",
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
