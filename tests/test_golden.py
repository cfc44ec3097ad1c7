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
        "exact_stationary.csv": "267a10ef1bfde06675332c8fcc59aa019e50e609ca92953cae85278f549f4e9a",
        "experiment_report.txt": "6b02c7f9f153f5fe7a71ef35b36a4863fdb0976f91b81ecc16846c85374f5e3d",
        "occupancy_5.csv": "284f163ea1304087be1b3abb74b33cebc6fc11a48cdac23d09b0e343a103f7be",
        "path_5.csv": "b4e7fc32aace9b244280bcb155b171d8fca2fe79b9c5662f50dd5f33561dec4b",
        "predicted.csv": "321c85cf4677541e30ce2c62ed3361c1c59a0f33ad80bc58198302e7cea3b0d8",
        "trajectory.csv": "cf25b6e4dbca01bbeb29adfb4079c06a058345bca03ea20832b23be38dd1c591",
        "transformed_game.cfg": "7494d0ed35ab5bce1c34582eb9c74d507b0ae526279137f59c7762a9de05340f",
    },
    "rps_constant": {
        "exact_stationary.csv": "bc1a3314d4731655a3bfb94ef067eeb37a70f4af4e003cae4c238d928fb27c59",
        "experiment_report.txt": "30bdd7ddf33d42e82839b7df2972266fbc6019994de59d527a0e0acac06be4c7",
        "occupancy_1.csv": "0ed53d68a6424d58c5adbe9d0e691ad62918a8bf3d46426b46f717c3b305934e",
        "occupancy_2.csv": "63b43adf0bf8802fd74eec34641c04e004a985900831cbaa70c4f15ec0b33269",
        "occupancy_3.csv": "8abea4d627ae562bfde0fca298ec675b449d9234ffd315e9aa0f0827b34fd090",
        "path_1.csv": "9b2e310b5a02f5437f0a97c836343dd8dc63c96beff76f1c2b47373ff10ad41b",
        "path_2.csv": "39c4543b60cc688a1b7870278a693caeff1547682262d18547f6acd5bf9930b6",
        "path_3.csv": "7104ae121c973f738abd39dd1d6a60d992720f5fe92af9562e415437610cb566",
        "predicted.csv": "f4ae487a7d81ab7afc0f7e3afb7674694226f3dbe2d3e3f05db6e67b049c3b3b",
        "trajectory.csv": "5832d0e9cd907c5094d05242860c98aa972ac53be744a129e08770c1ac61ab39",
        "transformed_game.cfg": "3fd0660e339972097ce6eccd997186da1d5a97fa610d22f5f10e9fcc91957c34",
    },
    "rps_sum_exponential": {
        "exact_stationary.csv": "45ee785d122c7753988edf373eb4efe9417b4a8ec3004827da62ffe22616016f",
        "experiment_report.txt": "9976b920aba1e95892fb17b4520f56116b90ba92e9950738248726d0d8131e32",
        "occupancy_11.csv": "f6017a7d343a34967b9a054095956f5f0f91ddf4f6927e345fd36fbbfeaa99c9",
        "occupancy_12.csv": "7442aae9daafe851a8d36cefa5036aaabee926c28a282cd5cd9ab561b6373029",
        "path_11.csv": "f684d5a295836f302e7202de0e1b0f09461048861127098167757943c235b87f",
        "path_12.csv": "e7959fc3df90b3e095a054a376830382c62dba28507e87cfa1ba2bb784c0a9f8",
        "predicted.csv": "27252dd21e3a29312eb84583dee16f87036c62856046ad5db8ca683a78e4f271",
        "trajectory.csv": "f6b48e5c4e955081c34ddc7469e5f2210eedbfb66dfb5518df338618321a770a",
        "transformed_game.cfg": "f885b9feadb6f92af675d671a768ea0e6be6cbe1c03c5bc38366a2021ee5022d",
    },
    "two_populations": {
        "exact_stationary.csv": "c890759b220a831e511ed814533443b6c73b79787a088d07057de91e26c2d306",
        "experiment_report.txt": "055b99a5afb592c7e675b84ae8340e95b0bb7a599b2b3cf50c7c088a20b5a924",
        "occupancy_21.csv": "b62f41ecc8ee3e71a50d67b6a8bd5ab2f618a0a7b17a7129d8282aedd6c7ef49",
        "occupancy_22.csv": "8018ced599e770cbddd9295a7cb0853856ef451ba19912d3311a0706327fb845",
        "path_21.csv": "8ce978b9fbec07272d8e666b872385749bca69cc8ab6b43a0dcecffeae1d46c9",
        "path_22.csv": "66a7683982282bb7293190eb891b522a0df9ef29849fa4549d5a8b17f578f0ab",
        "predicted.csv": "09f5fd4d890972c7b2b22eee78dede9f0cd444175908b59e7857afd4ed3ec0d1",
        "trajectory.csv": "3cac3050db847a8f26d9b0ac06ee40af5e669920b7bea97231123f531cf9e483",
        "transformed_game.cfg": "089bf8e168fc30dce098407036c44a9c3fd71eca879f557deffb0346e4da2310",
    },
}

GOLDEN_SIMULATE = {
    "coordination_table": {
        "occupancy_5.csv": "84b5cd880a9171fb17e0f33032d2671b96e7a8c22f587a801a9e9cab706217ca",
        "path_5.csv": "b4647dbb641a6b35dc7ec97ac40fed420528aa6308543d4bf00cff4ca82c4063",
    },
    "rps_constant": {
        "occupancy_1.csv": "5c059321d790a0b36a647c9c0d10ccc1184677965fbe64a48bc6df9d54566ec4",
        "occupancy_2.csv": "375e73240ac3ef223644e27b6f2b36884369f0c4ace3da69d83a3f9543749422",
        "occupancy_3.csv": "ed9925a04d9c2d4f803ab1984ffbe36b2108c9dea9990e4d26dcaa08262a85ad",
        "path_1.csv": "3c5aa2e1aadfb779b11932e33978fe087a23cccfa2e1f887b72c84e6522d038b",
        "path_2.csv": "fdda4559c67f44b261fd2ae1dda3f80c4948bc4b042b5b31a0f9412c08b90544",
        "path_3.csv": "622dc8bccc39c6d6808c897d0223cbdd898038814dffdf621796832ef3634f53",
    },
    "rps_sum_exponential": {
        "occupancy_11.csv": "01cf4e7eae083f6931d770ecb654b6f45d909353842ac189fa8c3a1b0a6b4549",
        "occupancy_12.csv": "b5987818b0f6dd9d6dd7eca55c7b9776ec31d86e290417f822c5df3da30b7bfd",
        "path_11.csv": "31c9d26e66fb7089c81f5d3026c9a1a4ba22d2b05804b19082fac9d306a16d99",
        "path_12.csv": "796c0facf03b808da5efcf7d8227f279ebb99ad70c85c03f4d6c81725eb764ee",
    },
    "two_populations": {
        "occupancy_21.csv": "4a2d76facf4385fea7251d295ca1ed20160c36fa9195f24f9321a9596588c580",
        "occupancy_22.csv": "802b3174bec946ab6e6637fa73f28e5a06708cbf635855dbb44dd863eb5a5811",
        "path_21.csv": "3c2f3cb5bfe7f307438f0dc6e442b86984a51620a4576c82022b2f73ae3d100d",
        "path_22.csv": "36b9522d52e127d085d078cc14715fe291fec86935717fd3ac6eb8d9296ea3b9",
    },
}

# the single-stage commands; their artifacts carry no seed
GOLDEN_COMMANDS = {
    "validate": {
        "coordination_table": {
            "validate_report.txt": "78b2825a38d1eb903bbda602cadfaea2b2fd5a4f115831edc2ecee82fdfbd173",
        },
        "rps_constant": {
            "validate_report.txt": "1f78f8c44fbf5ddbcc7fa806fb961f292d7f3c1e423b1b6d710667c8b86389b0",
        },
        "rps_sum_exponential": {
            "validate_report.txt": "20d5faf73b8c77135de01025df21032442f2e8e95e5f2ff2f32a495756e0bda5",
        },
        "two_populations": {
            "validate_report.txt": "ba6cab1d3b2851262602c5f34c141f28f08ad0684d5636788e4333a1c8fd2214",
        },
    },
    "transform": {
        "coordination_table": {
            "transform_report.txt": "d8c7a8dc2edc530bcc5c3a55c761b95afde519f7c33c6da2c2fe5657129731fc",
            "transformed_game.cfg": "7494d0ed35ab5bce1c34582eb9c74d507b0ae526279137f59c7762a9de05340f",
        },
        "rps_constant": {
            "transform_report.txt": "f63a28d345cce0273f0baffb8f1f6a238aee53cc12c78f240a75bd52424d5303",
            "transformed_game.cfg": "3fd0660e339972097ce6eccd997186da1d5a97fa610d22f5f10e9fcc91957c34",
        },
        "rps_sum_exponential": {
            "transform_report.txt": "87fb3a4f9aeb81f80e7c5343b12a77f4a98f644a06c83f7ab360abc001f77ffb",
            "transformed_game.cfg": "f885b9feadb6f92af675d671a768ea0e6be6cbe1c03c5bc38366a2021ee5022d",
        },
        "two_populations": {
            "transform_report.txt": "1f818def5e4600ed706e8453aacdcf34dc57c4cdffb01a7302d460118a6eb661",
            "transformed_game.cfg": "089bf8e168fc30dce098407036c44a9c3fd71eca879f557deffb0346e4da2310",
        },
    },
    "predict": {
        "coordination_table": {
            "predicted.csv": "15c2af3307b0d074c6e0c10eb7e3ecbc515b24cfbb0d1e5022a5fa931f8f715c",
            "predicted_marginal_0.csv": "b4f97bb2ee6dd8b7ef2d4f3350e0a1f42b40da68cda4ba722aecf901a6996565",
            "predicted_marginal_1.csv": "b4f97bb2ee6dd8b7ef2d4f3350e0a1f42b40da68cda4ba722aecf901a6996565",
            "predicted_marginal_2.csv": "b4f97bb2ee6dd8b7ef2d4f3350e0a1f42b40da68cda4ba722aecf901a6996565",
        },
        "rps_constant": {
            "predicted.csv": "a110c19ce14850077120d1506b8d8eac25740db9b77498782dd71b4d7292304d",
            "predicted_marginal_0.csv": "eca274f80dbbf377cdf43c65dccda1290e943612f6dff5dc346b58ee57bdd507",
            "predicted_marginal_1.csv": "eca274f80dbbf377cdf43c65dccda1290e943612f6dff5dc346b58ee57bdd507",
            "predicted_marginal_2.csv": "eca274f80dbbf377cdf43c65dccda1290e943612f6dff5dc346b58ee57bdd507",
        },
        "rps_sum_exponential": {
            "predicted.csv": "824d76846ca6929bab23113af9157db1f6e40ff7d4c5a86117df7d370f0152a9",
            "predicted_marginal_0.csv": "dd9f67cab73fbb13f9b5239bcc7f2208043baaae70fe1ca0cfa9db5017a3caa2",
            "predicted_marginal_1.csv": "dd9f67cab73fbb13f9b5239bcc7f2208043baaae70fe1ca0cfa9db5017a3caa2",
            "predicted_marginal_2.csv": "dd9f67cab73fbb13f9b5239bcc7f2208043baaae70fe1ca0cfa9db5017a3caa2",
        },
        "two_populations": {
            "predicted.csv": "242f8be14c5ed2f0e6568266a2d26f4a18aa173f645a0a3776c96d01e747feef",
            "predicted_marginal_0.csv": "be9573100ad607b08f0545a65e5072884acf8d2c30431b2fb081e1229ec11de7",
            "predicted_marginal_1.csv": "b20b4f4b719d5229bd7b59093f3a4ebd470a11d4422425910ed6af98b0a1983d",
            "predicted_marginal_2.csv": "b20b4f4b719d5229bd7b59093f3a4ebd470a11d4422425910ed6af98b0a1983d",
            "predicted_marginal_3.csv": "b20b4f4b719d5229bd7b59093f3a4ebd470a11d4422425910ed6af98b0a1983d",
        },
    },
    "compare": {
        "coordination_table": {
            "compare_report.txt": "6b7264675ffa98e9295aee52031f57d307330d80c4ac7c46c7f12f2ac972f5e6",
        },
        "rps_constant": {
            "compare_report.txt": "83ff7b235550cd437fccbef7aa3a1da61801b2e8a28cfdbef0d797b2d95dfb0b",
        },
        "rps_sum_exponential": {
            "compare_report.txt": "d825ec95c12bbb562f100a3d29445773e08f79ae0b3bf520bd02205263ee1ec2",
        },
        "two_populations": {
            "compare_report.txt": "c863b24be27f08704141105a95d8a40f9ce24c932e514157f6c5eec3ac90e8b2",
        },
    },
    "mean-dynamic": {
        "coordination_table": {
            "trajectory.csv": "c2f1743e4d13a8601d97c168330df2693ad39482c3ca5afb9b28ff222b0d5c50",
        },
        "rps_constant": {
            "trajectory.csv": "da3765f63f0c3cb4a5aa0746893c609e54e91d18d2deff70c36ee5c9de0fd9cf",
        },
        "rps_sum_exponential": {
            "trajectory.csv": "026ebbc4c1cc559ec54d7ae1c986dbcfb9a518c209a2e247f5fc7b760940acee",
        },
        "two_populations": {
            "trajectory.csv": "60e9699faab335855c0437092f1ab8e1f8f61bf2b72b5d80563b34f7cb398a1c",
        },
    },
    "exact-stationary": {
        "coordination_table": {
            "exact_stationary.csv": "cbb8f8a4df6c864d5943351ad93cada957417ea43a0b614fb93dd1832cca8863",
        },
        "rps_constant": {
            "exact_stationary.csv": "3d53c93217efa6ba6a5ad4a8220abe092842c0f4a2d5e5b434e06bbd70864a50",
        },
        "rps_sum_exponential": {
            "exact_stationary.csv": "56e9dbdc5b026e817920eafb18c6726c182cd353a02f04c4a57d0137b2eef60e",
        },
        "two_populations": {
            "exact_stationary.csv": "c3459fdfaa4152f8fe9ceb167daeaacbe3d3eef216ab1f7b818c3584f4550a6d",
        },
    },
}

# the single-stage commands on each example's transformed_game.cfg
GOLDEN_TRANSFORMED = {
    "validate": {
        "coordination_table": {
            "validate_report.txt": "b8586d831286dd6e3865ecf9894f8027ccaf41888aecb73854a6c3af90de6447",
        },
        "rps_constant": {
            "validate_report.txt": "6fe29ff543bea56d34485561317c27b1a79fdab5525c8a4f95580777b803b633",
        },
        "rps_sum_exponential": {
            "validate_report.txt": "7a49a593762d9bdd191bb81622b299938895c2e7ebed743062161251d9c188a4",
        },
        "two_populations": {
            "validate_report.txt": "42fe1719dbf128f705f4ac27b26e3681f6e4a3719093b24c8fc5eea0e55c9156",
        },
    },
    "exact-stationary": {
        "coordination_table": {
            "exact_stationary.csv": "4147dfd094e5b4b42b46467d9fd43956e92c212b4036ee71f64b567e22206942",
        },
        "rps_constant": {
            "exact_stationary.csv": "4dcee663204100bfbc5848d7e329fd6b2a75c32dc4fc7d183df842e0887b35b6",
        },
        "rps_sum_exponential": {
            "exact_stationary.csv": "502060de07783b918c2b6c40f25597aaf2386f7149f84895048019475889204d",
        },
        "two_populations": {
            "exact_stationary.csv": "e47c53bd2b790d9c015a50a01e6748597d115a6645cf44796db2017fcc4c1389",
        },
    },
    "simulate": {
        "coordination_table": {
            "occupancy_5.csv": "6728b229084260a97619aaf67db11d3036e129ac4bc29f359e8e6f039e97dba5",
            "path_5.csv": "7364e03645f9a29cfbb953730a06968a19fa4aafe049b55fb5f2ee42aaed6f3d",
        },
        "rps_constant": {
            "occupancy_1.csv": "d97d83157820539ea3c1f244f44954c01d41d9ea60621e81ef031587181ed43f",
            "occupancy_2.csv": "9c53d2fa3fee1b0ff263731a73be71aba09d8c4bcc88671028c72deb88b9f9f7",
            "occupancy_3.csv": "96ee94752a04f2001d5e5390085dc206f2429640c02e5edbd9fad8036dd5e308",
            "path_1.csv": "3e20fd1f5d9bf392006204213ee1d510201239ceaff6b4d0cc14379fd5432ee8",
            "path_2.csv": "4ce84b31af41650783ae4061106c5d687704df02862dd72e40a4eafd11ae36b8",
            "path_3.csv": "11fd2ef0022827edaa64b8f44dc09aa890aef29a8d7a50e0d0461d9e4cd05a29",
        },
        "rps_sum_exponential": {
            "occupancy_11.csv": "457e6a7a7205afc06ea676fea5fed0a89f47bee22f88449c3a9f4a294650782d",
            "occupancy_12.csv": "2102bb50ed7b8f6ba05ef949cd7538b3c73ebc6bc2de7218bc2062496ca3261c",
            "path_11.csv": "e20ea2d37e914eca336c9e936fddfe9310ae2f6d188dc1bb7ef95a209b947b00",
            "path_12.csv": "279e2b5e7d7eb17c07c59abc2e4cd3dc27bcede08ac0bfd5ea89c77d4af383a0",
        },
        "two_populations": {
            "occupancy_21.csv": "0db3f100ce25116e11338fd5d091d314e23152c73cb77fdbcd42ace8b844268a",
            "occupancy_22.csv": "7ea7329814721bd075c619779a216a387b9d4f47a30d955439a89c9446be576a",
            "path_21.csv": "16b385badb99e4b8c6f5378bc6017a015a34fa3afa7fcdd35a4a286b0cf36d9c",
            "path_22.csv": "4ea75058a55a2660c37a01df76ddeee76f3b9ea54b4c96a2eedda24f22e3a084",
        },
    },
    "mean-dynamic": {
        "coordination_table": {
            "trajectory.csv": "b289852830eeb218bd490da34a27b6d2b4656281afcd209058510ccefab9e32a",
        },
        "rps_constant": {
            "trajectory.csv": "5a15092c39c01aab1d37e1b212ada8a9bcd3d400d1bfbd2a3d95b68c2f1b11e9",
        },
        "rps_sum_exponential": {
            "trajectory.csv": "8b008556a418b9622e2075e479a59288c0bd007d75e7a263e353062290d99ca9",
        },
        "two_populations": {
            "trajectory.csv": "9b383e5b543cd3ad284f83a55e00727ca7c07f31314d7bf5668dcb1f2db0e870",
        },
    },
}

# derived two-strategy populations need no symmetry, so every command exits 0
TRANSFORMED_STATUS = {}


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
