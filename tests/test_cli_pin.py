"""Frozen command-line bytes.

`test_cli_bytes_frozen` runs a matrix of calls in-process and pins the
sha256 of each call's exit code, standard output and standard error.
The calls are grouped by game file and subcommand, and each group has
one digest, so a change shows which file and command it touched.  The
matrix covers `inputs.CLI_GAMES` (the four figures, MINI, a game whose
arena forbids an attack at one state, a file that does not parse and
one that does not validate); every subcommand in both formats;
``--trace``; both ``--expect`` values; the attack policies, an unknown
attack and an unknown policy among them; the oracle's cap; both DOT
views; and a missing file.  Every call reads a fixed standard input, so the
``prompt`` policy is covered too.  The temporary directory the files
live in is written as ``SPECS`` before hashing.

The oracle is run uncapped on every game but fig4, whose enumeration
alone takes about a second.

`test_readme_session` replays the README's command-line session.
"""

import hashlib
import io
import re
import shlex
from pathlib import Path

from sensorgames.cli import main

from .inputs import CLI_GAMES

REPO = Path(__file__).resolve().parents[1]

# (subcommand, options, standard input) for every game and both formats.
FORMATTED = [
    ("validate", (), ""),
    ("solve-p1", (), ""),
    ("solve-p1", ("--trace",), ""),
    ("solve-p1", ("--expect", "winning"), ""),
    ("solve-p1", ("--expect", "losing"), ""),
    ("solve-p2", (), ""),
    ("gap", (), ""),
    ("gap", ("--expect", "empty"), ""),
    ("gap", ("--expect", "nonempty"), ""),
    ("simulate", (), ""),
    ("simulate", ("--trace", "--runs", "2", "--max-steps", "20"), ""),
    ("simulate", ("--p2", "table", "--runs", "3", "--max-steps", "30", "--trace"), ""),
    ("simulate", ("--p2", "fixed:none", "--seed", "5"), ""),
    ("simulate", ("--p2", "fixed:nosuch"), ""),
    ("simulate", ("--p2", "psychic"), ""),
    ("simulate", ("--p2", "prompt", "--runs", "2", "--max-steps", "3", "--trace"),
     "nosuch\n" + "beta0\nnone\n" * 6),
    ("simulate", ("--p2", "prompt"), ""),
    ("oracle", (), ""),
    ("oracle", ("--cap", "10"), ""),
]

# (group, argv, standard input) outside the per-game matrix; SPECS is
# the directory that holds the games.
EXTRA = [
    ("fig4 simulate", ("simulate", "SPECS/fig4.game", "--p2", "fixed:beta1",
                       "--runs", "5", "--max-steps", "200", "--seed", "9"), ""),
    ("fig1 simulate", ("simulate", "SPECS/fig1.game", "--p2", "random", "--runs", "3",
                       "--max-steps", "60", "--seed", "4", "--trace"), ""),
    ("forbidden simulate", ("simulate", "SPECS/forbidden.game", "--p2", "fixed:jam",
                            "--trace"), ""),
    ("gen-random", ("gen-random", "--seed", "42"), ""),
    ("gen-random", ("gen-random", "--seed", "7", "--states", "5",
                    "--goal-fraction", "0.5"), ""),
    ("missing", ("validate", "SPECS/nowhere.game"), ""),
    ("missing", ("gap", "SPECS/nowhere.game", "--format", "structured"), ""),
]

PINNED = {
    "fig1 validate": "8b36f91f9f612d7f062af4c6d91d9188074e4b630ba1a106ecd294974fae4099",
    "fig1 solve-p1": "953e3e59a0b54bd5a1fbea9e61ba32a94caab6bb3cde8502102259ba06a7feaa",
    "fig1 solve-p2": "6e006985cccaed1cd67f3311392d4a32d28115ae651e378888ced03079c2e87f",
    "fig1 gap": "5e08f6569ea2369e28f946aac223878892c9b9ba7f63ad36cde5ee65af72aac4",
    "fig1 simulate": "5bb997ef436508c9381a4fd9450e508baeff96373b6f4ba55e39f06680765624",
    "fig1 oracle": "363cfd57f6f10556562c837545e6bab7c35a6ed0b75344625ffc98eb3a548ecb",
    "fig1 export-dot": "cd1a8012278574e9387725cf9fa501634682cddb09ad856cdb77a4c7c45419a9",
    "fig1_nosense validate": "8a0da733d71f868d3b9b5e7e6be354fb94d9f3f483b4fa4662688c3f2d7827e9",
    "fig1_nosense solve-p1": "d9055bc841ad61f32796eff04c1ccf266b203d99903227f8e8f0eaf146a6d775",
    "fig1_nosense solve-p2": "0354dd60fd60d5c1b9e8bc47c73f5393d00152a3cd33a77deef8ed394bb65ddd",
    "fig1_nosense gap": "bc58581c9250f778a0774da80b069bc78cb77099216c727b3f8845c8ff62ebd8",
    "fig1_nosense simulate": "53867e79d6596eff13388c5ff8ad5e701824fa15c671222bd2df38a2088434f7",
    "fig1_nosense oracle": "224eff8a600507eb08cc7a9cdcfea8071fdbe75c2c379dbda1d6ba37a6f99c3f",
    "fig1_nosense export-dot": "ba69aca22714d8366356a73b8bbbd45bc7fc0b7829fc8e16089f4534a073a66b",
    "fig1_noattack validate": "378152bdbd31ae4e234bdf3ffb1cc096217a0d4203ecf7376cab0aa76e73e54c",
    "fig1_noattack solve-p1": "c11086d9ed61ca986fffe2fbea05bcd3c9c3ca457c5ab4db00c1bc81b5c08600",
    "fig1_noattack solve-p2": "4cad4f15f795da8127d70e6639c73a59f8a00653de37539782c49bcfe72abe79",
    "fig1_noattack gap": "6ae3c1afd44b254f03b7dda41448af7996ac95d3edc089e7e9599aeedcecd61b",
    "fig1_noattack simulate": "62c2f20b015fceda8fd1819becdba39c0d5e272ed7dd0986d705819910557c2e",
    "fig1_noattack oracle": "93e4855c10c15a45349c12774e9dbbaa06f9bcad6c4ca68703b804cf80b1b94f",
    "fig1_noattack export-dot": "9940c3fc735c7434e7e43801195ce75bf8859eda27f0f2c2d7205cc338361e60",
    "fig4 validate": "9436e7c65697065c84f271ac056446a0fa2a52d0cb7890bd1937def584750cb7",
    "fig4 solve-p1": "d69bffaced5125c2779909b8d28fab5f96928d635c3258f0537971b1718400cb",
    "fig4 solve-p2": "f7e145b05c10096e2f223df1296a36f51a2a971d2eebfe11bee1fce448376f52",
    "fig4 gap": "13ba101bfad8c71d2a1ffb0cae48c7db974c3bd8435907b7db6af7b12da2103e",
    "fig4 simulate": "dea10649a633745aa1dd2c7358eadebe11cf2612a55ff2af8eb6e4b3bb437192",
    "fig4 oracle": "e60bba194e0aa78f2a378f836add0118088fb705a9d764ee5f76f7a4f6cbb8ce",
    "fig4 export-dot": "7923d8534e84e2d51dc5edece7407741edc168f1d255e01294771a896b237bcf",
    "mini validate": "6f41ffec2bd1ccc77fd4250177982fd049a0a0fb0924dedfea7500439e899781",
    "mini solve-p1": "44ae1e66d2eb3bf155346a116aab642c4affaac6022e861c34a78432ac8535c2",
    "mini solve-p2": "ff048843a837f17c6bd63c7c9a211916134bfd2fed9a2b65d75f1cde47ee0d07",
    "mini gap": "9a7c9eae58032a3c0a35414ef119b21044e967d6a56d8b5c4a490ab39f83d5c8",
    "mini simulate": "7bcb2ae574d235aee8d8f8b833add445aa6269a2032a3c034658669e38e372c5",
    "mini oracle": "60a7324e96c38130adc11d6597666b450dfc192333d908719f064484bf6cce4d",
    "mini export-dot": "916d6f1f9663ac81c665264f904836a88bd086379297f58d539170e206e8d191",
    "forbidden validate": "c3860f1db5f8bbeba33522541513b52921278cd9dccfaf42b3fd3eceee02ed5a",
    "forbidden solve-p1": "3d2accff566ce83e740d2c766ed6c3b9432a436e680caf83142d79a1ede6775a",
    "forbidden solve-p2": "951b71e44458db08a247421c98eb722a6a7c31ad3971d114a2920ae938bd3d40",
    "forbidden gap": "55e8a658f50de65a230ae8f3d5b080240e3e26920e3839c77485619c934b5871",
    "forbidden simulate": "a7b3b0542ff113032d4761d3f5c05792cc663941ddf9a0421640e2bc9cac58b2",
    "forbidden oracle": "f561a66bb364b99228e84fba54988ef3bd2c166cb17d2751cfcb86e840231c39",
    "forbidden export-dot": "334ccc473246dfaad745519bc845e544e75b2dd5737511c70342519fabc5393a",
    "broken validate": "49216abc5086d16231439ec9d02b507a089a2cc13017d959100adcd7e476e6dc",
    "broken solve-p1": "3a37e374670b15dc12ef5a7ef349d2c6d359e87bf797d4b04e8b3b9eaa11c89c",
    "broken solve-p2": "fa0c6a574df738f2ad71cb71b7ebbf9a8825c07b8048b02757356fd09b02dc49",
    "broken gap": "5128c951c36061b6825f6c2534325ed0fee48421d48e3dceb90e4ba3f9459ada",
    "broken simulate": "ee3f01840d2b0b4c53b32769e1ff293ea009659e0eae2f1d9fd14d48183e119d",
    "broken oracle": "896ed9ab4f4235b6ada4f38d684cdd30ac8260ce23565fe8e54eb8c85dbccca0",
    "broken export-dot": "e99acd7bebe9a0de7bf3350dd5fc44d57ee965760407181765359e3c2bf684ae",
    "invalid validate": "fb0e2e5a7358db86ef3e098d8ece85876ab8a15a06416e955691c89cc98b0e1f",
    "invalid solve-p1": "df87f38523fc771f54cc9083a49968076f5df7c4a2ff4487a903be68dd038b1f",
    "invalid solve-p2": "fdb5a33c11792d603bd596ff54862b38c5e199c6160229cf65d45a5e009ee526",
    "invalid gap": "0d12687cc17ffe5729005d572c4338f905183a248f7c8d033ebb3702080745f2",
    "invalid simulate": "862576f6b8e8b25e2b7ee77ff298197246c8fde5b2c58eb052c2e61d18e1dc43",
    "invalid oracle": "c41843b47551918501211cca631e813224a7036183492716fd845ec390b36dd6",
    "invalid export-dot": "da09d2055529fe8fe46cdfcc4a9eede2bb963ba7dca39d38139d2f8421da2381",
    "gen-random": "df3a34f6f17b15b2e40d213cdc43060862dde96506c8c4ddc2109b2c13cd770e",
    "missing": "669c94a0dd80d49128f90bea4df68b48ea6c1f18b944b967892e2d38021096f3",
}


def calls():
    """Every call of the matrix as (group, argv, standard input)."""
    for name in CLI_GAMES:
        for fmt in ("text", "structured"):
            for command, options, stdin in FORMATTED:
                if (name, command, options) == ("fig4", "oracle", ()):
                    continue
                argv = (command, f"SPECS/{name}.game", *options, "--format", fmt)
                yield f"{name} {command}", argv, stdin
        for graph in ("belief", "attacker"):
            yield (f"{name} export-dot",
                   ("export-dot", f"SPECS/{name}.game", "--graph", graph), "")
    yield from EXTRA


def test_cli_bytes_frozen(tmp_path, capsys, monkeypatch):
    for name, text in CLI_GAMES.items():
        (tmp_path / f"{name}.game").write_text(text)
    digests = {}
    for group, argv, stdin in calls():
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = main([arg.replace("SPECS", str(tmp_path)) for arg in argv])
        out, err = capsys.readouterr()
        record = f"{' '.join(argv)}\n{code}\n{out}\0{err}\0".replace(str(tmp_path), "SPECS")
        digests.setdefault(group, hashlib.sha256()).update(record.encode())
    assert {group: d.hexdigest() for group, d in digests.items()} == PINNED


def readme_session():
    """(command, expected output) for each ``$ sensorgames`` line of the
    README's ``## Command line`` section.  A ``...`` line stands for any
    number of lines."""
    readme = (REPO / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    for chunk in block.split("$ ")[1:]:
        command, _, output = chunk.partition("\n")
        yield command, output.rstrip("\n") + "\n"


def test_readme_session(capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    session = list(readme_session())
    assert [shlex.split(command)[:2] for command, _ in session] == [
        ["sensorgames", "solve-p1"], ["sensorgames", "gap"], ["sensorgames", "simulate"]]
    for command, expected in session:
        assert main(shlex.split(command)[1:]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        head, elided, tail = expected.partition("...\n")
        if elided:
            assert out.startswith(head) and out.endswith(tail), command
        else:
            assert out == expected, command
