"""The TSV bytes of ``symmetrize`` over a fixed flag matrix, pinned by sha256.

The output is the contract: a refactor must leave every byte where it was.
The input is built without an RNG: twelve groups of twenty nodes, each group
opening with a cycle (strongly connected components of 2 to 6 nodes), edges
running forward one and two groups, and a hub that every fourth node points
to, so that ``--l inf``, ``--hierarchy auto`` and ``--hub-cap`` all matter.
Weights 0.5 to 2.5 repeat, so ``--top-t`` meets ties.

``python tests/test_output_bytes.py`` prints the table for the code on the
path; a change that moves bytes on purpose names and justifies each row it
replaces.
"""
import hashlib
import itertools

import pytest

from reachsym.cli import main

GROUPS, SIZE = 12, 20


def _edges():
    n = GROUPS * SIZE
    hub = n - 1
    for g in range(GROUPS):
        base = g * SIZE
        ring = 2 + g % 5
        for i in range(ring):
            yield base + i, base + (i + 1) % ring
        for i in range(SIZE):
            node = base + i
            if g + 1 < GROUPS:
                yield node, base + SIZE + (i * 7 + 3) % SIZE
            if g + 2 < GROUPS and i % 3 == 0:
                yield node, base + 2 * SIZE + (i * i + 5) % SIZE
            if node % 4 == 0 and node != hub:
                yield node, hub


def _label(i):
    # Labels interned in an order unrelated to the node numbers.
    return f"n{(i * 37) % (GROUPS * SIZE)}"


GRAPH = "".join(f"{_label(a)}\t{_label(b)}\t{1 + (a * b) % 5 / 2}\n"
                for a, b in _edges())

TOP_T = [[], ["--top-t", "1"], ["--top-t", "3"], ["--top-t", "10"]]
CASES = (
    [["--l", l, *t, *h] for l, t, h in itertools.product(
        ["1", "2", "3", "inf"], TOP_T, [[], ["--hierarchy", "auto"]])]
    + [["--method", m, *t] for m, t in itertools.product(
        ["degree-discounted", "bibliometric"], TOP_T)]
    + [["--epsilon", "0.05"],
       ["--epsilon", "0.05", "--hierarchy", "auto"],
       ["--hub-cap", "15"],
       ["--hub-cap", "15", "--l", "inf", "--top-t", "3"],
       ["--precision", "0"],
       ["--precision", "17"],
       ["--precision", "17", "--method", "bibliometric", "--top-t", "3"],
       ["--method", "degree-discounted", "--weighted"],
       ["--method", "degree-discounted", "--weighted", "--top-t", "3",
        "--precision", "17"]])

SHA256 = {
    "--l 1":
        "34b78b7f1df1274ea4f0beb8cd1edc1b218a389cab26180d1d33334ab0904fe5",
    "--l 1 --hierarchy auto":
        "22e98aa3d33ce61f1a56f84bccdf67d6e7f844e28df9323c9c4a8099b4f21def",
    "--l 1 --top-t 1":
        "4d342fe2980448ee643ee254919648baf59c51fd6fb981b6aad7a1b9f2e9f59d",
    "--l 1 --top-t 1 --hierarchy auto":
        "e269310496e08f2d95960bb1a97c19ec61e0d2e8cfbfb660f7ff520517d0e815",
    "--l 1 --top-t 3":
        "64740c49514ba673632f5fa0bc2211b5fc2ba84cf4f24e6352d1e93419a041d9",
    "--l 1 --top-t 3 --hierarchy auto":
        "75174f668f608d02c5b5e2ee4c2f3cbbaca94295412e6d7738a56c1d4e28f093",
    "--l 1 --top-t 10":
        "df66056632ad3f4b6160efb9cfcba78872f85ad53622ab9493a72a77bb6980cb",
    "--l 1 --top-t 10 --hierarchy auto":
        "d98084b26197ea41cec8e20fa31d692f80e47151888810f63a0418225ed7fc6d",
    "--l 2":
        "4655ab1b230023119b78f22426d35a2f04c60319512d244c25bb89d0b8e9d4cf",
    "--l 2 --hierarchy auto":
        "2e6339431eca1c55d87a68cbcc4931701f05252ebc69b576f8b99b423860184b",
    "--l 2 --top-t 1":
        "5f291e6b9d279d02a52dae4fabdaf24cba05d5062fb1f1e1e52ef8197d7231b9",
    "--l 2 --top-t 1 --hierarchy auto":
        "aac3a7b093426069ac0bf025aec56771b6d73755e4ee7d91550c12f545249457",
    "--l 2 --top-t 3":
        "ec84227d5be77d4920dcab588e1fd609db1a71e3146f08b354e9f867d376d049",
    "--l 2 --top-t 3 --hierarchy auto":
        "947a1b2be2cfad214919a8ab7a6faf669a8ab930f72863083791c29a3541a6ed",
    "--l 2 --top-t 10":
        "eacb660f199c6b853060085f843d7180250cc9df48b367ce236ba2fa30e74735",
    "--l 2 --top-t 10 --hierarchy auto":
        "fc668f0c220b95308847e13084c82b4dd1cc45657f1ff72341f6f4571a9bf121",
    "--l 3":
        "69654f0c47c33819ce57850399950d45a31a6bff6146f8fe3e7c95057abd6c4a",
    "--l 3 --hierarchy auto":
        "a25f805238532028330aece91c181514bbbdc276c83467331b119ae93c1e99e8",
    "--l 3 --top-t 1":
        "425a01faf4437f02ca8f12de4615a139368a12b68fe1a334f9833934b6936286",
    "--l 3 --top-t 1 --hierarchy auto":
        "a64f911c105cb9db64302226b253f57654accad0b1e805dfd82ea87b6247c5ad",
    "--l 3 --top-t 3":
        "871ee9c553c6e576edbda102d7beaed70d026a473d1a16eac1b3eabc5ed44a25",
    "--l 3 --top-t 3 --hierarchy auto":
        "a80121809953aa9ed51d4f5d5527c5e4991f8c42d773d55795742005a3be434b",
    "--l 3 --top-t 10":
        "eb7798af5fd8a61e382664e2d5897c79f014ca8c90a1818f7a98501a87176685",
    "--l 3 --top-t 10 --hierarchy auto":
        "b75f574e4d5f349ea80813b3a6ed309a8b5aad57cbf05b3383164b8eaf4f55df",
    "--l inf":
        "7353bca29850bb93d7a517c249912aa09f3283ca69768da699731be3abb9ec8b",
    "--l inf --hierarchy auto":
        "220071ed79b3ee9bb4740d6734436a6886fa17c8b80acf86d1e2a204b168d830",
    "--l inf --top-t 1":
        "b40418cc69eff34cc9ca2ef51640ef9fe32800ce0c87b50330a354f0b6207cb9",
    "--l inf --top-t 1 --hierarchy auto":
        "e91daf84be858d2c9782fed2fcfd65b69bd35bb5f0c235e44bceddbf588bc27d",
    "--l inf --top-t 3":
        "5832ffc3ce7621e785acd3b8bcea5a9787dfa1dde0bbeb0df0f0a4c953e41eb9",
    "--l inf --top-t 3 --hierarchy auto":
        "fc1db144ac3ab79f8aaebaff10e0036cc1e797673b175f82c2ad6a6d226e2e24",
    "--l inf --top-t 10":
        "7686a8613d02fea2a452f56cef9d2caf5cdd2f276ce88cf1f43e376a8c0b22d6",
    "--l inf --top-t 10 --hierarchy auto":
        "2c527c117aee5455b71ff96393438a874138a8b315477b527d9826f14573169d",
    "--method degree-discounted":
        "34b78b7f1df1274ea4f0beb8cd1edc1b218a389cab26180d1d33334ab0904fe5",
    "--method degree-discounted --top-t 1":
        "4d342fe2980448ee643ee254919648baf59c51fd6fb981b6aad7a1b9f2e9f59d",
    "--method degree-discounted --top-t 3":
        "64740c49514ba673632f5fa0bc2211b5fc2ba84cf4f24e6352d1e93419a041d9",
    "--method degree-discounted --top-t 10":
        "df66056632ad3f4b6160efb9cfcba78872f85ad53622ab9493a72a77bb6980cb",
    "--method bibliometric":
        "9f51a7a8411ad1016ab43e285fad2d0ad9889fb2540d9811f6fbe461d064b30f",
    "--method bibliometric --top-t 1":
        "91f94eb882729abdce5b8c7689925047d325318f9639c45b2f4c3933300642a5",
    "--method bibliometric --top-t 3":
        "3b733f4402275076a094042079c0b9011af2ff99773a58a1ccbd0ee77663d6c1",
    "--method bibliometric --top-t 10":
        "b5677902ab2ec766037ae96649a14860c1ea4909803487a84d5cf375f458f003",
    "--epsilon 0.05":
        "627e76116a62856961dabeb067eded642ea90873b11296ee757a64bce88b63ca",
    "--epsilon 0.05 --hierarchy auto":
        "0eb5035f389b573ede06f0fa50b888240ad85d47439a0451ce1bee1f49a8de51",
    "--hub-cap 15":
        "7133e88f6bdcc9955be9488a819c8a9b3b6770da8b0ecf3f8111a12b6f65a9ed",
    "--hub-cap 15 --l inf --top-t 3":
        "14f347d3cfad4d2d5a8ed914613ab990244b4838199de81384adf55f49c072f1",
    "--precision 0":
        "dfe000753868d09baef6a2dba66e83b0330ef7b97fdca967c7410268a3ad0d4a",
    "--precision 17":
        "fd46c86b1288de00d258d353910b6091f235fdc030a342635cc3a1bd1e14a8bd",
    "--precision 17 --method bibliometric --top-t 3":
        "a0c3dad42d629a6350db4fc10df3934b8fd0bed1919071429a9a6dc11d615ae8",
    "--method degree-discounted --weighted":
        "7331d6fd6b0401d995767d44d7889509283a921e8da14ff5a8824fb33e5d110b",
    "--method degree-discounted --weighted --top-t 3 --precision 17":
        "e779148c3d857c009d5fef26d2b9432d9517b168683c04ee7e28f9fa802448d1",
}


def output_sha256(tmp_path, flags):
    inp, out = tmp_path / "g.tsv", tmp_path / "out.tsv"
    inp.write_text(GRAPH)
    assert main(["symmetrize", *flags, "-i", str(inp), "-o", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.filterwarnings("ignore:hub cap:UserWarning")
@pytest.mark.parametrize("flags", [" ".join(c) for c in CASES])
def test_output_bytes_unchanged(tmp_path, flags):
    assert output_sha256(tmp_path, flags.split()) == SHA256[flags]


if __name__ == "__main__":
    import pathlib
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            flags = " ".join(case)
            print(f'    "{flags}":\n'
                  f'        "{output_sha256(pathlib.Path(tmp), case)}",')
