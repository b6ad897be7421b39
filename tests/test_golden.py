"""Byte-level guard on the CLI outputs of the shipped scenarios.

A change that is meant to keep every number the same (a refactor, a
deletion) must leave these digests alone.  A change that is meant to move
numbers updates them and says why.  ``manifest.json`` is left out: it
lists the tolerances and the version, which may change without any output
changing.
"""

import hashlib
from pathlib import Path

import pytest

from egl.cli import main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

RUNS = {
    f"{command}-{name}": [command, "--scenario",
                          str(SCENARIOS / f"{name}.json")]
    for name in ("reference", "scarce_growth", "shocks")
    for command in ("equilibrium", "simulate")
}
RUNS["simulate-arrivals"] = ["simulate", "--scenario",
                             str(SCENARIOS / "arrivals.json")]
RUNS["statics-sweep_family"] = [
    "statics", "--family", str(SCENARIOS / "sweep_family.json"),
    "--trials", "60", "--seed", "3"]

#: sha256 of each output, keyed by "<run>/<file>"
DIGESTS = {
    "equilibrium-reference/demand.csv":
        "0fe5dadac7d693e4e3e2c7225b59fba7018b18738476c780755485f5c5168779",
    "equilibrium-reference/equilibrium.csv":
        "36c536f2919759bbb40f19ff2ff09114375ca39172b5f9f912d7e7ee6d9d5c92",
    "equilibrium-reference/figure1_grain.svg":
        "1fd46d0dea9df15aaba96119ddca7e8a2279eb39b7a44105be8483de1288b1e7",
    "equilibrium-reference/meec_grain.csv":
        "b716e885266787ec6a4a2cf73107080ab13a087e6c459951626059493c0f12ae",
    "equilibrium-scarce_growth/demand.csv":
        "bacb1880948e266bbf8c90b2e1c25992bbf3d494aeff378ca56bc337701432de",
    "equilibrium-scarce_growth/equilibrium.csv":
        "af3023351244bae0554a0e4294ba10be7ea1e29a83a8c6fe29d1816c7ac01369",
    "equilibrium-scarce_growth/figure1_grain.svg":
        "7d79c2587b07e2f265f78a0b3324f7d385f2ad7ecefa372113afaa04eb721d1a",
    "equilibrium-scarce_growth/meec_grain.csv":
        "98a4e4e83f3faa8642b7847b8bcc26011ed4ca65887adba7430673baaf4b06c6",
    "equilibrium-shocks/demand.csv":
        "f14aa4fcfaf3f335e54953fa891befff34fdf12c00ad205f40635394e3dfaa07",
    "equilibrium-shocks/equilibrium.csv":
        "3a8a7268a7418557c441407472f03e3f0d9a7073e12024ebfe1521ea161c9444",
    "equilibrium-shocks/figure1_wood.svg":
        "51cfe1cf53e21b7e35e6d4b3a8b36778fff14365b8792826897a606339c01b07",
    "equilibrium-shocks/meec_wood.csv":
        "c8c123451da385a76b46ff8b14a26fc0da4e181f31e36dc598787721603fb247",
    "simulate-arrivals/figure2.svg":
        "2f4e31d06276361227f1f7e7607b4621e8912fbbe7667f04bc24b79cb756007c",
    "simulate-arrivals/trajectory.csv":
        "5e96da895ba71ed4a2afb9c21e80634af7189d6949301e1f37c461d11dd8aa57",
    "simulate-reference/figure2.svg":
        "6761254593bdd5eca955872bb467fea0bee8bdd7d0a319e0238dc272bb1461e8",
    "simulate-reference/trajectory.csv":
        "2b7351c32952b3484261792d114bf6541e900679ec501e36f6e112f7d12e2579",
    "simulate-scarce_growth/figure2.svg":
        "181b153906e14ee93233e832a3fb9e65f174595a1452ac56b55581947e5350fe",
    "simulate-scarce_growth/trajectory.csv":
        "1dbaa4c2dc63812d44fee3ca60f9432ea4b5721182507988ebfd67be0dcb9d92",
    "simulate-shocks/figure2.svg":
        "3959035f2a76fef1217ddb55026501059d4f19ec7b60a73f79be354b6a84a9d2",
    "simulate-shocks/trajectory.csv":
        "ced20d4d09e45fcfe64e58d7ad895be5880271a6e3dc08c03cdeed7a9db5d458",
    "statics-sweep_family/failures.csv":
        "91847c345f0676a57ef880eaeec73cd1853c021a796de7d7155258032eff8472",
    "statics-sweep_family/sign_table.csv":
        "d5770bfecdcb388f99e29241b5340232ed44278523912742ed4f1c642736ff9c",
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_outputs_match_recorded_digests(run, tmp_path):
    out = tmp_path / run
    assert main(RUNS[run] + ["--out", str(out)]) == 0
    got = {f"{run}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest()
           for f in out.iterdir() if f.name != "manifest.json"}
    assert got == {key: digest for key, digest in DIGESTS.items()
                   if key.startswith(f"{run}/")}
