"""Golden outputs: the bundled sweep, compare and export write the same
bytes as before.

Changes meant to speed things up or simplify must not change any file these
commands write.  The sweep digests were taken from `sweep --kappa 2,3
--epsilon 1,2,3,4,5 --seed 0` on each bundled dataset before masked share
fields replaced the per-share subgraphs; geant skips kappa=3, epsilon=1 as
infeasible.  The compare digests were taken from `compare --kappa 2
--epsilon 2 --sa-iterations 3 --sa-cooling 0.5` before the command-line
flags were checked by their argparse types; `compare.csv` is pinned without
its wall-clock `runtime_ms` column, and the oracle row reads `nan` because
the enumeration guard trips on both datasets.  The export digests are of
`export --pd 2`: internet2's taken at the same commit, geant's before the
model stopped storing its variable table.  Re-pin them only for a change
that is meant to alter the outputs, and say why.
"""

from __future__ import annotations

import hashlib

import pytest

from orbitlb import dataset_path
from orbitlb.cli import main

GOLDEN = {
    "internet2": {
        "events_k2_e1.csv": "3ad476356cd6af6a70adf8d526453ff2adf4c0baeb6ef7ae2368876aa2b4d150",
        "events_k2_e2.csv": "939c6c8ffdedf4d561c71391a4e30cd141ee62d3f81b2c14f07dca0c8762c848",
        "events_k2_e3.csv": "f48f701fe0d7492e1783d4a628c6ecabd19b24744a4bce99cdaf538e2b2591aa",
        "events_k2_e4.csv": "25c6ef706288a8187a67609f3ee03fe2f9aaa28798976027f5c708f3b151d7a9",
        "events_k2_e5.csv": "031c111d0c25f1a82fa3beff50c122f8e8e6d776f2d83a35e8790e933ab0ba52",
        "events_k3_e1.csv": "2993359119a294c91374187cd6dba742adf02a8a9fc1cbb500acf638fcdebe4f",
        "events_k3_e2.csv": "0249035e31bbefbdd204b9f60c63b7a6dc931f6b16a4a6384f31d6611545b79e",
        "events_k3_e3.csv": "d739ff1c3b49eb5a0fea5a08a01b2a623c7a3577df7cbf7cfb315ced0d1e49c1",
        "events_k3_e4.csv": "e5a652e51a4e4a174625e00f79e5c7ca495950f351e521ea1be8ad6f824eb6b9",
        "events_k3_e5.csv": "387434d570c4c49d7545b57ded0d2af06088cc453438323b9e58fdc7f0128f4e",
        "guarantees_k2_e1.txt": "fc02d792830bb70949508252de220442c12825b165d940295c042037d0f14ee8",
        "guarantees_k2_e2.txt": "1012c13d9b84a3dccf8fa9247c89f3d75265a93c7699ac0a378543c10c86e82d",
        "guarantees_k2_e3.txt": "6a3c8522def82612dcedf8feb53d39b5c63045ffae875b44469561baf4281f77",
        "guarantees_k2_e4.txt": "08d4b922c2035d80c9762641cdf8a24a8ce4eca604716e243bd3a7c6835220c7",
        "guarantees_k2_e5.txt": "2112d0559af49176c162a1ccda39c2a70fda84dc5724115f12432798af3e78d1",
        "guarantees_k3_e1.txt": "b5ebafbdc4d86a865ac85f01beb09c7185345bd74df10aa31c57ef70cfd791c2",
        "guarantees_k3_e2.txt": "f92e11aa3e5440ab5cd36292b5424a87c83c46e2120f7dd7effecf453bb3b4eb",
        "guarantees_k3_e3.txt": "d9f9d057e20bdf737e7e3328fd8f94115b14089510be668c8b64cd62ba848185",
        "guarantees_k3_e4.txt": "d25a14c7a5547b1266326887b5f274d46b1c61e25500c82c3efbe4f8d26689fc",
        "guarantees_k3_e5.txt": "7ae11868c6090e04d5701149713478bb0a57a8d385bdc1310cc1582199094e58",
        "sweep.csv": "2602c3d99b2e6e94e6c5a63ac0a2ad0c8571839306fe42ecc1d5f6c37e2286c5",
    },
    "geant": {
        "events_k2_e1.csv": "459be3358a51300ed51176d089c704e76a7155feca4397672d20591721b8a779",
        "events_k2_e2.csv": "fa864da734310a2c0ea97028048b8ed38502f1cc2872c02d2c3cf998dfd3715d",
        "events_k2_e3.csv": "23630887b2289b04820d06f5205806b5b14e98eb617dbd7c56ad2173ce492436",
        "events_k2_e4.csv": "90e4e3a0f4fb14d7b899a6d2cd1d809917e4721c44c0bbfba40c6938f989edf0",
        "events_k2_e5.csv": "288a0f5fd3daa0d660429b62667bf6efe48a90446077eadf891509073d79ffa9",
        "events_k3_e2.csv": "90cfa5e2996498475302a9e62aabcdb079c415ccb8e3018dae0041da2c8861ab",
        "events_k3_e3.csv": "adf73625c018e9e226da34b5541ee2cd4d1e3b2c7ba162dbe587b92bb5b3f82b",
        "events_k3_e4.csv": "c0fd6d425c1bab487586c58d4f6c1a3d9b8c0c699e4dd2db7890d13bbcbf7260",
        "events_k3_e5.csv": "524a4c490844a35e549232b2e94fa407998596132b74de1ffab080571113af48",
        "guarantees_k2_e1.txt": "b5753e6df5631ccaad987fe32241bc7b7b13495210ac4315bb2c9ff275d21846",
        "guarantees_k2_e2.txt": "a5a7b35bd33f422fc4e493f32e13fa341e42479f1aa568e83a60270130a9d37a",
        "guarantees_k2_e3.txt": "1f32e706ced8ca0ba28f01e2f08d8ade47f8d8334741378bec952f1ff8367b70",
        "guarantees_k2_e4.txt": "11b75c10dee15893aa3248669131c38f8de489eab448f91f64f18d762ef3090b",
        "guarantees_k2_e5.txt": "ab633c0ac2dc446e072bed121606cc23933010fdd9509e9e1f100de063e49907",
        "guarantees_k3_e2.txt": "c34ac0a3275f7ea2f4b0e2aa969b1b395987d67b239b2a8a6a63867d68b53049",
        "guarantees_k3_e3.txt": "db043ce6d2742432956d5569f3c086dee807cc3cd521f39e1fc5ca2912a2cf87",
        "guarantees_k3_e4.txt": "89ede7415080d7b4bac7cf12560cae1f03d8c68f598d9becbf9c608322e94c55",
        "guarantees_k3_e5.txt": "d9abc4a392c52b8d31bf84228511d0eb9d2090a88faabdc85c847447d89066fe",
        "sweep.csv": "37dea2ca3da5e25e4eba5eb5c39d22b5ba87673758b868f263d0f3f2f9294745",
    },
}


@pytest.mark.parametrize("dataset", sorted(GOLDEN))
def test_sweep_outputs_match_pinned_digests(dataset, tmp_path):
    out = tmp_path / dataset
    code = main([
        "sweep",
        "--topology", dataset_path(f"{dataset}.topo"),
        "--demands", dataset_path(f"{dataset}.demands"),
        "--kappa", "2,3",
        "--epsilon", "1,2,3,4,5",
        "--seed", "0",
        "--out", str(out),
    ])
    assert code == 0
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
    }
    assert digests == GOLDEN[dataset]


COMPARE_GOLDEN = {
    "internet2": {
        "compare.csv": "f5967643032199a3b48e30d52c7a0c4aa70ca9258e7cbbbb1699474f4efb0e30",
        "events_compare.csv": "939c6c8ffdedf4d561c71391a4e30cd141ee62d3f81b2c14f07dca0c8762c848",
        "guarantees_compare.txt": "1012c13d9b84a3dccf8fa9247c89f3d75265a93c7699ac0a378543c10c86e82d",
    },
    "geant": {
        "compare.csv": "6fe3c02726eacadd5ab6a6b43c24c2d4e09d36a5794c63effdaa71790a00afd5",
        "events_compare.csv": "fa864da734310a2c0ea97028048b8ed38502f1cc2872c02d2c3cf998dfd3715d",
        "guarantees_compare.txt": "a5a7b35bd33f422fc4e493f32e13fa341e42479f1aa568e83a60270130a9d37a",
    },
}

EXPORT_GOLDEN = {
    "internet2": {
        "model.lp": "850cd479ea6246d5a9322fbdfafa8a52aa76957235fbd6be32f39a1244662c19",
    },
    "geant": {
        "model.lp": "7c61e32d363cc060c3852aa753288a31a2aa058820eb8d978df25296adf6b6a4",
    },
}


def _without_runtime(csv: bytes) -> bytes:
    lines = csv.decode().splitlines()
    return ("\n".join(",".join(line.split(",")[:3]) for line in lines) + "\n").encode()


@pytest.mark.parametrize("dataset", sorted(COMPARE_GOLDEN))
def test_compare_outputs_match_pinned_digests(dataset, tmp_path):
    out = tmp_path / dataset
    code = main([
        "compare",
        "--topology", dataset_path(f"{dataset}.topo"),
        "--demands", dataset_path(f"{dataset}.demands"),
        "--kappa", "2",
        "--epsilon", "2",
        "--sa-iterations", "3",
        "--sa-cooling", "0.5",
        "--out", str(out),
    ])
    assert code == 0
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    files["compare.csv"] = _without_runtime(files["compare.csv"])
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
    assert digests == COMPARE_GOLDEN[dataset]


def test_export_model_matches_pinned_digest(tmp_path):
    for dataset, golden in sorted(EXPORT_GOLDEN.items()):
        out = tmp_path / dataset
        code = main([
            "export",
            "--topology", dataset_path(f"{dataset}.topo"),
            "--demands", dataset_path(f"{dataset}.demands"),
            "--pd", "2",
            "--out", str(out),
        ])
        assert code == 0
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
        }
        assert digests == golden, dataset
