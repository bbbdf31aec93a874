"""Golden digests: the exact bytes of small seeded CLI outputs.

The determinism tests elsewhere compare two runs of the same code; these pin
the sha256 of every file a few small commands write, so a rewrite of the
writers, the sweep cell runner or the measure path that changes one output
byte fails here.  Re-pin only for a declared change of the output format or
of the RNG stream.
"""

import hashlib
import subprocess
import sys

import pytest

SWEEPS = {
    "rbn": (
        ["sweep", "rbn", "--preset", "desk", "--seed", "42", "--instances", "4",
         "--window", "64", "--transient", "32", "--n", "16", "--k-grid", "1,3",
         "--scales", "1,2"],
        {
            "rbn_sweep_instances.csv":
                "b291f559733f7e92786e9fb1ff8766aeb30989c3004f642db6da3b88e7d78a35",
            "rbn_sweep_aggregate.csv":
                "43a4ef618be2a2ac2eb2548f26fd40887426754ec9edd21dc375f33bef47073d",
            "rbn_sweep_instances.json":
                "cbb14962692292002d0c42e866367e21b0a96c5cbcaf2539f6de4c0ae2da8a33",
            "rbn_sweep_aggregate.json":
                "557ab93695d367d893bb5d2db9ec93d216d46e02271d9e82e1724b23b5957397",
        },
    ),
    "eca": (
        ["sweep", "eca", "--seed", "7", "--rules", "0,30,54,110", "--instances", "3",
         "--window", "64", "--transient", "16", "--n", "32", "--scales", "1,2,4"],
        {
            "eca_survey_instances.csv":
                "003156c5f475848de5d349b2df20d74f35895c8c1cd044895c74476afb7c95fe",
            "eca_survey_aggregate.csv":
                "2265890273a6f4b9ff5afcee3129eaa057322bcf3a02a211dfcd9b65a90f63c8",
            "eca_survey_instances.json":
                "33ebf72cdb488b8cf74003018bd7438a362b467eb70e60ab133b9724d9e0af90",
            "eca_survey_aggregate.json":
                "87881f9b9fb3f256154650d3ee353ace8306493b396cd9850254532d8e9757c0",
        },
    ),
    "profile": (
        ["sweep", "profile", "--seed", "3", "--rules", "1,30", "--instances", "2",
         "--window", "64", "--transient", "16", "--n", "32", "--scales", "1,2,4"],
        {
            "eca_profiles_instances.csv":
                "c9d26444f2d317f1f99ff50acbb2aa9330e979a7c8a19c2ee90296e17ae0e59e",
            "eca_profiles_aggregate.csv":
                "7070067ddec8617a2a8e43f280741d8621894d1b292bd10d58fab03d684fc3d6",
            "eca_profiles_instances.json":
                "f2546e33963be25ebbebfd8ff9d495ccb444c8402d01a91dd3e3e5f5f94ffad7",
            "eca_profiles_aggregate.json":
                "b2f836dba33ee95b97a45e2bcf45cd7aad9bb6c38f1902980d6f65f3ab50a636",
            "eca_profiles_h_baseline.csv":
                "250b0b31dd2a6c60ae850a4f80fdfe857ce99135ea351146b95fd8fb669d2236",
        },
    ),
}

REPORTS = {
    "measure_json": (
        ["measure", "{bits}", "--format", "json", "--scales", "1,2,3,4,8,16"],
        "fb55407b69b56e45e43d55f9582884e5c164e15f8f5f1fcce907d8f5fefaf41f",
    ),
    "measure_csv": (
        ["measure", "{bits}", "--scales", "1,2,3,4,8,16"],
        "43e78dcb9f1a2ffe7f15098ce9790a4a76c9b670a6d15b12f4ce6624b6e52f14",
    ),
    "rbn_json": (
        ["rbn", "--n", "16", "--k", "2.5", "--transient", "8", "--window", "32",
         "--seed", "3", "--scales", "1,2,4", "--format", "json", "--average-h"],
        "27cce9e9184e3e99d7d67edae1a0149b29efe97b57a5f53e43b4f08b663fbfd7",
    ),
    # scale 32 does not fit the 40-step window: pins the null row
    "eca_csv": (
        ["eca", "--rule", "110", "--n", "24", "--transient", "8", "--window", "40",
         "--seed", "5", "--scales", "1,2,4,32", "--orientation", "diagonal"],
        "b71bb311cc92f4335b1c9a2ccfa9ef07b12f224f911fe703ee6e676f3bba0608",
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _bit_text() -> str:
    """4096 fixed pseudo-random bits (sha256 in counter mode), no numpy RNG."""
    stream = b"".join(hashlib.sha256(str(i).encode()).digest() for i in range(16))
    return "".join(format(byte, "08b") for byte in stream)


def _run(args, cli_env):
    proc = subprocess.run(
        [sys.executable, "-m", "infodyn", *args],
        capture_output=True, env=cli_env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc


@pytest.mark.parametrize("what", sorted(SWEEPS))
def test_sweep_file_digests(what, tmp_path, cli_env):
    args, pinned = SWEEPS[what]
    _run([*args, "--output-dir", str(tmp_path)], cli_env)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(pinned)
    digests = {name: _sha256((tmp_path / name).read_bytes()) for name in pinned}
    assert digests == pinned


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_digests(name, tmp_path, cli_env):
    template, pinned = REPORTS[name]
    bits = tmp_path / "bits.txt"
    bits.write_text(_bit_text())
    args = [arg.format(bits=bits) for arg in template]
    assert _sha256(_run(args, cli_env).stdout) == pinned
