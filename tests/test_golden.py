"""Golden digests: the exact bytes of small seeded CLI outputs.

The determinism tests elsewhere compare two runs of the same code; these pin
the sha256 of every file a few small commands write, so a rewrite of the
writers, the sweep cell runner or the measure path that changes one output
byte fails here.  Re-pin only for a declared change of the output format or
of the RNG stream.  A ``None`` digest marks a file that must be written but
is not pinned.
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
                "72f0a291be462e25c827d651e7c237ef4e0c642bdb9670222e6aa6100e1b67c9",
            "rbn_sweep_aggregate.json":
                "7baafb6a33f598d62ccc844d216c33f0167d5b8d66cdfb6121a8d162e0f1a90b",
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
                "393627d62c966384c45a00c0871075d73e5c894ad801cb31390b505dd198591b",
            "eca_survey_aggregate.json":
                "f24a97f8a35924741c280451f8bf84d9e62aabe3b691c8e64a9d47ce87d9aa2b",
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
                "0ed2e4f15ea49f406744ef9f134def5bfe31dea59c1d202ab25044a2d381b214",
            "eca_profiles_aggregate.json":
                "61dbe63f881acf8b3ab4b20ad2baf9402352ddde70a4645c5c4042430eab4c26",
            "eca_profiles_h_baseline.csv":
                "250b0b31dd2a6c60ae850a4f80fdfe857ce99135ea351146b95fd8fb669d2236",
        },
    ),
    # 2**b > groups at b=8 and b=16: the sparse regime, where b=16 sits at
    # the plug-in ceiling log2(16)/16; pinned before the counter was rewritten
    "profile_sparse": (
        ["sweep", "profile", "--seed", "11", "--rules", "30,110", "--instances", "2",
         "--window", "256", "--transient", "16", "--n", "32", "--scales", "1,8,16"],
        {
            "eca_profiles_instances.csv":
                "0b45dd54d501b1d38fd0b1d2cd4849f9d24cbba2cde1cc0a170530b9f3708098",
            "eca_profiles_aggregate.csv":
                "c98b96afe6598b1df639a6ec63ead7ae9e2ee11f8a2a2b0de9549033d05e3bfb",
            "eca_profiles_instances.json": None,
            "eca_profiles_aggregate.json": None,
            "eca_profiles_h_baseline.csv":
                "6df0fa195eda3b36bd8997925fb876a1886048f2cfc5177b24752915e717f21f",
        },
    ),
}

REPORTS = {
    "measure_json": (
        ["measure", "{bits}", "--format", "json", "--scales", "1,2,3,4,8,16"],
        "a5014636e31b064d9b93241fede4cc3b0d15af0414fbead916e29df163167685",
    ),
    "measure_csv": (
        ["measure", "{bits}", "--scales", "1,2,3,4,8,16"],
        "43e78dcb9f1a2ffe7f15098ce9790a4a76c9b670a6d15b12f4ce6624b6e52f14",
    ),
    "rbn_json": (
        ["rbn", "--n", "16", "--k", "2.5", "--transient", "8", "--window", "32",
         "--seed", "3", "--scales", "1,2,4", "--format", "json", "--average-h"],
        "257c446931b370038881722be3c8e8c79b086ae81dceaa7ad6275c7a4d68f398",
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
    pinned = {name: digest for name, digest in pinned.items() if digest is not None}
    digests = {name: _sha256((tmp_path / name).read_bytes()) for name in pinned}
    assert digests == pinned


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_digests(name, tmp_path, cli_env):
    template, pinned = REPORTS[name]
    bits = tmp_path / "bits.txt"
    bits.write_text(_bit_text())
    args = [arg.format(bits=bits) for arg in template]
    assert _sha256(_run(args, cli_env).stdout) == pinned
