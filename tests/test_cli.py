"""End-to-end exercises of the command-line harness.

Commands run as a subprocess (``python -m rnsckks.cli ...``) so the
tests observe exactly what a shell user would: the stdout report, stderr
notes, and the exit status; the cases that fail before any command runs
call `cli.main` in-process, as does one executed transform.  Report
lines are pinned byte-for-byte where the contract promises determinism
under a fixed seed.
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys

import pytest

from rnsckks import cli, serial
from rnsckks.ckks import CkksParams


# sha256 of each report's stdout at the default seed, taken before the
# kernels and plaintext paths were last rewritten: a rewrite must leave every
# report byte, and the key-file digests keygen reports, as they were.
STDOUT_SHA256 = {
    "selftest":
        "192e91738422bf982c31b5955ad0ecf098ddaf8f75d4994cbbedbb43d3992b8d",
    "hdft":
        "f389b251637fb3424ee6c3a6f7445a258eb9e7dee27d4eee7d5a635bcaa453fd",
    "hdft --n 16 --k 2 --variant baseline":
        "b8d7a0660175384945991a1c58f23fe2a29dbb41ab1dae6cd2047e4b83592d8c",
    "hdft --n 16 --k 2 --variant minks":
        "cad2739685dcfa2097c94d3653884754a5167e8d5a3cda6aaddbffb7ef27587b",
    "hdft --analytic-only":
        "b1bf17c6c59aa664066423922aa70443d23a3e052b3c4487bb66ead6b5d100ef",
    "sizes":
        "61799f759e634e55639bb829534d646b8c607eef1ad1cccbdc542eb6bdcf892f",
    "keygen --n 16":
        "9d382b06a4515f1abbc68b75006510a6bf7167db0f13cb1e139ed7461fc9d3e0",
    "bench":
        "2223ac4c9f0767915b61513aa9fcb6bad2316418e0b14d1e8886b5ad2094bc57",
}


def run_cli(*args: str, timeout: float = 600.0) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "rnsckks.cli", *args],
                          capture_output=True, text=True, timeout=timeout)


def assert_stdout_pinned(proc: subprocess.CompletedProcess, report: str):
    got = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert got == STDOUT_SHA256[report], \
        f"{report} report changed:\n{proc.stdout}"


def line_with(proc: subprocess.CompletedProcess, prefix: str) -> str:
    hits = [ln for ln in proc.stdout.splitlines() if ln.startswith(prefix)]
    assert len(hits) == 1, f"expected one line starting {prefix!r}:\n{proc.stdout}"
    return hits[0]


@pytest.fixture(scope="module")
def executed16():
    """Baseline and grouped runs of the same seeded size-16 roundtrip,
    plus a repeat of the grouped run for the determinism check."""
    base = run_cli("hdft", "--n", "16", "--k", "2", "--variant", "baseline")
    mks = run_cli("hdft", "--n", "16", "--k", "2", "--variant", "minks")
    again = run_cli("hdft", "--n", "16", "--k", "2", "--variant", "minks")
    return base, mks, again


# ---------------------------------------------------------------------------
# Parser surface.

def test_help_lists_every_command():
    proc = run_cli("--help")
    assert proc.returncode == 0
    for name in ("selftest", "hdft", "sizes", "keygen", "bench"):
        assert name in proc.stdout


@pytest.mark.parametrize("flag,value", [("--variant", "fastest"),
                                        ("--profile", "gpu")])
def test_unknown_choice_is_rejected(flag, value):
    proc = run_cli("hdft", flag, value)
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


def test_option_a_command_does_not_read_is_rejected():
    proc = run_cli("sizes", "--variant", "minks")
    assert proc.returncode == 2
    assert "unrecognized arguments: --variant" in proc.stderr


# ---------------------------------------------------------------------------
# sizes: the published table, in both byte units, deterministically.

def test_sizes_rows_match():
    proc = run_cli("sizes")
    assert proc.returncode == 0
    assert_stdout_pinned(proc, "sizes")
    lines = proc.stdout.splitlines()
    assert lines[0] == "# rnsckks-report v1"
    assert "result: 4/4 rows match" in lines
    for name in ("lattigo", "100x", "f1", "ark"):
        row = line_with(proc, f"row {name}:")
        assert row.endswith("ok")
        assert "MiB" in row and "MB)" in row


def test_sizes_deterministic_and_out_mirrors(tmp_path):
    out = tmp_path / "sizes.txt"
    first = run_cli("sizes")
    second = run_cli("sizes", "--out", str(out))
    assert first.stdout == second.stdout
    assert out.read_text() == second.stdout


# ---------------------------------------------------------------------------
# hdft --analytic-only: the traffic/intensity table for a wide machine.

def test_analytic_report_is_pinned_and_deterministic():
    first = run_cli("hdft", "--analytic-only")
    again = run_cli("hdft", "--analytic-only")
    assert first.returncode == 0
    assert first.stdout == again.stdout
    assert_stdout_pinned(first, "hdft --analytic-only")
    lines = first.stdout.splitlines()
    for pinned in (
            "profile: ark",
            "mode: analytic",
            "schedule: size=2^15 k=5 split=3+3",
            "pass idft variant baseline: offchip_bytes 7123501056 "
            "mults 7779385344 evk_loads 40 ops_per_byte 1.092",
            "pass idft variant minks: offchip_bytes 3008888832 "
            "mults 7785545728 evk_loads 6 ops_per_byte 2.588",
            "pass idft variant minks-oflimb: offchip_bytes 828899328 "
            "mults 10064625664 evk_loads 6 ops_per_byte 12.142",
            "pass idft grouped intensity gain: 2.369x",
            "pass idft cumulative intensity: 12.142 ops/byte",
            "pass idft traffic cut: 88.4%",
            "pass dft variant baseline: offchip_bytes 821035008 "
            "mults 1127743488 evk_loads 40 ops_per_byte 1.374",
            "pass dft variant minks: offchip_bytes 459276288 "
            "mults 1124728832 evk_loads 6 ops_per_byte 2.449",
            "pass dft variant minks-oflimb: offchip_bytes 162004992 "
            "mults 1521090560 evk_loads 6 ops_per_byte 9.389",
            "pass dft grouped intensity gain: 1.783x",
            "pass dft cumulative intensity: 9.389 ops/byte",
            "pass dft traffic cut: 80.3%"):
        assert pinned in lines, f"missing report line: {pinned}"


@pytest.mark.parametrize("profile", ["desk", "lattigo", "100x", "f1"])
def test_analytic_report_covers_every_profile(profile):
    proc = run_cli("hdft", "--analytic-only", "--profile", profile)
    assert proc.returncode == 0
    assert f"profile: {profile}" in proc.stdout.splitlines()
    for label in ("idft", "dft"):
        assert line_with(proc, f"pass {label} traffic cut:").endswith("%")


# ---------------------------------------------------------------------------
# hdft executed: seeded roundtrip, identical outputs, different traffic.

def test_executed_roundtrip_passes(executed16):
    for proc in executed16:
        assert proc.returncode == 0
        assert line_with(proc, "roundtrip max error:").endswith("ok")


def test_variants_decrypt_to_the_same_vector(executed16):
    base, mks, _ = executed16
    assert (line_with(base, "output digest")
            == line_with(mks, "output digest"))
    # ... while the evk traffic differs: 2^1 + 2^2 - 1 baby/giant keys per
    # stage for the naive walk, bar the wrap stage (g = 4, the IDFT's
    # first and the DFT's last), where the pre-rotation and giant 2 are
    # step 0 and giants 1 and 3 share step 8, versus two grouped loads.
    assert line_with(base, "pass idft evk loads by stage:") \
        .endswith("0:2 1:5")
    assert line_with(base, "pass dft evk loads by stage:") \
        .endswith("0:5 1:2")
    for label in ("idft", "dft"):
        assert line_with(mks, f"pass {label} evk loads by stage:") \
            .endswith("0:2 1:2")


def test_executed_report_is_deterministic(executed16):
    base, mks, again = executed16
    assert mks.stdout == again.stdout
    assert_stdout_pinned(base, "hdft --n 16 --k 2 --variant baseline")
    assert_stdout_pinned(mks, "hdft --n 16 --k 2 --variant minks")


def test_default_invocation_full_width_message():
    proc = run_cli("hdft")
    assert proc.returncode == 0
    assert_stdout_pinned(proc, "hdft")
    lines = proc.stdout.splitlines()
    assert "mode: executed (size=64 k=2 split=(1, 2))" in lines
    assert line_with(proc, "roundtrip max error:").endswith("ok")
    for label in ("idft", "dft"):
        per_stage = line_with(proc, f"pass {label} evk loads by stage:")
        counts = [int(tok.split(":")[1])
                  for tok in per_stage.split("stage:")[1].split()]
        assert counts == [2, 2, 2]


def test_executed_transform_wider_than_the_slot_count(capsys):
    """A transform longer than the parameters' 64 slots encodes all of
    its message, not the message's first 64 values tiled, and so
    round-trips."""
    assert cli.main(["hdft", "--n", "128", "--k", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    (line,) = [ln for ln in lines if ln.startswith("roundtrip max error:")]
    assert line.endswith("ok")


# ---------------------------------------------------------------------------
# selftest and bench.

def test_selftest_passes_every_check():
    proc = run_cli("selftest")
    assert proc.returncode == 0
    assert_stdout_pinned(proc, "selftest")
    checks = [ln for ln in proc.stdout.splitlines()
              if ln.startswith("check ")]
    assert len(checks) == 8
    assert all(ln.endswith("ok") for ln in checks)
    assert "result: 8/8 passed" in proc.stdout.splitlines()


def test_bench_reports_model_counts():
    first = run_cli("bench")
    again = run_cli("bench")
    assert first.returncode == 0
    assert_stdout_pinned(first, "bench")
    lines = first.stdout.splitlines()
    assert ("model keyswitch@L: ntt 2555904 bconv 1179648 "
            "elementwise 524288 total 4259840") in lines
    assert ("model bytes: plaintext 524288 ciphertext 1048576 "
            "evk 3145728") in lines
    assert ("ops timed: encode encrypt decrypt hadd pmult "
            "hmult+rescale hrot") in lines
    # Wall times live on stderr only, so the report stays byte-stable.
    assert first.stdout == again.stdout
    assert "bench:" in first.stderr
    # One line for the twiddle tables of C_L + B at the ring degree.
    tables = [ln for ln in first.stderr.splitlines()
              if ln.startswith("bench: ntt tables ")]
    assert len(tables) == 1
    assert re.fullmatch(r"bench: ntt tables 12 x 8192 \d+\.\d\d ms "
                        r"\(first build\)", tables[0]), tables
    # One line for a rotation key's a_i halves, made from their seeds.
    expand = [ln for ln in first.stderr.splitlines()
              if ln.startswith("bench: evk expand ")]
    assert len(expand) == 1
    assert re.fullmatch(r"bench: evk expand 2 x 12 x 8192 \d+\.\d\d ms "
                        r"\(one key\)", expand[0]), expand
    # Per kernel and direction, a row of a 4-row stack and a lone row.
    ntt_lines = [ln.split() for ln in first.stderr.splitlines()
                 if ln.startswith("bench: ntt ") and ln not in tables]
    assert [ln[2:5] + ln[7:] for ln in ntt_lines] == [
        [d, label, q, rows, "rows)"]
        for label, q in (("scale", "q40"), ("aux", "q60"))
        for d in ("forward", "inverse") for rows in ("(4", "(1")]
    assert all(ln[6] == "ms/row" and float(ln[5]) > 0 for ln in ntt_lines)
    # One line for a ModDown base conversion from B over a (2, N) stack.
    bconv = [ln for ln in first.stderr.splitlines()
             if ln.startswith("bench: base_convert ")]
    assert len(bconv) == 1
    assert re.fullmatch(r"bench: base_convert B -> C_7 4 x 8 x 2 x 8192 "
                        r"\d+\.\d\d\d ms", bconv[0]), bconv


# ---------------------------------------------------------------------------
# keygen: reproducible key material on disk.

def test_keygen_is_reproducible(tmp_path):
    runs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        proc = run_cli("keygen", "--n", "16", "--out", str(out))
        assert proc.returncode == 0
        runs.append((out, proc))
    (dir_a, proc_a), (dir_b, proc_b) = runs
    assert proc_a.stdout == proc_b.stdout
    assert_stdout_pinned(proc_a, "keygen --n 16")
    assert (dir_a / "report.txt").read_text() == proc_a.stdout

    steps = line_with(proc_a, "rotation steps:").split(":")[1].split()
    assert steps and steps == sorted(steps, key=int)
    for ln in proc_a.stdout.splitlines():
        m = re.match(r"file (\S+): (\d+) bytes sha256:([0-9a-f]{16})", ln)
        if not m:
            continue
        name, size = m.group(1), int(m.group(2))
        assert os.path.getsize(dir_a / name) == size
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    names = {ln.split()[1].rstrip(":") for ln in proc_a.stdout.splitlines()
             if ln.startswith("file ")}
    assert {"params.txt", "secret.key", "relin.evk"} <= names


def test_keygen_seed_changes_the_keys(tmp_path):
    out_a = tmp_path / "seed0"
    out_b = tmp_path / "seed1"
    proc_a = run_cli("keygen", "--n", "16", "--out", str(out_a))
    proc_b = run_cli("keygen", "--n", "16", "--seed", "1",
                     "--out", str(out_b))
    assert proc_a.returncode == 0 and proc_b.returncode == 0
    assert (line_with(proc_a, "file secret.key:")
            != line_with(proc_b, "file secret.key:"))


# ---------------------------------------------------------------------------
# Parameter files and failure modes.

def test_params_file_carries_the_seed(tmp_path):
    path = tmp_path / "params.txt"
    serial.write_params(str(path), CkksParams(), seed=9)
    proc = run_cli("hdft", "--analytic-only", "--params", str(path))
    assert proc.returncode == 0
    assert "seed: 9" in proc.stdout.splitlines()


def test_corrupt_params_file_exits_2(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("# rnsckks-params v1\nn_ring = shiny\n")
    proc = run_cli("sizes", "--params", str(path))
    assert proc.returncode == 2
    assert "error:" in proc.stderr


@pytest.mark.parametrize("command", ["selftest", "hdft", "keygen", "bench"])
def test_negative_seed_is_refused_at_parse_time(command, capsys):
    """numpy seeds only with non-negative integers; the parser says so and
    names the option, in-process, before any command runs."""
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, "--seed", "-1"])
    assert exit_.value.code == 2
    assert "argument --seed: expected a non-negative integer" in (
        capsys.readouterr().err)


def test_negative_seed_in_params_file_exits_2(tmp_path, capsys):
    path = tmp_path / "params.txt"
    path.write_text("# rnsckks-params v1\nn_ring = 64\nseed = -5\n")
    assert cli.main(["selftest", "--params", str(path)]) == 2
    assert "line 3: seed -5 is negative" in capsys.readouterr().err


@pytest.mark.parametrize("command",
                         ["hdft", "sizes", "bench", "keygen", "selftest"])
def test_unwritable_params_file_exits_2_first(command, tmp_path, capsys):
    """levels = 6 under the default alpha = 4 is refused as the file's
    fault before any plan or key is built: the error is the only line on
    stderr, so no `hdft: building plans` note came first."""
    path = tmp_path / "params.txt"
    path.write_text("# rnsckks-params v1\nlevels = 6\n")
    keys = tmp_path / "keys"
    extra = ["--out", str(keys)] if command == "keygen" else []
    assert cli.main([command, "--params", str(path), *extra]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [
        f"error: invalid parameters: alpha 4 does not divide levels + 1 = 7 "
        f"(file: {path})"]
    assert not keys.exists()


def test_missing_params_file_exits_2(tmp_path):
    proc = run_cli("bench", "--params", str(tmp_path / "nope.txt"))
    assert proc.returncode == 2
    assert "error:" in proc.stderr
