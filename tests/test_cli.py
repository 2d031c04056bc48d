import json
import subprocess
import sys
from pathlib import Path

import pytest

from unitring import cli, intfactor
from unitring.cli import EXIT_CONFIG, EXIT_EXHAUSTED, EXIT_HYPOTHESIS, EXIT_INTERNAL, main
from unitring.intfactor import PSI_13, FactorizationTimeout
from unitring.order import SubOrder

RUN = [sys.executable, "-m", "unitring.cli"]
FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(args, **kw):
    return subprocess.run(RUN + args, capture_output=True, text=True, **kw)


def test_density_report_deterministic(tmp_path):
    args = [
        "density", "--field", "q_sqrt5", "--eta", "0,1",
        "--boxes", "100,400", "--truncation", "300",
    ]
    out1 = tmp_path / "r1.tsv"
    out2 = tmp_path / "r2.tsv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert "x\tN\tN_over_x\tD_lo\tD_hi\trel_err" in text
    rows = [l for l in text.splitlines() if not l.startswith("#")]
    assert rows[1].startswith("100\t34\t0.340000000000")
    assert rows[2].startswith("400\t")


def test_density_threads_byte_identical(tmp_path):
    base = [
        "density", "--field", "q_sqrt5", "--eta", "0,1",
        "--boxes", "200", "--truncation", "200",
    ]
    single = tmp_path / "t1.tsv"
    multi = tmp_path / "t4.tsv"
    assert main(base + ["--threads", "1", "--out", str(single)]) == 0
    assert main(base + ["--threads", "4", "--out", str(multi)]) == 0
    assert single.read_bytes() == multi.read_bytes()


def test_pool_is_capped_at_the_cpu_count(monkeypatch, capsys):
    # A fork pool starts all its workers on the first submit, so --threads
    # sets the shards and the CPU count caps the workers.  The fake pool
    # records its size and maps in process: it starts no process.
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    argv = ["count", "--field", "q_sqrt5", "--eta", "0,1", "--boxes", "100,400"]
    assert main(argv + ["--threads", "1"]) == 0
    single = capsys.readouterr().out
    for cpus, threads, workers in ((2, 8, 2), (None, 3, 1), (16, 3, 3)):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        assert main(argv + ["--threads", str(threads)]) == 0
        assert capsys.readouterr().out == single
        assert sizes.pop() == workers
    assert sizes == []


def test_count_threads_byte_identical_cubic(tmp_path):
    # Several nested boxes in one pass, sharded over one pool of two workers.
    spec = tmp_path / "cubic_23.json"
    spec.write_text(json.dumps({"name": "cubic-23", "min_poly": [-1, -1, 0, 1]}))
    base = ["count", "--field", str(spec), "--eta", "0,1,0", "--boxes", "8,27,125,216"]
    outs = [tmp_path / "t1.tsv", tmp_path / "t2.tsv"]
    for threads, out in zip(("1", "2"), outs):
        assert main(base + ["--threads", threads, "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert len(outs[0].read_text().splitlines()) == 4 + 4


def test_count_shards_in_process_sum_to_one_thread(tmp_path):
    # Pool workers run _count_shard; run in process, the two shards of
    # --threads 2 each count a part, and together the --threads 1 counts.
    spec = tmp_path / "cubic_23.json"
    spec.write_text(json.dumps({"name": "cubic-23", "min_poly": [-1, -1, 0, 1]}))
    argv = ["count", "--field", str(spec), "--eta", "0,1,0", "--boxes", "8,27,125,216"]
    out = tmp_path / "t1.tsv"
    assert main(argv + ["--threads", "1", "--out", str(out)]) == 0
    counts = [int(line.split("\t")[1]) for line in out.read_text().splitlines()[4:]]
    args = cli.build_parser().parse_args(argv + ["--threads", "2"])
    shards = [cli._count_shard((args, (i, 2))) for i in range(2)]
    assert [a + b for a, b in zip(*shards)] == counts
    assert all(0 < a < n for a, n in zip(shards[0], counts))


def test_density_order_variant(tmp_path):
    out = tmp_path / "o.tsv"
    code = main([
        "density", "--field", "q_sqrt5", "--order", "Z[sqrt5]", "--eta", "1,2",
        "--exclude", "2", "--boxes", "100", "--truncation", "200",
        "--out", str(out),
    ])
    assert code == 0
    assert "# conductor_sum=1/2" in out.read_text()


@pytest.mark.parametrize("c", [77, 30])
def test_density_report_over_several_conductor_primes(tmp_path, c):
    # Z + 77 O_K has two O_K primes above its order prime at 11, and
    # Z + 30 O_K three order primes; the conductor sums are 45/77 and 1/10.
    out = tmp_path / "d.tsv"
    assert main([
        "density", "--field", str(FIXTURES / "q_sqrt5_conductor_orders.json"),
        "--order", f"Z+{c}O", f"--eta=1,{c}", "--boxes", "1000,10000",
        "--truncation", "1000", "--out", str(out),
    ]) == 0
    assert out.read_bytes() == (FIXTURES / f"density_q_sqrt5_z{c}O.tsv").read_bytes()


def test_count_subcommand(tmp_path):
    out = tmp_path / "c.tsv"
    assert main([
        "count", "--field", "q_sqrt5", "--eta", "0,1",
        "--boxes", "100", "--out", str(out),
    ]) == 0
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert body == ["x\tN\tN_over_x", "100\t34\t0.340000000000"]


def test_count_on_a_non_maximal_power_basis_keeps_exit_0(tmp_path):
    # X^2 - 5 with no integral basis: Z[sqrt5] stands in for O_K.  Factoring
    # the ideal of Res(f, f') there fails its norm check (bad_reduction_primes
    # raises, and density exits 5), so counting must find its pre-sieve
    # primes without it; 2 has one prime above it on this basis, and the norm
    # rule keeps N = 10 and 106.
    spec = tmp_path / "x2m5.json"
    spec.write_text('{"min_poly": [-5, 0, 1]}')
    out = tmp_path / "c.tsv"
    assert main(["count", "--field", str(spec), "--eta=0,1", "--boxes", "100,1000",
                 "--out", str(out)]) == 0
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert body == ["x\tN\tN_over_x", "100\t10\t0.100000000000", "1000\t106\t0.106000000000"]


def test_tower_roundtrip_and_verify(tmp_path):
    tower_path = tmp_path / "tower.json"
    assert main([
        "tower", "--field", "q_sqrt5", "--order", "Z[sqrt5]", "--eta", "1,2",
        "--out", str(tower_path),
    ]) == 0
    doc = json.loads(tower_path.read_text())
    assert doc["final_index"] == 1
    assert [s["omega"] for s in doc["steps"]] == [[0, 1]]
    assert all(doc["verification"].values())
    verify_out = tmp_path / "verify.tsv"
    assert main(["verify", "--tower", str(tower_path), "--out", str(verify_out)]) == 0
    assert "reaches_maximal\tTrue" in verify_out.read_text()


def test_tower_skips_a_unit_square_discriminant(tmp_path):
    # In Z + 5 O_K with eta = -theta^5 the first candidate, theta, has the
    # discriminant value theta^8: a unit square, which the search must skip
    # as the step certificate refuses it.
    spec = tmp_path / "z5.json"
    spec.write_text(json.dumps({"name": "Q(sqrt5)", "min_poly": [-1, -1, 1],
                                "orders": {"Z+5O": [[1, 0], [0, 5]]}}))
    tower_path = tmp_path / "tower.json"
    assert main(["tower", "--field", str(spec), "--order", "Z+5O", "--eta=-3,-5",
                 "--out", str(tower_path)]) == 0
    assert [s["omega"] for s in json.loads(tower_path.read_text())["steps"]] == [[1, 1]]
    assert main(["verify", "--tower", str(tower_path), "--out", str(tmp_path / "v.tsv")]) == 0


def test_exit_code_hypothesis():
    proc = run_cli(["tower", "--field", "q_sqrt2", "--eta", "1,1"])
    assert proc.returncode == 2
    diag = json.loads(proc.stderr.splitlines()[-1])
    assert diag["error"] == "hypothesis"
    assert "sqrt(5)" in diag["message"]


@pytest.mark.parametrize("argv, needle", [
    (["tower", "--field", "q_sqrt2", "--eta", "1,1"], "sqrt(5)"),
    (["tower", "--field", "q_sqrt5", "--order", "Z[sqrt5]", "--eta", "2,1"], "eta must be a unit"),
])
def test_hypothesis_violation_in_process(argv, needle, capsys):
    assert main(argv) == EXIT_HYPOTHESIS == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    diag = last_diag(err)
    assert diag["error"] == "hypothesis" and needle in diag["message"]


def test_exit_code_exhaustion():
    proc = run_cli([
        "tower", "--field", "q_sqrt5", "--order", "Z[sqrt5]", "--eta", "1,2",
        "--search-bound", "1",
    ])
    assert proc.returncode == 3
    assert json.loads(proc.stderr.splitlines()[-1])["error"] == "exhausted"


def test_exit_code_config():
    proc = run_cli(["belcher", "-d", "12"])
    assert proc.returncode == 4
    proc2 = run_cli(["density", "--field", "q_sqrt5", "--eta", "0,1",
                     "--boxes", "100,50"])
    assert proc2.returncode == 4
    proc3 = run_cli(["density", "--field", "q_sqrt5", "--eta", "0,1,2",
                     "--boxes", "100"])
    assert proc3.returncode == 4
    proc4 = run_cli(["density", "--field", "nope_field", "--eta", "0,1"])
    assert proc4.returncode == 4


@pytest.mark.parametrize("eta, code", [("110000000000,0", 0), ("100000000000000,0", EXIT_CONFIG)])
def test_large_eta_squareness_is_quick(eta, code):
    # 16 eta has a square norm and positive embeddings, so only the
    # squareness test tells whether X^2 - 4 eta is reducible (10^14 is a
    # square); it must not search a coordinate box of side sqrt(16 eta).
    proc = run_cli(["count", "--field", "q_sqrt5", f"--eta={eta}", "--boxes", "100"], timeout=60)
    assert proc.returncode == code


def test_exit_code_success():
    proc = run_cli(["belcher", "-d", "5"])
    assert proc.returncode == 0
    assert "5\tTrue" in proc.stdout


def test_belcher_d_report_in_process(capsys):
    assert main(["belcher", "-d", "5"]) == 0
    assert capsys.readouterr().out == "d\tgenerated_by_units\n5\tTrue\n"


def test_belcher_table_fixture(tmp_path):
    out1 = tmp_path / "b1.tsv"
    out2 = tmp_path / "b2.tsv"
    assert main(["belcher", "--table", "100", "--out", str(out1)]) == 0
    assert main(["belcher", "--table", "100", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    table = dict(l.split("\t") for l in lines[1:])
    assert table["-1"] == "True" and table["-3"] == "True"
    assert table["2"] == "True" and table["5"] == "True"
    assert table["79"] == "False"
    assert "0" not in table and "1" not in table and "12" not in table


def test_verify_rejects_tamper(tmp_path):
    tower_path = tmp_path / "tower.json"
    assert main([
        "tower", "--field", "q_sqrt5", "--order", "Z[sqrt5]", "--eta", "1,2",
        "--out", str(tower_path),
    ]) == 0
    doc = json.loads(tower_path.read_text())
    doc["steps"][0]["omega"] = [0, 2]  # 2*theta: even discriminant value
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(doc))
    proc = run_cli(["verify", "--tower", str(bad_path)])
    assert proc.returncode != 0


TOWER_ARGS = ["tower", "--field", "q_sqrt5", "--order", "Z[sqrt5]", "--eta", "1,2"]


@pytest.mark.parametrize("key, stated", [
    ("final_index", 7),
    ("compositum_sets", [[0], [0, 5]]),
    ("disc_norm", 12345),
    ("eta", [1, 1]),
    ("eta", [5, 8]),
], ids=["final_index", "compositum_sets", "disc_norm", "eta_outside_order", "eta_square"])
def test_verify_rejects_false_stated_result(key, stated, tmp_path, capsys):
    # The replay recomputes every result the file states; one false value
    # fails the check with a "verify" diagnostic and prints no report.  An
    # eta outside Z[sqrt5] (theta^2) or a square one (theta^6, for which
    # omega = theta still certifies) is refused before the replay.
    tower_path = tmp_path / "tower.json"
    assert main(TOWER_ARGS + ["--out", str(tower_path)]) == 0
    doc = json.loads(tower_path.read_text())
    (doc["steps"][0] if key == "disc_norm" else doc)[key] = stated
    tower_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--tower", str(tower_path)]) == 1
    out, err = capsys.readouterr()
    diag = last_diag(err)
    assert out == "" and diag["error"] == "verify" and key in diag["message"]


def test_each_omega_adjoined_once(tmp_path, monkeypatch):
    # tower and verify each adjoin the one omega of the Z[sqrt5] tower once.
    calls = []
    adjoin = SubOrder.adjoin

    def counted(order, alpha):
        calls.append(alpha.coords)
        return adjoin(order, alpha)

    monkeypatch.setattr(SubOrder, "adjoin", counted)
    tower_path = tmp_path / "tower.json"
    assert main(TOWER_ARGS + ["--out", str(tower_path)]) == 0
    assert calls == [(0, 1)]
    assert main(["verify", "--tower", str(tower_path), "--out", str(tmp_path / "v.tsv")]) == 0
    assert calls == [(0, 1), (0, 1)]


def last_diag(stderr):
    lines = stderr.splitlines()
    assert "Traceback" not in stderr
    return json.loads(lines[-1])


def test_verify_tower_missing_key(tmp_path):
    bad_path = tmp_path / "partial.json"
    bad_path.write_text(json.dumps({"steps": []}))
    proc = run_cli(["verify", "--tower", str(bad_path)])
    assert proc.returncode == EXIT_CONFIG
    diag = last_diag(proc.stderr)
    assert diag["error"] == "config" and "min_poly" in diag["message"]


def test_verify_tower_missing_file(tmp_path):
    proc = run_cli(["verify", "--tower", str(tmp_path / "absent.json")])
    assert proc.returncode == EXIT_CONFIG
    assert last_diag(proc.stderr)["error"] == "config"


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_must_be_positive(threads):
    proc = run_cli(["count", "--field", "q_sqrt5", "--eta", "0,1",
                    "--boxes", "100", "--threads", threads])
    assert proc.returncode == EXIT_CONFIG
    assert proc.stdout == ""
    assert "--threads" in last_diag(proc.stderr)["message"]


def test_exit_code_factorization_timeout(monkeypatch, capsys):
    def exhausted(n):
        raise FactorizationTimeout(n)

    monkeypatch.setattr(intfactor, "_brent_rho", exhausted)
    # A squarefree semiprime above TRIAL_LIMIT**3 sends the m-free test to
    # factor, whose trial division leaves it whole, so it reaches rho.
    assert main(["belcher", "-d", str((10**9 + 7) * (10**9 + 9))]) == EXIT_EXHAUSTED
    diag = last_diag(capsys.readouterr().err)
    assert diag["error"] == "exhausted" and "budget" in diag["message"]


def test_exit_code_primality_unproven():
    # PSI_13 + 142 is a prime that passes every Miller-Rabin base above the
    # proven range, so neither a proof nor a rho split is at hand.
    proc = run_cli(["belcher", "-d", str(PSI_13 + 142)])
    assert proc.returncode == EXIT_EXHAUSTED
    assert proc.stdout == ""
    assert last_diag(proc.stderr)["error"] == "exhausted"


def near_real_quintic(a):
    """Eisenstein at 2, so irreducible, with a complex pair very close to
    the real axis: about 7e-36 off it at a = 10**10."""
    return [2, -4 * a, 2 * a * a, 0, 0, 1]


def test_precision_cap_is_exhaustion(tmp_path):
    # At a = 10**20 Newton polishing stalls at its round cap while the
    # classification retries; the run must stop soon, not hang.
    spec = tmp_path / "near_real.json"
    spec.write_text(json.dumps({"name": "near-real", "min_poly": near_real_quintic(10**20)}))
    proc = run_cli(["count", "--field", str(spec), "--eta=0,1,0,0,0", "--boxes", "32"], timeout=60)
    assert proc.returncode == EXIT_EXHAUSTED
    assert last_diag(proc.stderr)["error"] == "exhausted"


def test_newton_round_cap_in_process(tmp_path, capsys):
    # The same stall in process: the cap of 60 Newton rounds raises.
    spec = tmp_path / "near_real.json"
    spec.write_text(json.dumps({"name": "near-real", "min_poly": near_real_quintic(10**20)}))
    assert main(["count", "--field", str(spec), "--eta=0,1,0,0,0", "--boxes", "32"]) == EXIT_EXHAUSTED
    diag = last_diag(capsys.readouterr().err)
    assert diag["error"] == "exhausted" and "newton refinement stalled" in diag["message"]


@pytest.mark.parametrize("min_poly, eta, boxes", [
    ([2, 0, -(10**40 + 2), 0, 1], "0,1,0,0", "16"),  # roots near +-10^20 and +-10^-20
    (near_real_quintic(10**10), "0,1,0,0,0", "32"),
], ids=["close_roots", "near_real"])
def test_region_beyond_the_walk_cap_is_exhaustion(tmp_path, capsys, min_poly, eta, boxes):
    # The naive coordinate box holds more than 10^22 lines.
    spec = tmp_path / "wide.json"
    spec.write_text(json.dumps({"name": "wide", "min_poly": min_poly}))
    assert main(["count", "--field", str(spec), f"--eta={eta}", "--boxes", boxes]) == EXIT_EXHAUSTED
    diag = last_diag(capsys.readouterr().err)
    assert diag["error"] == "exhausted" and "region line walk" in diag["message"]


def test_prime_dividing_the_index_is_exhaustion(tmp_path, capsys):
    # Dedekind's cubic: 2 divides [O_K : Z[theta]] for every theta, so no
    # prime above 2 has a Kummer-Dedekind splitting.
    spec = tmp_path / "dedekind.json"
    spec.write_text(json.dumps({"name": "dedekind", "min_poly": [-8, -2, -1, 1],
                                "integral_basis": [[1, 0, 0], [0, 1, 0], [0, "1/2", "1/2"]]}))
    assert main(["count", "--field", str(spec), "--eta=1,1,0", "--boxes", "1000"]) == EXIT_EXHAUSTED
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        '{"error": "exhausted", "message": "prime 2 divides the index [O_K : Z[theta]] = 2; '
        'Kummer-Dedekind splitting is unavailable on this basis"}\n'
    )


NO_UNITS = {"name": "Q(sqrt5)", "min_poly": [-1, -1, 1]}


@pytest.mark.parametrize("command, document, needle", [
    # Without declared units the start order and eta must both be given.
    (["tower", "--field"], NO_UNITS, "no start order"),
    (["tower", "--order", "maximal", "--field"], NO_UNITS, "no eta given"),
    # JSON, but a list where the tower object belongs.
    (["verify", "--tower"], [1, 2], "must hold a JSON object"),
    # A tower object without its keys.
    (["verify", "--tower"], {"steps": []}, "tower file lacks min_poly"),
])
def test_json_file_lacking_what_the_command_needs_is_config(command, document, needle, tmp_path,
                                                            capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    assert main(command + [str(path)]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    diag = last_diag(err)
    assert diag["error"] == "config" and needle in diag["message"]


def test_tower_refuses_when_every_unit_is_a_square(tmp_path, capsys):
    # The only declared unit is theta^2 = 1 + theta, and no eta is given.
    spec = tmp_path / "square_unit.json"
    spec.write_text(json.dumps({"name": "Q(sqrt5)", "min_poly": [-1, -1, 1], "units": [[1, 1]]}))
    assert main(["tower", "--field", str(spec)]) == EXIT_CONFIG
    diag = last_diag(capsys.readouterr().err)
    assert diag["error"] == "config" and "every declared unit is a square" in diag["message"]


@pytest.mark.parametrize("argv, needle", [
    (["count", "--field", "q_sqrt5", "--eta", "0,1", "--threads", "abc"], "--threads"),
    (["density", "--field", "q_sqrt5", "--boxes", "100"], "--eta"),
    (["tower", "--field", "q_sqrt5", "--order", "Z[sqrt5]", "--eta=1,2", "--search-bound", "0"],
     "--search-bound"),
    (["tower", "--field", "q_sqrt5", "--order", "Z[sqrt5]", "--eta=1,2", "--search-bound", "-1"],
     "--search-bound"),
    (["belcher", "--table", "0"], "--table"),
    (["belcher", "--table", "-5"], "--table"),
    (["count", "--field", "q_sqrt5", "--eta=a,b", "--boxes", "100"], "bad coordinate vector"),
    (["count", "--field", "q_sqrt5", "--eta=0,1", "--exclude", "x", "--boxes", "100"],
     "bad rational prime"),
    (["count", "--field", "q_sqrt5", "--eta=0,1", "--boxes", "100,100"], "strictly increasing"),
    (["count", "--field", "q_sqrt5", "--eta=0,1", "--boxes", "0,100"], "at least 1"),
    (["count", "--field", "q_sqrt5", "--eta=0,1", "--boxes", "100", "--out",
      "{tmp}/missing/report.tsv"], "cannot write --out"),
    (["count", "--field", "q_sqrt5", "--order", "nope", "--eta=0,1", "--boxes", "100"],
     "unknown order"),
    (["density", "--field", "q_sqrt5", "--eta", "0,1,2", "--boxes", "100"],
     "expected 2 coordinates, got 3"),
    (["count", "--field", "q_sqrt5", "--eta", "0,1", "--boxes", "100", "--threads", "0"],
     "--threads must be at least 1"),
])
def test_usage_error_is_config_diagnostic(argv, needle, tmp_path, capsys):
    # argparse would exit 2 (documented as a hypothesis violation) with a
    # usage text; a bad argument, refused by argparse or by a subcommand
    # (a bound below 1), is a one-line exit-4 diagnostic instead.
    assert main([a.format(tmp=tmp_path) for a in argv]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    diag = last_diag(err)
    assert diag["error"] == "config" and needle in diag["message"]


@pytest.mark.parametrize("argv, needle", [
    (["count", "--field", "q_sqrt5", "--eta", "0,0", "--boxes", "100"], "reducible"),
    (["count", "--field", "q_sqrt5", "--eta", "0,1", "--m", "1", "--boxes", "100"], "threshold"),
    (["density", "--field", "q_sqrt5", "--eta", "0,1", "--boxes", "100", "--truncation", "2"],
     "--truncation"),
    (["belcher", "-d", "12"], "squarefree"),
    (["count", "--field", "q_sqrt5", "--order", "Z[3theta]", "--eta", "0,1", "--boxes", "100"],
     "order"),
    (["count", "--field", "q_sqrt5", "--eta", "0,1", "--exclude", "4", "--boxes", "100"], "prime"),
    (["density", "--field", "q_sqrt5", "--eta", "0,1", "--boxes", "100", "--truncation", "0"],
     "--truncation"),
])
def test_sieve_input_errors_are_config(argv, needle, capsys):
    # Inputs the sieve rejects are user errors: exit 4, never "internal".
    assert main(argv) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    diag = last_diag(err)
    assert diag["error"] == "config" and needle in diag["message"]


def test_box_volume_without_rational_side_is_config(tmp_path, capsys):
    spec = tmp_path / "cubic_23.json"
    spec.write_text(json.dumps({"name": "cubic-23", "min_poly": [-1, -1, 0, 1]}))
    assert main(["count", "--field", str(spec), "--eta", "0,1,0", "--boxes", "1000,2000"]) == EXIT_CONFIG
    assert "--boxes 1000,2000" in last_diag(capsys.readouterr().err)["message"]


def test_exit_code_internal(monkeypatch, capsys):
    # Any other exception is a fault of the program: exit 5 with a
    # one-line diagnostic naming its type and where it was raised.
    def broken(*args, **kwargs):
        raise ValueError("planted fault")

    monkeypatch.setattr(cli, "empirical_count", broken)
    argv = ["count", "--field", "q_sqrt5", "--eta", "0,1", "--boxes", "100"]
    assert main(argv) == EXIT_INTERNAL == 5
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    diag = last_diag(err)
    assert diag["error"] == "internal"
    assert diag["message"].startswith("ValueError in broken") and "planted fault" in diag["message"]


@pytest.mark.parametrize("spec", [
    {"min_poly": [-1, -1, 1], "integral_basis": [[1, 0], ["1/0", 1]]},
    {"min_poly": [-1, -1, 1], "units": [[0, 1, 0]]},
    {"min_poly": [-1, -1, 1], "units": 5},
    {"min_poly": [-1, -1, 1], "orders": []},
    {"min_poly": [-1, -1, 1], "orders": {"A": 5}},
    {"min_poly": [-1, -1, 1], "integral_basis": 5},
    # Entries are read exactly: no float is truncated, no boolean counts as 0 or 1.
    {"min_poly": [1.5, 0, 1]},
    {"min_poly": [-1, -1, True]},
    {"min_poly": [-1, -1, 1], "units": [[0, 1.0]]},
    {"min_poly": [-1, -1, 1], "orders": {"A": [[1, 0], [0, 2.0]]}},
    {"min_poly": [-1, -1, 1], "integral_basis": [[1, 0], [0, True]]},
    {"min_poly": [-1, -1, 1], "integral_basis": [[1, 0], [0, 0]]},
    {"min_poly": [-1, -1, 1], "units": [[2, 0]]},  # norm 4: not a unit
    [[-1, -1, 1]],  # not a JSON object
    {"name": "no min_poly"},
    {"min_poly": [-1, -1, 1], "orders": {"A": [[2, 0], [0, 1]]}},  # 1 is not in A
    {"min_poly": [1, 1]},  # degree 1
    {"min_poly": [-1, -1, 1], "integral_basis": [[1, 0]]},
    {"min_poly": [-1, -1, 1], "integral_basis": [[2, 0], [0, 2]]},  # 2 O_K: a ring without 1
    {"min_poly": [-1, -1, 1], "integral_basis": [[1, 0], [0, 2]]},  # theta is not in it
    # Z + 2Z theta + Z theta^2 holds 1 but not theta * theta^2 = 1 + theta.
    {"min_poly": [-1, -1, 0, 1], "orders": {"A": [[1, 0, 0], [0, 2, 0], [0, 0, 1]]}},
])
def test_malformed_field_spec_is_config(spec, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["count", "--field", str(path), "--eta", "0,1", "--boxes", "100"]) == EXIT_CONFIG
    assert last_diag(capsys.readouterr().err)["error"] == "config"


@pytest.mark.parametrize("command, content", [
    # Truncated JSON, and a UTF-16 byte order mark where UTF-8 belongs.
    (["verify", "--tower"], b'{"min_poly": ['),
    (["count", "--eta", "0,1", "--boxes", "100", "--field"], b'\xff\xfe{}'),
])
def test_unreadable_json_file_is_config(command, content, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(command + [str(path)]) == EXIT_CONFIG
    assert last_diag(capsys.readouterr().err)["error"] == "config"


def test_verify_tower_file_errors(tmp_path, capsys):
    # A tower file that names no valid field is a config error; a stored
    # step that no longer certifies is a failed check.
    tower_path = tmp_path / "tower.json"
    assert main(["tower", "--field", "q_sqrt5", "--order", "Z[sqrt5]", "--eta", "1,2",
                 "--out", str(tower_path)]) == 0
    doc = json.loads(tower_path.read_text())
    bad_field = tmp_path / "bad_field.json"
    bad_field.write_text(json.dumps(dict(doc, min_poly=[1, 2])))
    assert main(["verify", "--tower", str(bad_field)]) == EXIT_CONFIG
    bad_steps = tmp_path / "bad_steps.json"
    bad_steps.write_text(json.dumps(dict(doc, steps=[1])))
    assert main(["verify", "--tower", str(bad_steps)]) == EXIT_CONFIG
    # Malformed shapes, floats and booleans are config errors: each entry
    # is read exactly, never truncated by int().
    step0 = doc["steps"][0]
    for edit in ({"steps": 5}, {"start_order": [[1, 0], [0, 2.0]]},
                 {"eta": [1.9, 2.5]}, {"eta": [True, 2]},
                 {"steps": [dict(step0, omega=[0.2, 1.7])] + doc["steps"][1:]},
                 {"min_poly": [-1.7, -1, 1]}):
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(dict(doc, **edit)))
        capsys.readouterr()
        assert main(["verify", "--tower", str(edited)]) == EXIT_CONFIG, edit
        assert last_diag(capsys.readouterr().err)["error"] == "config"
    doc["steps"][0]["omega"] = [0, 2]
    bad_step = tmp_path / "bad_step.json"
    bad_step.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--tower", str(bad_step)]) == 1
    assert last_diag(capsys.readouterr().err)["error"] == "verify"
