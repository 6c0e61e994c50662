"""The ``qunic`` command: its exit codes, its dumps and ``--stats``, and the
one deep stack on which it runs every pass."""

import functools
import hashlib
import json
import sys
import threading

import pytest
from arithmetic import ADD_CONST_TREE

from qunic import cli, core, parser, preprocess, printer
from qunic.errors import CapacityError
from qunic.preprocess import core_of_source


def qunic(tmp_path, capsys, source, *flags):
    """The exit code, standard output and standard error of ``qunic FILE``."""
    path = tmp_path / "main.qunity"
    path.write_text(source, encoding="utf-8")
    code = cli.main([*flags, str(path)])
    out, err = capsys.readouterr()
    return code, out, err


# Inputs that pass through every stage but are nested too deeply for the
# interpreter's default stack: a wide circuit, a right-nested chain of 5,000
# powers, and a type 1,000 levels deep.  (A flat, left-nested chain compiles
# at the default stack: see tests/test_preprocess.py.)
DEEP = [
    pytest.param("&num_to_state{192, 1} |> @qft{192}", id="qft-192"),
    pytest.param("&0 |> u3{" + " ^ ".join(["1"] * 5000) + ", 0, 0}", id="power-angle"),
    pytest.param("&Nothing{" + "(Bit * " * 1000 + "Bit" + ")" * 1000 + "}", id="deep-type"),
]


@pytest.mark.parametrize("source", DEEP)
def test_what_the_default_stack_refuses_compiles_on_the_worker_stack(
    tmp_path, capsys, recursion_limit, source
):
    with recursion_limit(1000), pytest.raises(CapacityError):
        core.to_str(core_of_source(source))
    code, out, err = qunic(tmp_path, capsys, source, "--dump-core")
    assert (code, err) == (0, "")
    assert out.endswith(")\n")


def test_input_too_deep_for_the_worker_stack_exits_2(tmp_path, capsys):
    code, out, err = qunic(tmp_path, capsys, "(" * 150_000 + ")" * 150_000, "--no-prelude")
    assert (code, out) == (2, "")
    assert "nested too deeply" in err


@pytest.mark.parametrize(
    "source, code, message",
    [
        ("&0 |> u3{3 ^ 2 ^ 30, 0, 0}", 2, "CapacityError: an exact real"),
        ("y", 1, "PreprocessError: unbound variable y"),
        ("&0 |>", 1, "ParseError: 1:6"),
        (
            "&num_to_state{2, 1} |> @add_const{2, 1/2}",
            1,
            "PreprocessError: unknown program definition @add_const_needs_an_integer_constant",
        ),
        (
            # one bit reaches no @add_const: this compiled to the identity
            "&num_to_state{1, 1} |> @mod_mult{1, 1/2}",
            1,
            "PreprocessError: unknown program definition @mod_mult_needs_an_odd_constant",
        ),
    ],
    ids=["capacity", "program", "parse", "refusal", "not odd"],
)
def test_an_error_in_the_program_exits_with_its_code(tmp_path, capsys, source, code, message):
    got, out, err = qunic(tmp_path, capsys, source)
    assert (got, out) == (code, "")
    assert err.startswith(f"qunic: {message}")


def test_a_dump_over_the_printers_bound_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(printer, "TEXT_CHARS", 10_000)
    main = "&num_to_state{8, 1} |> @add_const_tree{8, 12345}"
    code, out, err = qunic(tmp_path, capsys, ADD_CONST_TREE + main, "--dump-core")
    assert (code, out) == (2, "")
    assert err.startswith("qunic: CapacityError: a text of ")


QFT_128 = "&num_to_state{128, 1} |> @qft{128}"
ORDER_FINDING = "&order_finding{10, 7}"
COUNTS = ("core_dag_nodes", "instantiations", "regions_reused", "kernel_hits")

# The command's pins, the same on every Python of the matrix: a dump's text,
# with its newline, by its sha256; the --stats COUNTS, where a change to
# interning that loses sharing leaves the text as it is but moves
# core_dag_nodes, and an edit that stops the integer kernels from firing
# moves kernel_hits; and a refusal by its message.
PINS = [
    # 2,061,235 characters; each exact angle is one leaf per value in a compile
    pytest.param(
        QFT_128,
        "--dump-core",
        "8e4a63f134c7aa0d573f65459d9f7c178d884fbbabc27167db332a4ca9613d9a",
        id="qft-128-dump",
    ),
    pytest.param(QFT_128, "--stats", "2445 516 884 1270", id="qft-128-stats"),
    # 86,038 characters, most of them from patterns and closed programs that
    # the elaborator keeps and returns again
    pytest.param(
        ORDER_FINDING,
        "--dump-core",
        "08885e39f3675f6a6feb41f22ed916e262b78fc29a1a20cd857ae0dbbe2f6652",
        id="order-finding-dump",
    ),
    pytest.param(ORDER_FINDING, "--stats", "951 227 391 822", id="order-finding-stats"),
    # the benchmark's dump_core families, whose Fourier and adder if
    # conditions the elaborator decides by their kernels
    pytest.param("&phase_estimation{40, 1/3}", "--stats", "1376 331 501 665", id="phase-est"),
    pytest.param("&num_to_state{80, 1} |> @qft{80}", "--stats", "1533 324 548 790", id="qft-80"),
    pytest.param(
        "(&num_to_state{56, 1}, &num_to_state{56, 2}) |> @rev_adder{56}",
        "--stats",
        "513 140 174 357",
        id="rev-adder-56",
    ),
    # 1,405 distinct nodes whose tree has 4.6e31, refused at the real
    # printer.TEXT_CHARS before any text is built
    pytest.param(
        ADD_CONST_TREE + "&num_to_state{100, 1} |> @add_const_tree{100, 12345}",
        "--dump-core",
        "qunic: CapacityError: a text of 79691643 characters is over the limit of 67108864",
        id="add-const-tree-refused",
    ),
]

# Runs qunic's main on the same arguments a number of times in one process,
# and prints each run's exit code, output and error output as a JSON line.
PIN_RUNS = (
    "import contextlib, io, json, sys\n"
    "from qunic import cli\n"
    "for _ in range(int(sys.argv[1])):\n"
    "    out, err = io.StringIO(), io.StringIO()\n"
    "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
    "        code = cli.main(sys.argv[2:])\n"
    "    print(json.dumps([code, out.getvalue(), err.getvalue()]))\n"
)


@pytest.mark.parametrize("source, flag, pin", PINS)
def test_the_pinned_outputs_of_a_fresh_process(tmp_path, python, source, flag, pin):
    # Each row runs in a fresh process, as a one-shot qunic does: kernel_hits
    # counts the kernels that the process has built, so a later compile in it
    # reads more.  A dump is run twice: the second compile meets the kernels
    # and call-site caches that the first built on the prelude's nodes, and
    # must give the pinned text too.
    path = tmp_path / "main.qunity"
    path.write_text(source, encoding="utf-8")
    runs = 2 if flag == "--dump-core" else 1
    out = python("-c", PIN_RUNS, str(runs), flag, str(path), timeout=120)
    assert (out.returncode, out.stderr) == (0, "")
    got = []
    for line in out.stdout.splitlines():
        code, text, err = json.loads(line)
        if code:
            got.append(err.rstrip("\n"))
        elif flag == "--dump-core":
            got.append(hashlib.sha256(text.encode()).hexdigest())
        else:
            got.append(" ".join(str(json.loads(text)[k]) for k in COUNTS))
    assert got == [pin] * runs


# Runs qunic's main on its arguments, then says whether the printer is loaded.
MAIN_THEN_PRINTER = (
    "import sys\n"
    "from qunic import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(code, 'qunic.printer' in sys.modules)\n"
)


@pytest.mark.parametrize("flag, printer_loaded", [("--stats", False), ("--dump-core", True)])
def test_only_a_dump_loads_the_printer(python, flag, printer_loaded):
    # In a fresh process, as a one-shot qunic: a compile prints nothing, so
    # --stats alone never loads the printer, and --dump-core loads it to print.
    out = python("-c", MAIN_THEN_PRINTER, flag, "-", input="@had(&0)")
    assert (out.returncode, out.stderr) == (0, "")
    *printed, last = out.stdout.splitlines()
    assert last == f"0 {printer_loaded}"
    if flag == "--stats":
        assert json.loads(printed[0])["core_dag_nodes"] == core.node_counts(core_of_source("@had(&0)"))[0]
    else:
        assert printed == [core.to_str(core_of_source("@had(&0)"))]


def test_an_internal_error_ends_in_its_traceback(tmp_path, capsys, monkeypatch):
    def broken(source):
        raise RuntimeError("internal")

    monkeypatch.setattr(cli, "parse_file", broken)
    with pytest.raises(RuntimeError, match="internal"):
        qunic(tmp_path, capsys, "&0")


def test_an_unreadable_file_exits_1(tmp_path, capsys):
    assert cli.main([str(tmp_path / "missing.qunity")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_standard_input_closed_exits_1(python):
    out = python("-m", "qunic.cli", "-", shell="<&-")  # Python then has no sys.stdin
    assert (out.returncode, out.stderr) == (1, "qunic: cannot read -: standard input is closed\n")


def test_a_file_that_starts_with_a_byte_order_mark_compiles(tmp_path, capsys):
    path = tmp_path / "main.qunity"
    path.write_text("&0 |> @had", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert cli.main(["--dump-core", str(path)]) == 0
    assert capsys.readouterr().out == core.to_str(core_of_source("&0 |> @had")) + "\n"


def test_standard_input_that_starts_with_a_byte_order_mark_compiles(python):
    out = python("-m", "qunic.cli", "--dump-core", "-", input="\ufeff&0 |> @had")
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == core.to_str(core_of_source("&0 |> @had")) + "\n"


CAFE = "() |> lambda café -> café"
LOCALES = pytest.mark.parametrize("encoding", ["ascii", "latin-1"])


@LOCALES
def test_the_dumps_are_utf_8_whatever_the_locale(tmp_path, python, encoding):
    # The runner reads the output as UTF-8: a dump written in the locale's
    # codec would end in a UnicodeEncodeError, or in a byte 0xe9 that qunic
    # FILE refuses.
    (tmp_path / "main.qunity").write_text(CAFE, encoding="utf-8")
    qunic = functools.partial(python, "-m", "qunic.cli", env={"PYTHONIOENCODING": encoding})
    dumps = {}
    for flag in ("--dump-tokens", "--dump-surface", "--dump-core"):
        out = qunic(flag, "main.qunity")
        assert (out.returncode, out.stderr) == (0, "")
        assert "café" in out.stdout
        dumps[flag] = out.stdout
    (tmp_path / "surface.qunity").write_text(dumps["--dump-surface"], encoding="utf-8")
    assert qunic("--dump-core", "surface.qunity").stdout == dumps["--dump-core"]


@LOCALES
def test_standard_input_is_read_as_utf_8_whatever_the_locale(tmp_path, python, encoding):
    (tmp_path / "main.qunity").write_text(CAFE, encoding="utf-8")
    from_file = python("-m", "qunic.cli", "--dump-tokens", "main.qunity")
    env = {"PYTHONIOENCODING": encoding}
    out = python("-m", "qunic.cli", "--dump-tokens", "-", input=CAFE, env=env)
    assert (out.returncode, out.stderr, out.stdout) == (0, "", from_file.stdout)


@LOCALES
def test_an_error_message_is_utf_8_whatever_the_locale(python, encoding):
    # In the locale's codec it would read caf\xe9 (ascii), or end in a byte
    # 0xe9 that the runner cannot read as UTF-8 (latin-1).
    out = python("-m", "qunic.cli", "-", input="café", env={"PYTHONIOENCODING": encoding})
    assert (out.returncode, out.stderr) == (1, "qunic: PreprocessError: unbound variable café\n")


def test_a_file_name_that_is_not_utf_8_exits_1(python):
    out = python("-m", "qunic.cli", b"nope\xff.qunity")  # the message escapes the byte
    error = "qunic: cannot read nope\\xff.qunity: No such file or directory\n"
    assert (out.returncode, out.stderr) == (1, error)


def test_an_unknown_option_that_is_not_utf_8_exits_2_with_the_usage(python):
    out = python("-m", "qunic.cli", b"--x\xff", "main.qunity")  # \udcff stands for the byte
    assert out.returncode == 2 and out.stderr.startswith("usage: qunic ")
    assert out.stderr.endswith("\nqunic: error: unrecognized arguments: --x\\udcff\n")


def test_stats_is_one_json_record_after_the_core(tmp_path, capsys):
    source = "&num_to_state{8, 1} |> @qft{8}"
    code, out, _ = qunic(tmp_path, capsys, source, "--dump-core", "--stats")
    text, record = out.rstrip("\n").split("\n")
    stats = json.loads(record)
    c = core_of_source(source)
    assert code == 0
    # Exactly the keys that the qunic.cli docstring documents.
    assert set(stats) == {
        "parse_ms", "elaborate_ms", "print_ms", "instantiations", "regions_reused",
        "kernel_hits", "prelude_defs_parsed", "unroll_budget", "core_dag_nodes",
        "core_tree_nodes", "peak_rss_mb",
    }
    assert text == core.to_str(c)
    assert (stats["core_dag_nodes"], stats["core_tree_nodes"]) == core.node_counts(c)
    assert 0 < stats["instantiations"] < stats["unroll_budget"] == preprocess.UNROLL_BUDGET
    assert min(stats["parse_ms"], stats["elaborate_ms"], stats["print_ms"]) >= 0
    assert stats["peak_rss_mb"] > 0
    assert 0 < stats["prelude_defs_parsed"] == preprocess.prelude_defs_parsed() <= 41


@pytest.mark.parametrize("source, reused", [("&order_finding{8, 7}", True), ("@had(&0)", False)])
def test_stats_counts_the_regions_the_elaborator_reused(tmp_path, capsys, source, reused):
    code, out, _ = qunic(tmp_path, capsys, source, "--dump-core", "--stats")
    stats = json.loads(out.rstrip("\n").split("\n")[-1])
    assert code == 0
    assert (stats["regions_reused"] > 0) == reused


@pytest.mark.parametrize(
    "source, hits",
    [
        ("&order_finding{8, 7}", True),
        # evaluated once per compile, and parsed anew by each
        ("&0 |> u3{(3 + 4) % 5, 0, 0}", False),
        ("@had(&0)", False),
    ],
)
def test_stats_counts_the_evaluations_a_kernel_answered(tmp_path, capsys, source, hits):
    for _ in range(2):
        code, out, _ = qunic(tmp_path, capsys, source, "--stats")
        assert code == 0
        assert (json.loads(out.rstrip("\n").split("\n")[-1])["kernel_hits"] > 0) == hits


SURFACE = """
type T := &A | &B | @C of Bit end
def @f{#n} : Bit -> Bit := if #n = 0 then @id{Bit} else lambda x -> @not(x) endif end
def &g : T := @C(&0 |> @f{1}) end
&g
"""


def test_the_surface_dump_parses_back_to_the_same_file(tmp_path, capsys):
    code, out, _ = qunic(tmp_path, capsys, SURFACE, "--dump-surface")
    assert code == 0
    assert parser.parse_file(out) == parser.parse_file(SURFACE)


def test_the_token_dump_lists_the_tokens_of_the_file(tmp_path, capsys):
    code, out, _ = qunic(tmp_path, capsys, "&0 |> @had", "--dump-tokens")
    lines = [line.split("\t") for line in out.rstrip("\n").split("\n")]
    assert code == 0
    assert lines == [
        ["1:1", "e", "'0'"],
        ["1:4", "|>", "'|>'"],
        ["1:7", "f", "'had'"],
        ["1:11", "end of input", "''"],
    ]


def test_the_dumps_come_in_pipeline_order_and_the_stats_last(tmp_path, capsys):
    source = "&0 |> @had"
    flags = ("--stats", "--dump-core", "--dump-surface", "--dump-tokens")
    code, out, _ = qunic(tmp_path, capsys, source, *flags)
    lines = out.rstrip("\n").split("\n")
    assert code == 0
    assert lines[0] == "1:1\te\t'0'" and lines[3] == "1:11\tend of input\t''"
    assert lines[4:-1] == ["@had(&0)", core.to_str(core_of_source(source))]
    assert set(json.loads(lines[-1])) >= {"instantiations", "regions_reused"}


@pytest.mark.parametrize(
    "source, flag, dump, message",
    [
        (
            "&0 |>\n",
            "--dump-tokens",
            "1:1\te\t'0'\n1:4\t|>\t'|>'\n2:1\tend of input\t''\n",
            "ParseError: 2:1",
        ),
        ("&0 |> @nope\n", "--dump-surface", "@nope(&0)\n", "PreprocessError: unknown program"),
    ],
    ids=["tokens-then-parse", "surface-then-elaborate"],
)
def test_a_dump_is_printed_when_a_later_stage_fails(tmp_path, capsys, source, flag, dump, message):
    code, out, err = qunic(tmp_path, capsys, source, flag)
    assert (code, out) == (1, dump)
    assert err.startswith(f"qunic: {message}")


def test_the_prelude_as_user_source_gives_the_packaged_core(tmp_path, capsys):
    # Every definition and parameter form goes through the command, and the
    # prelude's lets and gphases are read as their core forms.
    main = "(&num_to_state{4, 5} |> @qft{4}, &phase_estimation{2, 1 / 4})"
    packaged = qunic(tmp_path, capsys, main, "--dump-core")
    user = qunic(
        tmp_path, capsys, preprocess.default_prelude_text() + main, "--no-prelude", "--dump-core"
    )
    assert packaged[0] == 0 and packaged[1].startswith("(")
    assert user == packaged


def test_standard_input_without_the_prelude(python):
    source = "def &z : Unit := () end\n&z"
    out = python("-m", "qunic.cli", "--no-prelude", "--stats", "-", input=source)
    assert (out.returncode, out.stderr) == (0, "")
    stats = json.loads(out.stdout)
    assert stats["print_ms"] is None
    assert (stats["core_dag_nodes"], stats["instantiations"]) == (1, 1)


def test_the_pipeline_runs_on_one_worker_thread_with_the_deep_stack(tmp_path, capsys, monkeypatch):
    seen = []

    def probe(*args):
        thread = threading.current_thread()
        seen.append((thread is threading.main_thread(), sys.getrecursionlimit()))
        return [], None

    monkeypatch.setattr(cli, "_compile", probe)
    limit, threads = sys.getrecursionlimit(), threading.active_count()
    assert qunic(tmp_path, capsys, "&0")[0] == 0
    assert seen == [(False, cli.RECURSION_LIMIT)]
    assert (sys.getrecursionlimit(), threading.stack_size()) == (limit, 0)
    assert threading.active_count() == threads


def test_the_command_starts_without_a_thread_pool_or_logging(python):
    out = python("-c", "import sys, qunic.cli\nprint(*sys.modules)\n")
    assert out.returncode == 0, out.stderr
    assert not set(out.stdout.split()) & {"concurrent.futures", "logging"}


def test_a_reader_that_quits_early_ends_the_command_with_1_and_no_traceback(python):
    # The dump, 502,736 characters, is more than a pipe holds, so the command
    # is still writing when its reader closes the pipe.
    with python("-m", "qunic.cli", "--dump-core", "-", popen=True) as proc:
        proc.stdin.write(b"&num_to_state{64, 1} |> @qft{64}")
        proc.stdin.close()
        assert proc.stdout.read(7) == b"(lambda"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and err == ""


def test_the_command_runs_with_its_output_closed(python):
    # Python then has no sys.stdout, and print writes nothing.
    out = python("-m", "qunic.cli", "--stats", "-", input="@had(&0)", shell=">&-")
    assert (out.returncode, out.stderr) == (0, "")


def test_stats_counts_the_prelude_definitions_parsed_so_far(python):
    out = python("-m", "qunic.cli", "--stats", "-", input="@had(&0)")
    assert (out.returncode, out.stderr) == (0, "")
    assert json.loads(out.stdout)["prelude_defs_parsed"] == 6  # its five types and @had
