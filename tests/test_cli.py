"""Property test over command-line argv: every subcommand ends with one of
the documented exit codes (0 success, 2 configuration error, 3 I/O error,
4 invariant violation) and never with an uncaught exception.

The argv are kept small: at most 3 trials, grids of at most 2^6 samples
when a grid is asked for, lambda at most 50, jump counts at most 5, no
worker pool, and the spacing check's sample size capped at 2000.
"""

import argparse
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cpwave import cli, harness, theory

# each option's values: (valid, invalid); a draw picks a valid value nine
# times in ten, so most runs get past validation and reach the trials
LAMBDAS = (["0.5", "10", "50", "1e-300"], ["0", "-1", "nan", "inf", "x"])
VARIANCES = (["1", "1e-300", "1e200", "8e307"], ["0", "-2", "nan", "inf"])
M_LISTS = (["4", "1,4,16", "64", "1024"], ["4,4", "16,4", "0", "-1", "", "x"])
SEEDS = (["0", "7", str(2**64 - 1)], ["-1", str(2**64)])
TRIALS = (["1", "3"], ["0", "-2", "x"])
GRIDS = (["1", "3", "6"], ["0", "-1", "60", "x"])
WORKERS = (["1"], ["0", "-3", "x"])
OUTS = (["-"], ["/nonexistent-directory/out.csv"])
FORMATS = (["csv", "json"], ["xml"])

COMMON = {"--seed": SEEDS, "--out": OUTS, "--format": FORMATS}
# per subcommand: (options it requires, options it may take); the trial
# count is always given, so no run takes the default 1000 trials
SUBCOMMANDS = {
    "simulate": (
        {"--lambda": LAMBDAS},
        {"--sigma0-sq": VARIANCES, "--jump-variance": VARIANCES},
    ),
    "mse-curve": (
        {"--process": (["cp", "bm"], ["xx"]), "--lambda": LAMBDAS, "--trials": TRIALS,
         "--grid-log2": GRIDS},
        {
            "--sigma0-sq": VARIANCES,
            "--jump-variance": VARIANCES,
            "--schemes": (["linear", "greedy,best", "linear,greedy,best"], ["bogus", ""]),
            "--dictionary": (["haar", "haar-discrete", "dct"], ["fourier"]),
            "--m": M_LISTS,
            "--workers": WORKERS,
        },
    ),
    "lemma-check": (
        {},
        {
            "--lambda": LAMBDAS,
            "--n": (["1", "1,2,5"], ["0", "-1", "", "x"]),
            "--delta": (["0.1", "0,0.5,1"], ["-0.5", "nan", "2", ""]),
            "--samples": (["1000", "1500", "100000000"], ["10", "x"]),
        },
    ),
    "theorem1-check": (
        {"--lambda": LAMBDAS, "--trials": TRIALS},
        {"--sigma0-sq": VARIANCES, "--m": M_LISTS, "--workers": WORKERS},
    ),
    "dict-compare": (
        {"--trials": TRIALS, "--grid-log2": GRIDS},
        {"--lambda": LAMBDAS, "--sigma0-sq": VARIANCES, "--m": M_LISTS, "--workers": WORKERS},
    ),
    "theory-table": (
        {"--lambda": LAMBDAS},
        {"--sigma0-sq": VARIANCES, "--m": M_LISTS, "--tol": (["1e-12", "0.1"], ["0", "-1", "nan"])},
    ),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    required, optional = SUBCOMMANDS[command]
    optional = {**optional, **COMMON}
    chosen = draw(st.sets(st.sampled_from(sorted(optional))))
    argv = [command]
    for name, (valid, invalid) in [*required.items(), *((n, optional[n]) for n in sorted(chosen))]:
        values = valid if draw(st.integers(min_value=0, max_value=9)) else invalid
        argv += [name, draw(st.sampled_from(values))]
    return argv


def exit_code(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse refuses its own input with exit 2
        return exc.code


real_spacing_check = harness.run_spacing_check


def capped_spacing_check(**kwargs):
    return real_spacing_check(**{**kwargs, "samples": min(kwargs["samples"], 2000)})


@given(argvs())
@settings(max_examples=150, deadline=None)
def test_every_subcommand_exits_with_a_documented_code(argv):
    with mock.patch.object(harness, "run_spacing_check", capped_spacing_check):
        assert exit_code(argv) in (0, 2, 3, 4)


def outcome(parser, argv, capsys):
    """What parse_args makes of argv: its exit code, or the parsed options,
    with what it printed."""
    try:
        got = sorted(vars(parser.parse_args(argv)).items())
    except SystemExit as exc:
        got = exc.code
    return got, capsys.readouterr()


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_a_subcommand_parser_reads_as_the_full_parser(command, capsys):
    # main builds only the named subcommand's parser; its help, its
    # usage errors, their exit codes and what it parses are the full
    # parser's
    argvs = [[command, "--help"], [command], [command, "--no-such-option"],
             [command, "--seed", "x"], [command, "--format", "xml"], [command, "extra"],
             [command, "--seed", "3", "--out", "x.csv"]]
    for argv in argvs:
        assert outcome(cli.build_parser(command), argv, capsys) == outcome(cli.build_parser(), argv, capsys)
    # and it builds that one sub-parser alone
    (sub,) = [a for a in cli.build_parser(command)._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == [command]
    asked = []
    real = cli.build_parser
    with mock.patch.object(cli, "build_parser", lambda name=None: asked.append(name) or real(name)):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
    assert asked == [command]


@pytest.mark.parametrize("argv", [["--help"], [], ["no-such-command", "--help"]])
def test_the_top_level_parser_lists_every_subcommand(argv, capsys):
    full = outcome(cli.build_parser(), argv, capsys)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert (exc.value.code, capsys.readouterr()) == full
    text = full[1].out + full[1].err
    assert all(name in text for name in SUBCOMMANDS)


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--lambda", "10", "--sigma0-sq", "-1"], "sigma0_sq must be positive and finite, got -1.0"),
    (["simulate", "--lambda", "10", "--sigma0-sq", "-1", "--jump-variance", "1"],
     "sigma0_sq must be positive and finite, got -1.0"),
    (["simulate", "--lambda", "1e-320"], "sigma0_sq / lambda must be positive and finite, got inf"),
    (["mse-curve", "--process", "cp", "--lambda", "1e-320", "--trials", "1"],
     "sigma0_sq / lambda must be positive and finite, got inf"),
    (["simulate", "--lambda", "10", "--jump-variance", "-1"], "jump variance must be positive and finite, got -1.0"),
])
def test_a_refused_variance_is_named_as_it_was_given(argv, message, capsys):
    # the default jump variance is sigma0_sq / lambda: a user who gave no
    # jump variance is told which of their values is out of range
    assert cli.main(argv + ["--out", "-"]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["--lambda", "350", "--m", "4"],
    ["--lambda", "1e-320", "--m", "4"],
    ["--lambda", "10", "--sigma0-sq", "1e308", "--m", "4"],
    ["--lambda", "350", "--m", str(2**60)],
    ["--lambda", "340", "--m", str(2**60)],
])
def test_theory_table_refuses_an_envelope_out_of_double_range(argv, capsys):
    # each once printed a 0, inf or nan constant or envelope end, with exit 0
    assert cli.main(["theory-table", *argv, "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("configuration error: ")


def test_theory_table_keeps_the_last_normal_lambda(capsys):
    assert cli.main(["theory-table", "--lambda", "348.8", "--m", "4", "--out", "-"]) == 0
    assert capsys.readouterr().out == (
        "M,linear_mse,two_pow_mean,two_pow_tail,envelope_lo,envelope_hi,c_lower,c_upper\n"
        "4,0.041666666666666664,0.99205992565993917,9.6823822908606756e-13,"
        "5.9229101441056875e-309,6.9784783960366669e+300,2.388125955260472e-308,"
        "1.7585828777919934e+300\n"
    )


@pytest.mark.parametrize("lam, message", [
    ("349.2", "envelope constant c_lower = 1.07"),  # subnormal: exit 0 once
    ("352", "envelope constant c_lower = 0.0"),
    ("1e9", "envelope constant c_lower = 0.0"),
    ("inf", "lam must be positive and finite"),
])
def test_theory_table_refuses_a_large_lambda_before_the_series(lam, message, monkeypatch, capsys):
    def no_series(*args, **kwargs):
        raise AssertionError("the series ran")

    monkeypatch.setattr(theory, "expected_two_pow", no_series)
    assert cli.main(["theory-table", "--lambda", lam, "--m", "4", "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"configuration error: {message}")


def test_theorem1_check_refuses_a_subnormal_c_lower_before_any_trial(monkeypatch, capsys):
    def no_trials(*args, **kwargs):
        raise AssertionError("trials ran before the envelope was evaluated")

    monkeypatch.setattr(harness, "run_mse_curve", no_trials)
    argv = ["theorem1-check", "--lambda", "349.2", "--m", "4", "--trials", "2", "--out", "-"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("configuration error: envelope constant c_lower = 1.07")
