"""Command-line interface: metrics, sweep, match, and synth subcommands.

Exit codes: 0 success, 2 invalid input or a usage error (a flag the command
or synth generator does not define, or a required flag left out: argparse
prints the usage of the command given), 3 numerical failure (a non-PSD
explicitly supplied covariance; feature inputs never raise it), 4
configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, InvalidInputError, NotPSDError
from .evaluate import PAIRINGS, build_report, sweep_label_noise, sweep_mode_collapse
from .matching import average_class_probabilities, hungarian_max
from .report import (
    assignment_to_json,
    report_to_csv,
    report_to_json,
    reports_to_csv,
    reports_to_json,
)
from .synth import (
    CollapseSchedule,
    MixtureSpec,
    dirichlet_rows,
    gen_matched_moments,
    gen_mixture,
    gen_tightness_case,
)
from .tensorfile import load_features, load_labels, open_probabilities, save_tensor


def _existing(path: str | None, flag: str) -> Path | None:
    if path is None:
        return None
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{flag} file not found: {p}")
    return p


def _load_inputs(args) -> dict:
    # the library reads and checks a binary probability file in row blocks
    loaders = dict(real_features=load_features, gen_features=load_features,
                   real_labels=load_labels, gen_labels=load_labels, probs=open_probabilities)
    paths = {name: _existing(getattr(args, name), _flag(name)) for name in loaders}
    return {name: None if path is None else loaders[name](path) for name, path in paths.items()}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _given(args, *names) -> dict:
    """The options among names given on the command line; the library fills in the rest."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


_OPTIONS = ("subset_size", "trials", "seed", "pairing")


def _write(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text, newline="\n")
        except OSError as exc:
            raise ConfigError(f"cannot write --out {out}: {exc.strerror}") from None


def _common_flags(sub) -> None:
    sub.add_argument("--real-features")
    sub.add_argument("--gen-features")
    sub.add_argument("--real-labels")
    sub.add_argument("--gen-labels")
    sub.add_argument("--probs")
    sub.add_argument("--subset-size", type=int)
    sub.add_argument("--trials", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--pairing", choices=PAIRINGS)
    sub.add_argument("--out")
    sub.add_argument("--format", choices=["json", "csv"])


def cmd_metrics(args) -> int:
    report = build_report(**_load_inputs(args), **_given(args, *_OPTIONS))
    if (args.format or "json") == "json":
        _write(args.out, report_to_json(report))
    else:
        _write(args.out, report_to_csv(report))
    return 0


def cmd_sweep(args) -> int:
    if args.grid is not None and args.experiment != "label_noise":
        raise ConfigError("option --grid needs --experiment label_noise")
    schedule = _given(args, "steps", "shrink_factor", "per_class_sample", "collapsed_classes")
    if schedule and args.experiment != "mode_collapse":
        flag = _flag(next(iter(schedule)))
        raise ConfigError(f"option {flag} needs --experiment mode_collapse")
    common = dict(**_load_inputs(args), **_given(args, *_OPTIONS))
    if args.experiment == "label_noise":
        if args.grid is not None:
            common["grid"] = _parse_list(args.grid, "--grid")
        rows = sweep_label_noise(**common)
    else:
        if "collapsed_classes" in schedule:
            schedule["collapsed_classes"] = tuple(
                _parse_list(args.collapsed_classes, "--collapsed-classes", int))
        rows = sweep_mode_collapse(schedule=CollapseSchedule(**schedule), **common)
    if (args.format or "csv") == "csv":
        _write(args.out, reports_to_csv(rows))
    else:
        _write(args.out, reports_to_json(rows))
    return 0


def cmd_match(args) -> int:
    probs_path = _existing(args.probs, "--probs")
    labels_path = _existing(args.gen_labels, "--gen-labels")
    averages = average_class_probabilities(
        open_probabilities(probs_path), load_labels(labels_path))
    assignment = hungarian_max(averages)
    _write(args.out, assignment_to_json(assignment.mapping, assignment.score, averages))
    return 0


def _parse_list(raw: str, flag: str, cast=float) -> list:
    try:
        return [cast(tok) for tok in raw.split(",")]
    except ValueError:
        raise ConfigError(f"unparseable {flag} value: {raw!r}") from None


def cmd_synth(args) -> int:
    def emit(**arrays):  # the directory is made only once the generator has succeeded
        out_dir = Path(args.out_dir)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create --out-dir {out_dir}: {exc.strerror}") from None
        for name, arr in arrays.items():
            save_tensor(out_dir / f"{name}.cfm", arr)

    if args.generator == "mixture":
        spec_path = _existing(args.spec, "--spec")
        try:
            raw = json.loads(spec_path.read_text())
            means, covs, counts = raw["means"], raw["covs"], raw["counts"]
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"bad mixture spec {spec_path}: {exc}") from None
        features, labels = gen_mixture(MixtureSpec(means, covs, counts, seed=args.seed))
        emit(features=features, labels=labels)
    elif args.generator == "matched-moments":
        pair = gen_matched_moments(args.seed, args.n_per_class)
        emit(a_features=pair.real_features, a_labels=pair.real_labels,
             b_features=pair.gen_features, b_labels=pair.gen_labels)
    elif args.generator == "tightness":
        pair = gen_tightness_case(
            _parse_list(args.sigma_real, "--sigma-real"),
            _parse_list(args.sigma_gen, "--sigma-gen"), args.n_per_class, args.seed)
        emit(real_features=pair.real_features, real_labels=pair.real_labels,
             gen_features=pair.gen_features, gen_labels=pair.gen_labels)
    else:  # dirichlet
        emit(probs=dirichlet_rows(
            _parse_list(args.alpha, "--alpha"), args.n_per_class, args.seed))
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condmetrics",
        description="Conditional generation metrics over feature and probability tensors")
    subs = parser.add_subparsers(dest="command", required=True)

    metrics = subs.add_parser("metrics", help="compute one metric report")
    _common_flags(metrics)
    metrics.set_defaults(fn=cmd_metrics)

    sweep = subs.add_parser("sweep", help="metric curves over a degradation grid")
    _common_flags(sweep)
    sweep.add_argument("--experiment", choices=["label_noise", "mode_collapse"],
                       required=True)
    sweep.add_argument("--grid", help="comma-separated parameter values (label_noise)")
    sweep.add_argument("--steps", type=int)
    sweep.add_argument("--shrink-factor", type=float)
    sweep.add_argument("--per-class-sample", type=int)
    sweep.add_argument("--collapsed-classes")
    sweep.set_defaults(fn=cmd_sweep)

    match = subs.add_parser("match", help="align discovered classes to real classes")
    match.add_argument("--probs", required=True)
    match.add_argument("--gen-labels", required=True)
    match.add_argument("--out")
    match.set_defaults(fn=cmd_match)

    synth = subs.add_parser("synth", help="emit synthetic harness datasets")
    synth.set_defaults(fn=cmd_synth)
    generators = synth.add_subparsers(dest="generator", required=True)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="default %(default)s")
    seeded.add_argument("--out-dir", required=True, help="where the .cfm files go")
    sized = argparse.ArgumentParser(add_help=False)
    sized.add_argument("--n-per-class", type=int, default=1000, help="default %(default)s")
    mixture = generators.add_parser("mixture", parents=[seeded], help="a Gaussian mixture")
    mixture.add_argument("--spec", required=True, help="JSON mixture spec (means, covs, counts)")
    generators.add_parser("matched-moments", parents=[seeded, sized],
                          help="the matched-moment pair that fid cannot tell apart")
    tightness = generators.add_parser("tightness", parents=[seeded, sized],
                                      help="the pair where fid = bcfid + wcfid")
    tightness.add_argument("--sigma-real", default="1,2", help="default %(default)s")
    tightness.add_argument("--sigma-gen", default="2,1", help="default %(default)s")
    dirichlet = generators.add_parser("dirichlet", parents=[seeded, sized],
                                      help="Dirichlet probability rows")
    dirichlet.add_argument("--alpha", default="1,1", help="one per column; default %(default)s")

    for sub in (*subs.choices.values(), *generators.choices.values()):
        sub.set_defaults(parser=sub)  # a generator's default overrides synth's
    return parser


def main(argv=None) -> int:
    # argparse hands a command's undefined flags back to the root parser
    args, undefined = make_parser().parse_known_args(argv)
    if undefined:
        args.parser.error(f"unrecognized arguments: {' '.join(undefined)}")
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 4
    except NotPSDError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except InvalidInputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:  # console_scripts hook
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
