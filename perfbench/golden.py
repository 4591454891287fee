"""Golden model dumps: fixed-seed ``to_model_text`` output for every
strategy x learner x ensemble kind on zoo, glass and vowel.

    python3 perfbench/golden.py            # regenerate and diff against the stored copy
    python3 perfbench/golden.py --write    # replace the stored copy

The check exits 1 and prints a unified diff of each dump that changed.  An
ensemble dump lists each member's ``to_model_text`` in order, with its
weight.  A build that raises records the error instead, so a change in
which builds fail shows as a diff too.
"""

from __future__ import annotations

import argparse
import difflib
import sys

from workloads import BENCH_DIR, ROOT, import_package, load_arff

GOLDEN_DIR = BENCH_DIR / "golden"
DATASETS = ("zoo", "glass", "vowel")
STRATEGIES = ("random", "class_balanced", "centroid", "random_pair")
LEARNERS = ("logistic", "tree")
ENSEMBLES = {
    "none": None,
    "random": "build_random_ensemble",
    "bagging": "build_bagged_ensemble",
    "adaboost": "build_adaboost_ensemble",
    "multiboost": "build_multiboost_ensemble",
}
SEED = 7
SIZE = 4  # multiboost with 4 members wags once, after member 2


def dump(pkg, d, dataset, strategy, learner, ensemble) -> str:
    params = (
        pkg.learners.LogisticParams(max_iterations=1000)
        if learner == "logistic"
        else pkg.learners.TreeParams()
    )
    selector = pkg.selection.SubsetSelector(strategy)
    header = f"# dataset={dataset} strategy={strategy} learner={learner} ensemble={ensemble} seed={SEED}\n"
    try:
        if ensemble == "none":
            return header + pkg.dichotomy.build_nd(d, selector, params, SEED).to_model_text()
        build = getattr(pkg.ensemble, ENSEMBLES[ensemble])
        model = build(d, selector, params, SIZE, SEED)
    except pkg.errors.NDError as exc:
        return header + f"error {type(exc).__name__}: {exc}\n"
    lines = [
        header
        + f"ensemble {model.ensemble_kind} combiner={model.combiner} members={len(model.members)}\n"
    ]
    for i, (member, weight) in enumerate(zip(model.members, model.member_weights)):
        lines.append(f"member {i} weight={float(weight)!r}\n")
        lines.append(member.to_model_text())
    return "".join(lines)


def generate():
    pkg = import_package()
    for dataset in DATASETS:
        d = load_arff(pkg, dataset)
        for strategy in STRATEGIES:
            for learner in LEARNERS:
                for ensemble in ENSEMBLES:
                    path = GOLDEN_DIR / dataset / f"{strategy}-{learner}-{ensemble}.txt"
                    yield path, dump(pkg, d, dataset, strategy, learner, ensemble)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Golden model dumps")
    parser.add_argument("--write", action="store_true", help="replace the stored copy")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    changed = 0
    total = 0
    for path, text in generate():
        total += 1
        if args.write:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            continue
        stored = path.read_text() if path.exists() else ""
        if stored != text:
            changed += 1
            sys.stdout.writelines(
                difflib.unified_diff(
                    stored.splitlines(keepends=True),
                    text.splitlines(keepends=True),
                    fromfile=f"stored/{path.relative_to(GOLDEN_DIR)}",
                    tofile=f"generated/{path.relative_to(GOLDEN_DIR)}",
                )
            )
    if args.write:
        print(f"wrote {total} dumps under {GOLDEN_DIR.relative_to(ROOT)}")
        return 0
    print(f"{total - changed} of {total} dumps identical")
    return 1 if changed else 0


if __name__ == "__main__":
    raise SystemExit(main())
