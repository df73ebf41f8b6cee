#!/usr/bin/env bash
# Write bellkit's deterministic CLI reports, for byte-for-byte comparison.
#
# Usage: tools/cli_reports.sh INPUTS OUT
#
# Runs the CLI of the checkout this script belongs to, with
# PYTHONWARNINGS=error::RuntimeWarning.  INPUTS receives a state file and an
# operator file, written once from the built-in reference fixture.  OUT
# receives, for every command, its stdout (NAME.out) and stderr (NAME.err),
# the exit codes of the commands that succeed (exit-codes.txt) and of those
# whose flag values the CLI refuses, an --out path that cannot be written
# among them (refused-codes.txt), and the model files
# that `fit --out` writes in basis mode (model.json) and in state mode
# (model-state-search.json).  verify-paper's JSON rows lose their
# elapsed_ms, the one field that varies between runs.  The absolute paths of
# INPUTS and OUT read as INPUTS and OUT in every report, so two runs compare
# with `diff -r` whatever directories they used.
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 INPUTS OUT" >&2
  exit 2
fi
mkdir -p "$1" "$2"
inputs=$(cd "$1" && pwd)
out=$(cd "$2" && pwd)
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
export PYTHONPATH="$root/src" PYTHONWARNINGS=error::RuntimeWarning
data=src/bellkit/data

# A path as a sed pattern that matches it literally.
literal() { printf '%s' "$1" | sed 's/[][\.*^$#/]/\\&/g'; }
normalize="s#$(literal "$inputs")#INPUTS#g; s#$(literal "$out")#OUT#g"

# run NAME ARGS...: one CLI command; its streams go to OUT/NAME.out and
# OUT/NAME.err with paths normalized, and its exit code to OUT/$codes.
codes=exit-codes.txt
run() {
  local name=$1 code=0
  shift
  python -m bellkit.cli "$@" > "$out/$name.raw" 2> "$out/$name.err.raw" || code=$?
  sed "$normalize" "$out/$name.raw" > "$out/$name.out"
  sed "$normalize" "$out/$name.err.raw" > "$out/$name.err"
  rm "$out/$name.raw" "$out/$name.err.raw"
  echo "$name $code" >> "$out/$codes"
}

python -c '
import sys
from bellkit.io import canonical_json, operator_to_dict, state_to_dict
from bellkit.modelfit import reference_fixture
_, models, _ = reference_fixture()
state = state_to_dict([0.23, 0.62, 0.75, 0.0], [13.93, 16.72, 9.69, 194.15], "reference")
open(sys.argv[1], "w").write(canonical_json(state))
open(sys.argv[2], "w").write(canonical_json(operator_to_dict(models["AB"].operator)))
' "$inputs/state.json" "$inputs/operator.json"

: > "$out/exit-codes.txt"
run verify-paper verify-paper
run verify-paper-json verify-paper --format json
python -c '
import json, sys
doc = json.load(open(sys.argv[1]))
for row in doc["checks"]:
    row.pop("elapsed_ms")
print(json.dumps(doc, sort_keys=True))
' "$out/verify-paper-json.out" > "$out/verify-paper-json.tmp"
mv "$out/verify-paper-json.tmp" "$out/verify-paper-json.out"
run verify-paper-file verify-paper "$data/reference_dataset_counts.json"
run analyze-counts analyze "$data/reference_dataset_counts.json"
run analyze-probs analyze "$data/reference_dataset.json"
run fit fit "$data/reference_dataset_counts.json" --restarts 2 --seed 3 --format json
run fit-default fit "$data/reference_dataset_counts.json" --seed 3
run fit-state fit "$data/reference_dataset_counts.json" --state "$inputs/state.json" --out "$out/model.json"
run fit-state-json fit "$data/reference_dataset_counts.json" --state "$inputs/state.json" --format json
run fit-state-search fit "$data/reference_dataset_counts.json" --restarts 2 --seed 3 --out "$out/model-state-search.json"
run fit-one-start fit "$data/reference_dataset_counts.json" --restarts 1 --seed 3 --format json
run fit-two-blocks fit "$data/reference_dataset_counts.json" --restarts 300 --seed 3 --format json
run schmidt-state schmidt --state "$inputs/state.json"
run schmidt-canonical schmidt --operator "$inputs/operator.json"
run schmidt-canonical-json schmidt --operator "$inputs/operator.json" --format json
run schmidt-from-model schmidt --operator "$inputs/operator.json" --iso from-model:AB
run schmidt-model schmidt --operator "$inputs/operator.json" --iso "from-model:A'B'" --model "$data/reference_model.json"
run schmidt-fitted-model schmidt --operator "$inputs/operator.json" --iso from-model:AB --model "$out/model.json"

# Flag values the CLI refuses (exit 3), also where the mode does not use them,
# and an --out path that cannot be written.
codes=refused-codes.txt
: > "$out/$codes"
run refuse-fit-restarts fit "$data/reference_dataset_counts.json" --restarts 0
run refuse-fit-state-restarts fit "$data/reference_dataset_counts.json" --state "$inputs/state.json" --restarts 0
run refuse-fit-tolerance fit "$data/reference_dataset_counts.json" --tolerance nan
run refuse-fit-state-tolerance fit "$data/reference_dataset_counts.json" --state "$inputs/state.json" --tolerance inf
run refuse-fit-seed fit "$data/reference_dataset_counts.json" --seed -1
run refuse-schmidt-tolerance schmidt --state "$inputs/state.json" --tolerance 1
run refuse-analyze-tolerance analyze "$data/reference_dataset_counts.json" --tolerance nan
run refuse-fit-out fit "$data/reference_dataset_counts.json" --out "$out/missing/m.json"
run refuse-fit-state-out fit "$data/reference_dataset_counts.json" --state "$inputs/state.json" --out "$out/missing/m.json"
