#!/usr/bin/env bash
# The installed package parses, validates and builds a default
# config and runs a 20-step solve, implicit and explicit, and a
# 5-evaluation optimize, not only the PYTHONPATH=src copy; the
# explicit report's balance residuals are finite, the uniqueness
# probe (1 000 explicit steps a run) passes, a certified sweep
# with a convolution history (block-evaluated loads and the
# certificate's replay) passes, `verify history` passes on the
# weighted l1 problem with its true constant and exits with
# exactly 1 on a quarter of it, and an unbalanced solve and a
# load that is infinite at t = 0 (also under -W error, where
# numpy's warning is raised) exit with exactly 1, as does a load
# infinite at t = 0.5 under -W error, naming step 10/20.
#
# Needs the `histris` console script on PATH.  Run from the repository
# root as `bash .github/scripts/console-checks.sh`; it stops at the first
# failing command, as a workflow step does.
set -e

histris --help
histris verify compat --out "$(mktemp -d)"
cfg="$(mktemp -d)/solve.yaml"
printf 'model: {n_steps: 20}\n' > "$cfg"
histris solve --config "$cfg" --out "$(mktemp -d)"
printf 'model: {n_steps: 20}\ncontrol: {max_evals: 5}\n' > "$cfg"
histris optimize --config "$cfg" --out "$(mktemp -d)"
printf 'model: {n_steps: 20}\nsolver: {method: explicit, eps: 0.5}\n' > "$cfg"
out="$(mktemp -d)"
histris solve --config "$cfg" --out "$out"
# The explicit method is under the balance gate too: every row
# of its report has a finite balance residual.
python -c 'import csv, math, sys; rows = list(csv.DictReader(line for line in open(sys.argv[1]) if not line.startswith("#"))); sys.exit(not rows or not all(math.isfinite(float(r["balance_residual"])) for r in rows))' "$out/report.csv"
printf 'model: {n_steps: 100}\nsolver: {eps: 0.01}\n' > "$cfg"
histris verify unique --config "$cfg" --out "$(mktemp -d)"
printf 'model: {n_steps: 200}\nhistory: {kind: convolution, kernel: "exp(-2*t)"}\n' > "$cfg"
histris sweep --config "$cfg" --out "$(mktemp -d)"
printf 'mesh: {n_nodes: 9}\nmodel: {n_steps: 40}\ndissipation: {family: weighted_l1, weight: "0.5 + 0.2*sin(z)", lipschitz: 0.2}\nhistory: {kind: convolution, kernel: "exp(-2*t)"}\n' > "$cfg"
histris verify history --config "$cfg" --out "$(mktemp -d)"
sed -i 's/lipschitz: 0.2/lipschitz: 0.05/' "$cfg"
status=0
histris verify history --config "$cfg" --out "$(mktemp -d)" || status=$?
test "$status" -eq 1
printf 'model: {n_steps: 200}\nload: {time: "1e10*sin(pi*t)"}\n' > "$cfg"
status=0
histris solve --config "$cfg" --out "$(mktemp -d)" || status=$?
test "$status" -eq 1
printf 'model: {n_steps: 20}\nload: {time: "1/t"}\n' > "$cfg"
status=0
histris solve --config "$cfg" --out "$(mktemp -d)" || status=$?
test "$status" -eq 1
status=0
python -W error -m histris.cli solve --config "$cfg" --out "$(mktemp -d)" || status=$?
test "$status" -eq 1
# Under -W error a load singular inside the run fails by its step.
printf 'model: {n_steps: 20}\nload: {time: "1/(t-0.5)"}\n' > "$cfg"
status=0
python -W error -m histris.cli solve --config "$cfg" --out "$(mktemp -d)" 2> "$cfg.err" || status=$?
test "$status" -eq 1
grep -q 'step 10/20' "$cfg.err"
