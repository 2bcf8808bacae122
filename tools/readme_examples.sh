#!/bin/sh
# Run every command-line example of the README, plus the full-size kernel
# sweep for every odd n <= 41, in a fresh temporary directory.  Stops at the
# first command that fails.  A RuntimeWarning counts as a failure, so the
# n = 101 range check also checks that the sweep of every D^p Q^49 kernel
# row raises no overflow or invalid-value warning.
#
#     sh tools/readme_examples.sh        # needs `smt` on PATH
set -eu
export PYTHONWARNINGS=error::RuntimeWarning
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
echo '{"profile": {"family": "bump", "center": 0.55, "width": 0.25, "n": 3}}' > profile.json
echo '{"n": 5, "epsilon": 0.2, "m": 6, "bump": [0.6, 0.15]}' > ucp.json
set -x
smt identities --max-k 8
# the kernel cancellation for every odd n <= 41 (k = (n - 3) / 2 <= 19)
smt identities --max-k 19
smt identities --max-k 8 --out ids.csv
smt mk-check --k 6 --count 100 --seed 7
smt forward --config profile.json --grid 2001 --out fwd.csv
smt invert --n 3 --input fwd.csv --out rec.csv
cut -d, -f1,3 fwd.csv > th.csv
smt range-check --n 3 --input th.csv
smt forward --config profile.json --n 5 --m 2 --grid 2001 --out fwd5m2.csv
smt range-check --config profile.json --m 2
smt range-check --config profile.json --tol 1e-6
smt range-check --config profile.json --n 25
smt range-check --config profile.json --n 101
smt forward --config profile.json --n 25 --grid 2001 --derivatives --out fwd25.csv
# h and dp_h_0 come from one quadrature sweep: identical below the header
smt forward --config profile.json --n 5 --grid 2001 --derivatives --out fwd5d.csv
awk -F, '/^[#t]/ {next} ($3 "") != ($4 "") {print "h and dp_h_0 differ: " $0; bad = 1} END {exit bad}' fwd5d.csv
# the same at m = 2: dp_h_p is D^p h_m at every m
smt forward --config profile.json --n 5 --m 2 --grid 2001 --derivatives --out fwd5m2d.csv
awk -F, '/^[#t]/ {next} ($3 "") != ($4 "") {print "h and dp_h_0 differ: " $0; bad = 1} END {exit bad}' fwd5m2d.csv
smt cross-check --config profile.json --grid 20 --lambda-max 40
smt cross-check --config profile.json --n 9 --grid 20 --lambda-max 40
smt zeros --config profile.json --count 10
smt zeros --config profile.json --count 10 --m 2
smt zeros --config profile.json --n 9 --count 10
smt ucp-demo --config ucp.json --out run.csv
smt ucp-demo --n 3 --m 2 --epsilon 0.2 > /dev/null
