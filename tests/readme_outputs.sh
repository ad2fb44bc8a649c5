#!/bin/sh
# Runs the README command sequence and checks the 14 files it writes against
# tests/readme_outputs.sha256, byte for byte. A change that moves any of them
# re-records that file and says why in CHANGES.md.
#
# Usage: sh tests/readme_outputs.sh [DIR]
# The commands run in DIR (default: a new temporary directory) and import tlab
# from this checkout's src/.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
work=${1:-$(mktemp -d)}
cd "$work"
tlab() { PYTHONPATH="$root/src" python -m tlab "$@" > /dev/null; }
tlab generate grim --lambda 2 --tilt + --nx 101 --ny 201 --out grim.grid
tlab check grim.grid --lambda 2 --skip strip_asymptotics_bottom --window 3 --out report.json
tlab solve newton --boundary grim --lambda 2 --nx 101 --ny 121 --out sol.grid
tlab solve newton --boundary strip --lambda 2 --Y 30 --nx 121 --ny 601 --out strip.grid
tlab check strip.grid --lambda 2 --out strip-report.json
tlab solve relax --boundary strip --lambda 2 --Y 6 --nx 61 --ny 121 --tol 1e-2 --out warm.grid
tlab solve newton --boundary strip --lambda 2 --Y 6 --nx 61 --ny 121 \
     --init file --init-file warm.grid --out strip6.grid
tlab profile-export --rmax 80 --step 0.001 --out bowl.csv
tlab generate bowl --nx 101 --ny 101 --out bowl.grid
tlab check bowl.grid --out bowl-report.json
sha256sum -c "$root/tests/readme_outputs.sha256"
