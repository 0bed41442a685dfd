#!/usr/bin/env sh
# Rebuilds the golden fixtures from the release build: the packet-level
# tests/golden_fct.inc, the flow-level tests/golden_flow_fct.inc and the
# run-pipeline pins tests/golden_pins.inc (fuzz case hashes, run_leaf_spine
# digests in every execution mode, figure-scenario digests and flow-run
# digests). Run from the
# repo root after a change that is *supposed* to alter observable results:
#
#   cmake --build build --target regen_golden_fct golden_pins && tools/regen_golden.sh
#
#   tools/regen_golden.sh [--check] [BUILD_DIR]    (BUILD_DIR defaults to build)
#
# With --check, regenerates to temp files and asserts they are byte-identical
# to the committed fixtures (exit 1 with a diff otherwise); the golden_check
# ctest runs it against its own build tree. This is the
# faults-disabled determinism gate: fault-injection machinery compiled in
# but not armed must not change a single byte of the golden run. The flow
# fixture gates the max-min water-filling the same way: a faster sharing
# algorithm must reproduce every completion time to the nanosecond. The pins
# gate the run pipeline: serial, sharded, faulted, mixed-transport and
# mixed-fidelity runs, and the figure scenarios, must replay event for event.
set -eu
check=0
if [ "${1:-}" = "--check" ]; then
  check=1
  shift
fi
# Resolve BUILD_DIR against the caller's directory before moving to the root.
build="$(cd "${1:-$(dirname "$0")/../build}" && pwd)"
cd "$(dirname "$0")/.."

tmp="$(mktemp)"
default_out="$(mktemp)"
packet_out="$(mktemp)"
trap 'rm -f "$tmp" "$default_out" "$packet_out"' EXIT

# fixture NAME FILE COMMAND...: regenerate FILE from COMMAND, or with --check
# diff the fresh output against it.
fixture() {
  name="$1"
  file="$2"
  shift 2
  "$@" > "$tmp"
  if [ "$check" = 0 ]; then
    mv "$tmp" "$file"
    echo "wrote $file"
  elif cmp -s "$tmp" "$file"; then
    echo "$name byte-identical"
  else
    echo "$name DRIFTED:" >&2
    diff -u "$file" "$tmp" >&2 || true
    exit 1
  fi
}

fixture "golden fixture" tests/golden_fct.inc "$build"/tools/regen_golden_fct
fixture "flow golden fixture" tests/golden_flow_fct.inc "$build"/tools/regen_golden_fct --flow
fixture "run pipeline pins" tests/golden_pins.inc "$build"/tools/golden_pins
[ "$check" = 1 ] || exit 0

# The fidelity switch (DESIGN.md §15) must be inert on the packet path:
# spelling --fidelity=packet explicitly has to produce byte-for-byte the
# same run as the default. Anything less means the flow-level fast path
# leaked into the packet simulator.
# The wall-clock figure is the only field allowed to differ between runs.
strip_wall='s/ in [0-9.]*s wall/ in -s wall/'
"$build"/tools/amrt_sim --flows=200 --seed=7 > "$default_out"
"$build"/tools/amrt_sim --flows=200 --seed=7 --fidelity=packet > "$packet_out"
sed -i "$strip_wall" "$default_out" "$packet_out"
if cmp -s "$default_out" "$packet_out"; then
  echo "packet fidelity byte-identical to default"
else
  echo "--fidelity=packet DIVERGED from the default run:" >&2
  diff -u "$default_out" "$packet_out" >&2 || true
  exit 1
fi
