#!/usr/bin/env sh
# Rebuilds the golden FCT fixtures from the release build: the packet-level
# tests/golden_fct.inc and the flow-level tests/golden_flow_fct.inc. Run
# from the repo root after a change that is *supposed* to alter observable
# results:
#
#   cmake --build build --target regen_golden_fct && tools/regen_golden.sh
#
#   tools/regen_golden.sh [--check] [BUILD_DIR]    (BUILD_DIR defaults to build)
#
# With --check, regenerates to temp files and asserts they are byte-identical
# to the committed fixtures (exit 1 with a diff otherwise); the golden_check
# ctest runs it against its own build tree. This is the
# faults-disabled determinism gate: fault-injection machinery compiled in
# but not armed must not change a single byte of the golden run. The flow
# fixture gates the max-min water-filling the same way: a faster sharing
# algorithm must reproduce every completion time to the nanosecond.
set -eu
check=0
if [ "${1:-}" = "--check" ]; then
  check=1
  shift
fi
# Resolve BUILD_DIR against the caller's directory before moving to the root.
build="$(cd "${1:-$(dirname "$0")/../build}" && pwd)"
cd "$(dirname "$0")/.."

if [ "$check" = 1 ]; then
  tmp="$(mktemp)"
  flow_tmp="$(mktemp)"
  trap 'rm -f "$tmp" "$flow_tmp"' EXIT
  "$build"/tools/regen_golden_fct > "$tmp"
  if cmp -s "$tmp" tests/golden_fct.inc; then
    echo "golden fixture byte-identical"
  else
    echo "golden fixture DRIFTED:" >&2
    diff -u tests/golden_fct.inc "$tmp" >&2 || true
    exit 1
  fi
  "$build"/tools/regen_golden_fct --flow > "$flow_tmp"
  if cmp -s "$flow_tmp" tests/golden_flow_fct.inc; then
    echo "flow golden fixture byte-identical"
  else
    echo "flow golden fixture DRIFTED:" >&2
    diff -u tests/golden_flow_fct.inc "$flow_tmp" >&2 || true
    exit 1
  fi
  # The fidelity switch (DESIGN.md §15) must be inert on the packet path:
  # spelling --fidelity=packet explicitly has to produce byte-for-byte the
  # same run as the default. Anything less means the flow-level fast path
  # leaked into the packet simulator.
  default_out="$(mktemp)"
  packet_out="$(mktemp)"
  trap 'rm -f "$tmp" "$flow_tmp" "$default_out" "$packet_out"' EXIT
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
  exit 0
fi

"$build"/tools/regen_golden_fct > tests/golden_fct.inc.new
mv tests/golden_fct.inc.new tests/golden_fct.inc
echo "wrote tests/golden_fct.inc"
"$build"/tools/regen_golden_fct --flow > tests/golden_flow_fct.inc.new
mv tests/golden_flow_fct.inc.new tests/golden_flow_fct.inc
echo "wrote tests/golden_flow_fct.inc"
