// Flow-trace format: the interchange between synthetic generation and
// replay (DESIGN.md §14). A trace is a line-oriented CSV file:
//
//   # amrt-flow-trace v1
//   # t_ns,src,dst,bytes,group_id[,request_id]
//   27859,5,11,1014287,0,0
//   116595,0,7,103937,0,0
//   ...
//
// One data row per flow, in non-decreasing t_ns order; flow ids are implicit
// (row order, 1-based), which is what makes a dumped schedule replay with
// the exact flow ids — and therefore the exact FCT records — of the
// synthetic run it came from. `group_id`/`request_id` are 0 for ungrouped
// flows; the sixth column may be omitted (older dumps) and defaults to 0.
// Lines that are empty or start with '#' are ignored.
//
// The reader is strict: a malformed line (wrong field count, non-numeric
// field, src == dst, zero bytes) or a timestamp that goes backwards raises
// TraceError carrying "<name>:<line>: <what>" — silently mis-scheduling a
// mis-sorted trace is the one failure mode replay must never have.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "workload/traffic.hpp"

namespace amrt::workload {

// Parse/validation failure; what() is "<name>:<line>: <message>" for line
// errors, "<name>: <message>" for file-level ones.
class TraceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr const char* kTraceMagic = "# amrt-flow-trace v1";

// Reads a complete trace. `name` labels diagnostics (a path or "<memory>").
// Flow ids are assigned 1..n in row order. Throws TraceError on any
// malformed line or non-monotonic timestamp.
[[nodiscard]] std::vector<GeneratedFlow> read_trace(std::istream& in, const std::string& name);

// Convenience: opens `path` and calls read_trace; TraceError if unreadable.
[[nodiscard]] std::vector<GeneratedFlow> read_trace_file(const std::string& path);

// Writes `flows` (assumed sorted by start, as every engine emits) with the
// v1 header. A write→read round trip reproduces t/src/dst/bytes/group/request
// exactly and reassigns the same 1..n ids.
void write_trace(std::ostream& out, const std::vector<GeneratedFlow>& flows);
void write_trace_file(const std::string& path, const std::vector<GeneratedFlow>& flows);

}  // namespace amrt::workload
