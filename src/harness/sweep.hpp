// Parallel sweep/campaign runner.
//
// Every figure in the paper is a sweep: a grid of experiment points
// (protocol x workload x load x ...) evaluated independently. Each point
// builds its own `sim::Simulation`, so points share no mutable state and
// can run on a thread pool; results are written into a vector indexed by
// input position, making parallel output byte-identical to serial (see
// tests/test_determinism.cpp).
//
// The generic `map` runs any per-index function; `run` is the
// `ExperimentConfig` convenience used by the FCT/utilization figures, with
// JSON export for downstream plotting.
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/options.hpp"

namespace amrt::harness {

struct SweepOptions {
  // 0 = one thread per hardware core.
  unsigned threads = 0;
  // Called after each point completes (serialized; `done` points of `total`
  // are finished). For progress meters on long sweeps.
  std::function<void(std::size_t done, std::size_t total)> on_progress;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions opts = {});

  [[nodiscard]] unsigned threads() const { return threads_; }

  // Deterministic parallel for: fn(0) .. fn(n-1), each exactly once. Blocks
  // until all complete; the first exception thrown by any point is
  // rethrown. Points may run on any worker in any order.
  void for_each(std::size_t n, const std::function<void(std::size_t)>& fn);

  // Deterministic parallel map: out[i] = fn(i), input order preserved.
  template <typename R, typename Fn>
  [[nodiscard]] std::vector<R> map(std::size_t n, Fn&& fn) {
    std::vector<R> out(n);
    for_each(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  // map over a vector of sweep points: out[i] = fn(points[i]).
  template <typename T, typename Fn>
  [[nodiscard]] auto map_points(const std::vector<T>& points, Fn&& fn)
      -> std::vector<decltype(fn(points.front()))> {
    using R = decltype(fn(points.front()));
    std::vector<R> out(points.size());
    for_each(points.size(), [&](std::size_t i) { out[i] = fn(points[i]); });
    return out;
  }

  // Runs `run_experiment` over every point.
  [[nodiscard]] std::vector<ExperimentResult> run(const std::vector<ExperimentConfig>& points);

 private:
  unsigned threads_;
  std::function<void(std::size_t, std::size_t)> on_progress_;
};

// Machine-readable sweep export: a JSON array with one object per point
// (config knobs + summary metrics; per-flow records are deliberately
// omitted — use write_fct_csv for those).
void write_results_json(std::ostream& os, const std::vector<ExperimentConfig>& points,
                        const std::vector<ExperimentResult>& results);

// Runner wired from the shared bench flags: --threads= plus a stderr
// progress meter ("tag 3/48").
[[nodiscard]] SweepRunner make_bench_runner(const BenchOptions& opts, const char* tag);

// Writes `write_results_json` to opts.json_path when --json= was given.
void export_json_if_requested(const BenchOptions& opts,
                              const std::vector<ExperimentConfig>& points,
                              const std::vector<ExperimentResult>& results);

}  // namespace amrt::harness
