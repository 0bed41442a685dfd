#include "workload/traffic.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "workload/flow_trace.hpp"

namespace amrt::workload {

namespace {

// --------------------------------------------------------------------------
// Pair-model layer: who talks to whom. Samplers may draw in prepare() (the
// permutation does); sample() draws per arrival.
// --------------------------------------------------------------------------

class PairSampler {
 public:
  virtual ~PairSampler() = default;
  virtual void prepare(const TrafficConfig&, sim::Rng&) {}
  // One (src, dst) pair, src != dst.
  virtual std::pair<std::size_t, std::size_t> sample(std::size_t n_hosts, sim::Rng& rng) = 0;
};

// The legacy matrix. Draw order (src index, then dst indices until
// distinct) is the original FlowGenerator's, bit for bit.
class UniformPairs final : public PairSampler {
 public:
  std::pair<std::size_t, std::size_t> sample(std::size_t n, sim::Rng& rng) override {
    const std::size_t src = rng.index(n);
    std::size_t dst;
    do {
      dst = rng.index(n);
    } while (dst == src);
    return {src, dst};
  }
};

// Rack-skewed matrix: hosts grouped into racks of `hosts_per_rack`
// consecutive indices; the leading ceil(hot_rack_fraction * racks) racks
// are hot and attract `hot_weight` of the src mass; `locality` of dsts stay
// in the src's rack, the rest are drawn from the same hot/cold marginal.
class HotRackPairs final : public PairSampler {
 public:
  explicit HotRackPairs(const SkewConfig& skew) : skew_{skew} {}

  void prepare(const TrafficConfig& cfg, sim::Rng&) override {
    const std::size_t hpr = std::max<std::size_t>(1, skew_.hosts_per_rack);
    n_ = cfg.n_hosts;
    hpr_ = hpr;
    racks_ = (n_ + hpr - 1) / hpr;
    const double want = skew_.hot_rack_fraction * static_cast<double>(racks_);
    hot_ = std::clamp<std::size_t>(static_cast<std::size_t>(want + 0.5), 1, racks_);
  }

  std::pair<std::size_t, std::size_t> sample(std::size_t, sim::Rng& rng) override {
    const std::size_t src = host_in_rack(sample_rack(rng), rng);
    // Locality first, then the skewed marginal for remote dsts. A one-host
    // rack can never satisfy a local draw, so bound the attempts and fall
    // back to the uniform matrix — termination beats purity here.
    for (int attempt = 0; attempt < 64; ++attempt) {
      const std::size_t rack =
          rng.bernoulli(skew_.locality) ? src / hpr_ : sample_rack(rng);
      const std::size_t dst = host_in_rack(rack, rng);
      if (dst != src) return {src, dst};
    }
    std::size_t dst;
    do {
      dst = rng.index(n_);
    } while (dst == src);
    return {src, dst};
  }

 private:
  std::size_t sample_rack(sim::Rng& rng) {
    if (hot_ >= racks_) return rng.index(racks_);
    return rng.bernoulli(skew_.hot_weight) ? rng.index(hot_)
                                           : hot_ + rng.index(racks_ - hot_);
  }
  std::size_t host_in_rack(std::size_t rack, sim::Rng& rng) {
    const std::size_t lo = rack * hpr_;
    const std::size_t hi = std::min(n_, lo + hpr_);
    return lo + rng.index(hi - lo);
  }

  SkewConfig skew_;
  std::size_t n_ = 0, hpr_ = 1, racks_ = 1, hot_ = 1;
};

// Fixed random derangement: host i always sends to perm[i]. The classic
// all-to-all stress matrix — every sender has exactly one receiver, so the
// fabric carries n simultaneous disjoint "elephant lanes".
class PermutationPairs final : public PairSampler {
 public:
  void prepare(const TrafficConfig& cfg, sim::Rng& rng) override {
    perm_.resize(cfg.n_hosts);
    for (std::size_t i = 0; i < perm_.size(); ++i) perm_[i] = i;
    for (std::size_t i = perm_.size() - 1; i > 0; --i) {
      std::swap(perm_[i], perm_[rng.index(i + 1)]);
    }
    // Break fixed points so src != dst always holds; one pass suffices (a
    // swap can only plant the *other* index at a position it came from).
    for (std::size_t i = 0; i < perm_.size(); ++i) {
      if (perm_[i] == i) std::swap(perm_[i], perm_[(i + 1) % perm_.size()]);
    }
  }

  std::pair<std::size_t, std::size_t> sample(std::size_t n, sim::Rng& rng) override {
    const std::size_t src = rng.index(n);
    return {src, perm_[src]};
  }

  [[nodiscard]] const std::vector<std::size_t>& permutation() const { return perm_; }

 private:
  std::vector<std::size_t> perm_;
};

// --------------------------------------------------------------------------
// Arrival-model layer: the gap to the next arrival unit.
// --------------------------------------------------------------------------

class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;
  virtual double gap_seconds(double mean_s, sim::Rng& rng) = 0;
};

class PoissonArrivals final : public ArrivalProcess {
 public:
  double gap_seconds(double mean_s, sim::Rng& rng) override { return rng.exponential(mean_s); }
};

// Open-loop clients: a fixed injection clock that does not slow down when
// the fabric congests (no draw — the schedule is a metronome).
class FixedRateArrivals final : public ArrivalProcess {
 public:
  double gap_seconds(double mean_s, sim::Rng&) override { return mean_s; }
};

std::unique_ptr<PairSampler> make_pairs(const WorkloadSpec& spec) {
  switch (spec.pairs) {
    case PairModel::kUniform:
      return std::make_unique<UniformPairs>();
    case PairModel::kHotRack:
      return std::make_unique<HotRackPairs>(spec.skew);
    case PairModel::kPermutation:
      return std::make_unique<PermutationPairs>();
  }
  throw std::logic_error("make_pairs: unknown pair model");
}

std::unique_ptr<ArrivalProcess> make_arrivals(const WorkloadSpec& spec) {
  switch (spec.arrivals) {
    case ArrivalModel::kPoisson:
      return std::make_unique<PoissonArrivals>();
    case ArrivalModel::kFixedRate:
      return std::make_unique<FixedRateArrivals>();
  }
  throw std::logic_error("make_arrivals: unknown arrival model");
}

// --------------------------------------------------------------------------
// Structure layer + the synthetic engines (legacy, skewed, fanout): one
// generate loop, parameterized by the layers above.
// --------------------------------------------------------------------------

class SyntheticEngine final : public TrafficEngine {
 public:
  SyntheticEngine(WorkloadSpec spec, const EmpiricalCdf& sizes)
      : spec_{std::move(spec)}, sizes_{sizes} {}

  std::vector<GeneratedFlow> generate(const TrafficConfig& cfg, sim::Rng& rng) override {
    if (cfg.n_hosts < 2) throw std::invalid_argument("TrafficEngine: need at least two hosts");
    const double mean_bytes = spec_.engine == Engine::kFanout && spec_.response_bytes > 0
                                  ? static_cast<double>(spec_.response_bytes)
                                  : sizes_.mean_bytes();
    const double mean_gap_s = mean_interarrival(cfg, mean_bytes).to_seconds();

    auto pairs = make_pairs(spec_);
    auto arrivals = make_arrivals(spec_);
    pairs->prepare(cfg, rng);

    std::vector<GeneratedFlow> flows;
    flows.reserve(cfg.n_flows);
    sim::TimePoint at = cfg.first_arrival;
    std::uint64_t next_group = 1;
    while (flows.size() < cfg.n_flows) {
      const std::size_t room = cfg.n_flows - flows.size();
      std::vector<GeneratedFlow> unit;
      if (spec_.engine == Engine::kFanout) {
        unit = fanout_request(cfg, rng, next_group, room);
      } else if (spec_.coflow_fraction > 0.0 && rng.bernoulli(spec_.coflow_fraction)) {
        unit = coflow_group(cfg, rng, next_group, room, *pairs);
      } else {
        GeneratedFlow f;
        const auto [src, dst] = pairs->sample(cfg.n_hosts, rng);
        f.src_host = src;
        f.dst_host = dst;
        f.bytes = sizes_.sample(rng);
        unit.push_back(f);
      }
      // One arrival-clock tick per unit, scaled by its member count so load
      // accounting holds (legacy: one member, the exact original draw).
      at += sim::Duration::from_seconds(
          arrivals->gap_seconds(mean_gap_s * static_cast<double>(unit.size()), rng));
      for (auto& f : unit) {
        f.id = flows.size() + 1;
        f.start = at;
        flows.push_back(f);
      }
    }
    return flows;
  }

  const char* name() const override { return to_string(spec_.engine); }

 private:
  // Incast coflow: `coflow_width` distinct senders into one receiver drawn
  // through the pair model (so hot racks attract coflows too).
  std::vector<GeneratedFlow> coflow_group(const TrafficConfig& cfg, sim::Rng& rng,
                                          std::uint64_t& next_group, std::size_t room,
                                          PairSampler& pairs) {
    const std::size_t width = std::min({std::max<std::size_t>(2, spec_.coflow_width),
                                        cfg.n_hosts - 1, std::max<std::size_t>(1, room)});
    const auto [first_src, dst] = pairs.sample(cfg.n_hosts, rng);
    const std::uint64_t group = next_group++;
    std::vector<GeneratedFlow> unit;
    std::vector<std::size_t> senders{first_src};
    while (senders.size() < width) {
      std::size_t s = 0;
      bool fresh = false;
      for (int attempt = 0; attempt < 64 && !fresh; ++attempt) {
        s = rng.index(cfg.n_hosts);
        fresh = s != dst && std::find(senders.begin(), senders.end(), s) == senders.end();
      }
      if (!fresh) {
        // Tiny fabric: distinctness is unsatisfiable; reuse is acceptable.
        do {
          s = rng.index(cfg.n_hosts);
        } while (s == dst);
      }
      senders.push_back(s);
    }
    for (const std::size_t s : senders) {
      GeneratedFlow f;
      f.src_host = s;
      f.dst_host = dst;
      f.bytes = sizes_.sample(rng);
      f.group_id = group;
      unit.push_back(f);
    }
    return unit;
  }

  // Front-end fan-out: one user request hits a front end, which fans out to
  // `fanout` distinct backends whose responses converge on it. We model the
  // response wave (the part the fabric actually feels): N backend→frontend
  // flows sharing one group_id == request_id; the request completes when
  // the slowest response lands (stats::GroupBook::requests).
  std::vector<GeneratedFlow> fanout_request(const TrafficConfig& cfg, sim::Rng& rng,
                                            std::uint64_t& next_group, std::size_t room) {
    const std::size_t width = std::min({std::max<std::size_t>(1, spec_.fanout),
                                        cfg.n_hosts - 1, std::max<std::size_t>(1, room)});
    const std::size_t frontend = rng.index(cfg.n_hosts);
    std::vector<std::size_t> backends;
    while (backends.size() < width) {
      std::size_t b = 0;
      bool fresh = false;
      for (int attempt = 0; attempt < 64 && !fresh; ++attempt) {
        b = rng.index(cfg.n_hosts);
        fresh = b != frontend && std::find(backends.begin(), backends.end(), b) == backends.end();
      }
      if (!fresh) {
        do {
          b = rng.index(cfg.n_hosts);
        } while (b == frontend);
      }
      backends.push_back(b);
    }
    const std::uint64_t request = next_group++;
    std::vector<GeneratedFlow> unit;
    for (const std::size_t b : backends) {
      GeneratedFlow f;
      f.src_host = b;
      f.dst_host = frontend;
      f.bytes = spec_.response_bytes > 0 ? spec_.response_bytes : sizes_.sample(rng);
      f.group_id = request;
      f.request_id = request;
      unit.push_back(f);
    }
    return unit;
  }

  WorkloadSpec spec_;
  const EmpiricalCdf& sizes_;
};

// --------------------------------------------------------------------------
// Trace replay.
// --------------------------------------------------------------------------

class TraceEngine final : public TrafficEngine {
 public:
  explicit TraceEngine(std::string path) : path_{std::move(path)} {}

  std::vector<GeneratedFlow> generate(const TrafficConfig& cfg, sim::Rng&) override {
    auto flows = read_trace_file(path_);
    for (const auto& f : flows) {
      if (f.src_host >= cfg.n_hosts || f.dst_host >= cfg.n_hosts) {
        throw TraceError(path_ + ": flow " + std::to_string(f.id) + " references host " +
                         std::to_string(std::max(f.src_host, f.dst_host)) + " but the fabric has " +
                         std::to_string(cfg.n_hosts) + " hosts");
      }
    }
    return flows;
  }

  const char* name() const override { return "trace"; }

 private:
  std::string path_;
};

}  // namespace

// Multi-flow arrival units scale this gap by their member count so the
// offered byte rate is invariant across structures. The round trip through
// Duration (integer ns) is load-bearing: the legacy engine's exponential
// draws are only bit-identical to the original generator's if the mean is.
sim::Duration mean_interarrival(const TrafficConfig& cfg, double mean_flow_bytes) {
  const double agg_bps = cfg.load * static_cast<double>(cfg.n_hosts) *
                         static_cast<double>(cfg.host_rate.bits_per_second());
  const double mean_bits = mean_flow_bytes * 8.0;
  if (agg_bps <= 0.0) throw std::invalid_argument("TrafficEngine: load must be positive");
  const double lambda = agg_bps / mean_bits;
  return sim::Duration::from_seconds(1.0 / lambda);
}

const char* to_string(Engine e) {
  switch (e) {
    case Engine::kLegacy:
      return "legacy";
    case Engine::kSkewed:
      return "skewed";
    case Engine::kFanout:
      return "fanout";
    case Engine::kTrace:
      return "trace";
  }
  return "?";
}

const char* to_string(PairModel p) {
  switch (p) {
    case PairModel::kUniform:
      return "uniform";
    case PairModel::kHotRack:
      return "hotrack";
    case PairModel::kPermutation:
      return "permutation";
  }
  return "?";
}

const char* to_string(ArrivalModel a) {
  switch (a) {
    case ArrivalModel::kPoisson:
      return "poisson";
    case ArrivalModel::kFixedRate:
      return "fixed";
  }
  return "?";
}

Engine engine_from_string(const std::string& s) {
  if (s == "legacy" || s == "poisson") return Engine::kLegacy;
  if (s == "skewed" || s == "skew") return Engine::kSkewed;
  if (s == "fanout") return Engine::kFanout;
  if (s == "trace") return Engine::kTrace;
  throw std::invalid_argument("unknown workload engine: " + s);
}

PairModel pair_model_from_string(const std::string& s) {
  if (s == "uniform") return PairModel::kUniform;
  if (s == "hotrack" || s == "hot-rack") return PairModel::kHotRack;
  if (s == "permutation" || s == "perm") return PairModel::kPermutation;
  throw std::invalid_argument("unknown pair model: " + s);
}

ArrivalModel arrival_model_from_string(const std::string& s) {
  if (s == "poisson") return ArrivalModel::kPoisson;
  if (s == "fixed" || s == "fixed-rate" || s == "openloop" || s == "open-loop") {
    return ArrivalModel::kFixedRate;
  }
  throw std::invalid_argument("unknown arrival model: " + s);
}

std::unique_ptr<TrafficEngine> make_engine(const WorkloadSpec& spec, const EmpiricalCdf* sizes) {
  if (spec.engine == Engine::kTrace) {
    if (spec.trace_path.empty()) {
      throw std::invalid_argument("make_engine: trace engine needs a trace_path");
    }
    return std::make_unique<TraceEngine>(spec.trace_path);
  }
  if (sizes == nullptr) {
    throw std::invalid_argument("make_engine: synthetic engines need a size CDF");
  }
  WorkloadSpec effective = spec;
  if (spec.engine == Engine::kLegacy) {
    // The byte-identity contract: legacy is uniform pairs + Poisson + no
    // structure, whatever else the spec says.
    effective.pairs = PairModel::kUniform;
    effective.arrivals = ArrivalModel::kPoisson;
    effective.coflow_fraction = 0.0;
  }
  return std::make_unique<SyntheticEngine>(std::move(effective), *sizes);
}

std::vector<GeneratedFlow> generate_traffic(const WorkloadSpec& spec, const EmpiricalCdf* sizes,
                                            const TrafficConfig& cfg, sim::Rng& rng) {
  return make_engine(spec, sizes)->generate(cfg, rng);
}

}  // namespace amrt::workload
