#include "flowsim/fabric.hpp"

#include <stdexcept>

#include "util/hash.hpp"

namespace amrt::flowsim {

Fabric Fabric::leaf_spine(int leaves, int spines, int hosts_per_leaf, sim::Bandwidth link_rate) {
  if (leaves < 1 || spines < 1 || hosts_per_leaf < 1) {
    throw std::invalid_argument("flowsim::Fabric::leaf_spine: need leaves/spines/hosts >= 1");
  }
  Fabric f;
  f.kind_ = Kind::kLeafSpine;
  f.leaves_ = leaves;
  f.spines_ = spines;
  f.hosts_per_leaf_ = hosts_per_leaf;
  f.n_hosts_ = static_cast<std::size_t>(leaves) * static_cast<std::size_t>(hosts_per_leaf);
  const double cap = static_cast<double>(link_rate.bits_per_second());
  // Layout: [host uplinks][host downlinks][leaf->spine][spine->leaf].
  const std::size_t n_links = 2 * f.n_hosts_ + 2 * static_cast<std::size_t>(leaves) *
                                                   static_cast<std::size_t>(spines);
  f.capacity_bps_.assign(n_links, cap);
  return f;
}

void Fabric::set_capacity_bps(LinkId l, double bps) {
  if (l >= capacity_bps_.size() || !(bps > 0.0)) {
    throw std::invalid_argument("flowsim::Fabric::set_capacity_bps: bad link or capacity");
  }
  capacity_bps_[l] = bps;
}

LinkId Fabric::leaf_up(int leaf, int spine) const {
  return static_cast<LinkId>(2 * n_hosts_ +
                             static_cast<std::size_t>(leaf) * static_cast<std::size_t>(spines_) +
                             static_cast<std::size_t>(spine));
}

LinkId Fabric::spine_down(int spine, int leaf) const {
  return static_cast<LinkId>(2 * n_hosts_ +
                             static_cast<std::size_t>(leaves_) * static_cast<std::size_t>(spines_) +
                             static_cast<std::size_t>(spine) * static_cast<std::size_t>(leaves_) +
                             static_cast<std::size_t>(leaf));
}

Fabric Fabric::fat_tree(int k, sim::Bandwidth link_rate) {
  if (k < 2 || k % 2 != 0) {
    throw std::invalid_argument("flowsim::Fabric::fat_tree: k must be even and >= 2");
  }
  Fabric f;
  f.kind_ = Kind::kFatTree;
  f.k_ = k;
  const std::size_t half = static_cast<std::size_t>(k) / 2;
  const std::size_t pods = static_cast<std::size_t>(k);
  const std::size_t edges = pods * half;   // flat edge index: pod*half + e
  const std::size_t aggs = pods * half;    // flat agg index:  pod*half + a
  const std::size_t cores = half * half;   // core index:      a*half + j
  f.n_hosts_ = edges * half;               // (pod*half + e)*half + h
  const double cap = static_cast<double>(link_rate.bits_per_second());
  // Layout: [host up][host down][edge->agg][agg->core][agg->edge][core->pod].
  f.ft_edge_up_base_ = static_cast<std::uint32_t>(2 * f.n_hosts_);
  f.ft_agg_up_base_ = static_cast<std::uint32_t>(f.ft_edge_up_base_ + edges * half);
  f.ft_agg_down_base_ = static_cast<std::uint32_t>(f.ft_agg_up_base_ + aggs * half);
  f.ft_core_down_base_ = static_cast<std::uint32_t>(f.ft_agg_down_base_ + aggs * half);
  const std::size_t n_links = f.ft_core_down_base_ + cores * pods;
  f.capacity_bps_.assign(n_links, cap);
  return f;
}

void Fabric::path(std::uint64_t flow_id, std::size_t src, std::size_t dst,
                  std::vector<LinkId>& out) const {
  if (src >= n_hosts_ || dst >= n_hosts_ || src == dst) {
    throw std::invalid_argument("flowsim::Fabric::path: bad host pair");
  }
  out.push_back(host_up(src));
  if (kind_ == Kind::kLeafSpine) {
    const int l_src = static_cast<int>(src) / hosts_per_leaf_;
    const int l_dst = static_cast<int>(dst) / hosts_per_leaf_;
    if (l_src != l_dst) {
      const auto s = static_cast<int>(util::ecmp_pick(flow_id, 0, static_cast<unsigned>(spines_)));
      out.push_back(leaf_up(l_src, s));
      out.push_back(spine_down(s, l_dst));
    }
  } else {
    const std::size_t half = static_cast<std::size_t>(k_) / 2;
    const std::size_t e_src = src / half;      // flat edge index
    const std::size_t e_dst = dst / half;
    const std::size_t p_src = e_src / half;    // pod
    const std::size_t p_dst = e_dst / half;
    if (e_src != e_dst) {
      const std::size_t a = util::ecmp_pick(flow_id, 0, half);  // agg (ECMP up at the edge)
      out.push_back(static_cast<LinkId>(ft_edge_up_base_ + e_src * half + a));
      if (p_src == p_dst) {
        out.push_back(static_cast<LinkId>(ft_agg_down_base_ + (p_src * half + a) * half +
                                          (e_dst % half)));
      } else {
        const std::size_t j = util::ecmp_pick(flow_id, 1, half);  // core in agg a's group
        out.push_back(static_cast<LinkId>(ft_agg_up_base_ + (p_src * half + a) * half + j));
        const std::size_t core = a * half + j;
        out.push_back(static_cast<LinkId>(ft_core_down_base_ + core * static_cast<std::size_t>(k_) +
                                          p_dst));
        // Core `a*half+j` homes on aggregation switch `a` of every pod.
        out.push_back(static_cast<LinkId>(ft_agg_down_base_ + (p_dst * half + a) * half +
                                          (e_dst % half)));
      }
    }
  }
  out.push_back(host_down(dst));
}

}  // namespace amrt::flowsim
