#include "fabric/fat_tree.h"

#include <stdexcept>

#include "obs/flow_trace.h"

namespace incast::fabric {

std::string host_node_name(int pod, int leaf, int slot) {
  return leaf_node_name(pod, leaf) + ".h" + std::to_string(slot);
}

std::string leaf_node_name(int pod, int leaf) {
  return "p" + std::to_string(pod) + ".l" + std::to_string(leaf);
}

std::string agg_node_name(int pod, int agg) {
  return "p" + std::to_string(pod) + ".a" + std::to_string(agg);
}

std::string spine_node_name(int spine) { return "s" + std::to_string(spine); }

FatTree::FatTree(sim::Simulator& sim, const FatTreeConfig& config) : config_{config} {
  if (config_.num_pods < 1 || config_.leaves_per_pod < 1 || config_.hosts_per_leaf < 1 ||
      config_.num_spines < 1 || config_.aggs_per_pod < 0) {
    throw std::invalid_argument(
        "FatTree: pods, leaves_per_pod, hosts_per_leaf and spines must be >= 1 "
        "and aggs_per_pod >= 0");
  }

  const int leaves = num_leaves();
  const int aggs = config_.num_pods * config_.aggs_per_pod;

  // Node ids: hosts first (so host ids match their global index), then
  // leaves, aggs, spines.
  net::NodeId next_id = 0;
  hosts_.reserve(static_cast<std::size_t>(num_hosts()));
  for (int p = 0; p < config_.num_pods; ++p) {
    for (int l = 0; l < config_.leaves_per_pod; ++l) {
      for (int h = 0; h < config_.hosts_per_leaf; ++h) {
        hosts_.push_back(
            std::make_unique<net::Host>(sim, next_id++, host_node_name(p, l, h)));
      }
    }
  }
  leaves_.reserve(static_cast<std::size_t>(leaves));
  for (int p = 0; p < config_.num_pods; ++p) {
    for (int l = 0; l < config_.leaves_per_pod; ++l) {
      leaves_.push_back(
          std::make_unique<net::Switch>(sim, next_id++, leaf_node_name(p, l)));
    }
  }
  aggs_.reserve(static_cast<std::size_t>(aggs));
  for (int p = 0; p < config_.num_pods; ++p) {
    for (int a = 0; a < config_.aggs_per_pod; ++a) {
      aggs_.push_back(std::make_unique<net::Switch>(sim, next_id++, agg_node_name(p, a)));
    }
  }
  spines_.reserve(static_cast<std::size_t>(config_.num_spines));
  for (int s = 0; s < config_.num_spines; ++s) {
    spines_.push_back(std::make_unique<net::Switch>(sim, next_id++, spine_node_name(s)));
  }

  // Host <-> leaf downlinks.
  leaf_downlinks_.resize(static_cast<std::size_t>(leaves));
  leaf_uplinks_.resize(static_cast<std::size_t>(leaves));
  for (int gl = 0; gl < leaves; ++gl) {
    net::Switch& lf = leaf(gl);
    for (int h = 0; h < config_.hosts_per_leaf; ++h) {
      net::Host& host_ref = host(gl * config_.hosts_per_leaf + h);
      host_ref.add_nic(config_.host_link, config_.link_delay, config_.host_queue);
      const std::size_t tor_port =
          lf.add_port(config_.host_link, config_.link_delay, config_.switch_queue);
      net::connect_duplex(host_ref, 0, lf, tor_port);
      register_duplex(host_ref, 0, lf, tor_port);
      lf.set_route(host_ref.id(), tor_port);
      leaf_downlinks_[static_cast<std::size_t>(gl)].push_back(tor_port);
    }
  }

  // Uplink tiers. Member order inside every ECMP group follows the peer
  // switch index, so all leaves (and all spines) agree on member ordering —
  // the precondition for symmetric flow/ACK choices.
  // spine_down[s][gl]: spine s's port toward leaf gl (two-tier).
  std::vector<std::vector<std::size_t>> spine_down;
  // agg_down[ga][l]: agg's port toward in-pod leaf l; agg_up[ga]: spine ports.
  std::vector<std::vector<std::size_t>> agg_down;
  std::vector<std::vector<std::size_t>> agg_up;
  // spine_to_agg[s][ga]: spine s's port toward agg ga (three-tier).
  std::vector<std::vector<std::size_t>> spine_to_agg;

  if (!three_tier()) {
    spine_down.assign(static_cast<std::size_t>(config_.num_spines), {});
    for (int gl = 0; gl < leaves; ++gl) {
      for (int s = 0; s < config_.num_spines; ++s) {
        const std::size_t lp =
            leaf(gl).add_port(config_.leaf_uplink, config_.link_delay, config_.switch_queue);
        const std::size_t sp =
            spine(s).add_port(config_.leaf_uplink, config_.link_delay, config_.switch_queue);
        net::connect_duplex(leaf(gl), lp, spine(s), sp);
        register_duplex(leaf(gl), lp, spine(s), sp);
        leaf_uplinks_[static_cast<std::size_t>(gl)].push_back(lp);
        spine_down[static_cast<std::size_t>(s)].push_back(sp);
      }
    }
  } else {
    agg_down.assign(static_cast<std::size_t>(aggs), {});
    agg_up.assign(static_cast<std::size_t>(aggs), {});
    spine_to_agg.assign(static_cast<std::size_t>(config_.num_spines), {});
    for (int p = 0; p < config_.num_pods; ++p) {
      for (int l = 0; l < config_.leaves_per_pod; ++l) {
        const int gl = p * config_.leaves_per_pod + l;
        for (int a = 0; a < config_.aggs_per_pod; ++a) {
          const int ga = p * config_.aggs_per_pod + a;
          net::Switch& ag = agg(p, a);
          const std::size_t lp = leaf(gl).add_port(config_.leaf_uplink, config_.link_delay,
                                                   config_.switch_queue);
          const std::size_t ap =
              ag.add_port(config_.leaf_uplink, config_.link_delay, config_.switch_queue);
          net::connect_duplex(leaf(gl), lp, ag, ap);
          register_duplex(leaf(gl), lp, ag, ap);
          leaf_uplinks_[static_cast<std::size_t>(gl)].push_back(lp);
          agg_down[static_cast<std::size_t>(ga)].push_back(ap);
        }
      }
      for (int a = 0; a < config_.aggs_per_pod; ++a) {
        const int ga = p * config_.aggs_per_pod + a;
        net::Switch& ag = agg(p, a);
        for (int s = 0; s < config_.num_spines; ++s) {
          const std::size_t up =
              ag.add_port(config_.spine_link, config_.link_delay, config_.switch_queue);
          const std::size_t sp =
              spine(s).add_port(config_.spine_link, config_.link_delay, config_.switch_queue);
          net::connect_duplex(ag, up, spine(s), sp);
          register_duplex(ag, up, spine(s), sp);
          agg_up[static_cast<std::size_t>(ga)].push_back(up);
          spine_to_agg[static_cast<std::size_t>(s)].push_back(sp);
        }
      }
    }
  }

  // Routes: up via ECMP over uplinks, down deterministically by destination
  // (except the spine's descent into a multi-agg pod, also ECMP).
  for (int hid = 0; hid < num_hosts(); ++hid) {
    const net::NodeId dst = host(hid).id();
    const int gl = leaf_of_host(hid);
    const int p = pod_of_leaf(gl);
    const int l = gl % config_.leaves_per_pod;
    for (int other = 0; other < leaves; ++other) {
      if (other == gl) continue;  // local downlink route already set
      leaf(other).set_ecmp_route(dst, leaf_uplinks_[static_cast<std::size_t>(other)]);
    }
    if (!three_tier()) {
      for (int s = 0; s < config_.num_spines; ++s) {
        spine(s).set_route(dst, spine_down[static_cast<std::size_t>(s)]
                                          [static_cast<std::size_t>(gl)]);
      }
    } else {
      for (int ap = 0; ap < config_.num_pods; ++ap) {
        for (int a = 0; a < config_.aggs_per_pod; ++a) {
          const int ga = ap * config_.aggs_per_pod + a;
          if (ap == p) {
            agg(ap, a).set_route(dst, agg_down[static_cast<std::size_t>(ga)]
                                              [static_cast<std::size_t>(l)]);
          } else {
            agg(ap, a).set_ecmp_route(dst, agg_up[static_cast<std::size_t>(ga)]);
          }
        }
      }
      for (int s = 0; s < config_.num_spines; ++s) {
        // Descend into pod p through any of its aggs, in agg order.
        std::vector<std::size_t> group;
        group.reserve(static_cast<std::size_t>(config_.aggs_per_pod));
        for (int a = 0; a < config_.aggs_per_pod; ++a) {
          const int ga = p * config_.aggs_per_pod + a;
          group.push_back(spine_to_agg[static_cast<std::size_t>(s)]
                                      [static_cast<std::size_t>(ga)]);
        }
        spine(s).set_ecmp_route(dst, std::move(group));
      }
    }
  }

  for (net::Switch* sw : switches()) {
    sw->set_ecmp_seed(config_.ecmp_seed);
    for (std::size_t i = 0; i < sw->num_ports(); ++i) {
      sw->port(i).set_int_stamping(true);
    }
  }

  // Tier tags for the flow tracer's per-tier queueing attribution.
  const auto tag_tier = [](net::Node& node, obs::HopTier tier) {
    for (std::size_t i = 0; i < node.num_ports(); ++i) {
      node.port(i).set_trace_tier(tier);
    }
  };
  for (auto& h : hosts_) tag_tier(*h, obs::HopTier::kHost);
  for (auto& lf : leaves_) tag_tier(*lf, obs::HopTier::kTor);
  for (auto& ag : aggs_) tag_tier(*ag, obs::HopTier::kAgg);
  for (auto& sp : spines_) tag_tier(*sp, obs::HopTier::kSpine);
  if (config_.shared_buffer.has_value()) {
    for (auto& lf : leaves_) lf->enable_shared_buffer(*config_.shared_buffer);
  }
  if (config_.pfc.has_value()) {
    for (net::Switch* sw : switches()) sw->enable_pfc(*config_.pfc);
  }
}

net::Host& FatTree::host(int pod, int leaf_index, int slot) {
  return host((pod * config_.leaves_per_pod + leaf_index) * config_.hosts_per_leaf + slot);
}

net::Switch& FatTree::agg(int pod, int a) {
  return *aggs_.at(static_cast<std::size_t>(pod * config_.aggs_per_pod + a));
}

std::vector<net::Switch*> FatTree::switches() {
  std::vector<net::Switch*> out;
  out.reserve(leaves_.size() + aggs_.size() + spines_.size());
  for (auto& sw : leaves_) out.push_back(sw.get());
  for (auto& sw : aggs_) out.push_back(sw.get());
  for (auto& sw : spines_) out.push_back(sw.get());
  return out;
}

net::DropTailQueue& FatTree::downlink_queue(int host_index) {
  const int gl = leaf_of_host(host_index);
  const std::size_t port = leaf_downlinks_.at(static_cast<std::size_t>(gl))
                               .at(static_cast<std::size_t>(host_index % config_.hosts_per_leaf));
  return leaf(gl).port(port).queue();
}

std::string FatTree::downlink_name(int host_index) const {
  const int gl = leaf_of_host(host_index);
  const int p = pod_of_leaf(gl);
  const int l = gl % config_.leaves_per_pod;
  const int slot = host_index % config_.hosts_per_leaf;
  return leaf_node_name(p, l) + "->" + host_node_name(p, l, slot);
}

std::vector<net::Port*> FatTree::leaf_uplink_ports(int global_leaf) {
  std::vector<net::Port*> out;
  for (const std::size_t idx : leaf_uplink_port_indices(global_leaf)) {
    out.push_back(&leaf(global_leaf).port(idx));
  }
  return out;
}

std::vector<std::string> FatTree::leaf_uplink_names(int global_leaf) const {
  const int p = pod_of_leaf(global_leaf);
  const int l = global_leaf % config_.leaves_per_pod;
  const std::string from = leaf_node_name(p, l);
  std::vector<std::string> out;
  if (!three_tier()) {
    for (int s = 0; s < config_.num_spines; ++s) {
      out.push_back(from + "->" + spine_node_name(s));
    }
  } else {
    for (int a = 0; a < config_.aggs_per_pod; ++a) {
      out.push_back(from + "->" + agg_node_name(p, a));
    }
  }
  return out;
}

std::vector<std::string> FatTree::spine_egress_names_toward(int global_leaf) const {
  const int p = pod_of_leaf(global_leaf);
  const int l = global_leaf % config_.leaves_per_pod;
  std::vector<std::string> out;
  for (int s = 0; s < config_.num_spines; ++s) {
    if (!three_tier()) {
      out.push_back(spine_node_name(s) + "->" + leaf_node_name(p, l));
    } else {
      for (int a = 0; a < config_.aggs_per_pod; ++a) {
        out.push_back(spine_node_name(s) + "->" + agg_node_name(p, a));
      }
    }
  }
  return out;
}

double FatTree::oversubscription() const noexcept {
  const int uplinks = three_tier() ? config_.aggs_per_pod : config_.num_spines;
  const double offered = static_cast<double>(config_.hosts_per_leaf) *
                         static_cast<double>(config_.host_link.bps());
  const double capacity = static_cast<double>(uplinks) *
                          static_cast<double>(config_.leaf_uplink.bps());
  return offered / capacity;
}

sim::Time FatTree::base_rtt(std::int64_t data_bytes) const {
  const std::int64_t ack_bytes = net::kHeaderBytes;
  // Worst-case up/down path between hosts under different leaves: 4 links
  // each way in the two-tier fabric, 6 in the three-tier.
  const int hops = three_tier() ? 6 : 4;
  sim::Time data_ser = config_.host_link.serialization_time(data_bytes) * 2;
  sim::Time ack_ser = config_.host_link.serialization_time(ack_bytes) * 2;
  if (!three_tier()) {
    data_ser = data_ser + config_.leaf_uplink.serialization_time(data_bytes) * 2;
    ack_ser = ack_ser + config_.leaf_uplink.serialization_time(ack_bytes) * 2;
  } else {
    data_ser = data_ser + config_.leaf_uplink.serialization_time(data_bytes) * 2 +
               config_.spine_link.serialization_time(data_bytes) * 2;
    ack_ser = ack_ser + config_.leaf_uplink.serialization_time(ack_bytes) * 2 +
              config_.spine_link.serialization_time(ack_bytes) * 2;
  }
  return config_.link_delay * (2 * hops) + data_ser + ack_ser;
}

}  // namespace incast::fabric
