#include "mermaid/net/network.h"

#include <algorithm>

#include "mermaid/base/check.h"

namespace mermaid::net {

namespace {

bool InWindow(SimTime t, SimTime from, SimTime until) {
  return t >= from && t < until;
}

bool InGroup(const std::vector<HostId>& group, HostId h) {
  return std::find(group.begin(), group.end(), h) != group.end();
}

// Per-packet stat keys, resolved once (see base::StatKey).
const base::StatKey kPacketsSent("net.packets_sent");
const base::StatKey kBytesSent("net.bytes_sent");
const base::StatKey kPacketsDropped("net.packets_dropped");
const base::StatKey kOutageDropped("net.outage_dropped");
const base::StatKey kPartitionDropped("net.partition_dropped");
const base::StatKey kRuleDropped("net.rule_dropped");
const base::StatKey kReorderInjected("net.reorder_injected");
const base::StatKey kDupInjected("net.dup_injected");

}  // namespace

Network::Network(sim::Runtime& rt, Config cfg)
    : rt_(rt), cfg_(cfg), rng_(cfg.seed) {}

sim::Chan<Packet> Network::Attach(HostId id,
                                  const arch::ArchProfile* profile) {
  MERMAID_CHECK(profile != nullptr);
  MERMAID_CHECK_MSG(!Attached(id), "host attached to the network twice");
  if (id >= hosts_.size()) hosts_.resize(static_cast<std::size_t>(id) + 1);
  HostEntry& entry = hosts_[id];
  entry.profile = profile;
  entry.rx = sim::Chan<Packet>(rt_);
  return entry.rx;
}

const arch::ArchProfile& Network::ProfileOf(HostId id) const {
  MERMAID_CHECK_MSG(Attached(id), "unknown host id");
  return *hosts_[id].profile;
}

void Network::SetFaultPlan(FaultPlan plan) {
  // Collect hook firings before installing (the daemon captures them by
  // value so a later SetFaultPlan cannot race with in-flight hooks).
  struct Firing {
    SimTime at;
    std::function<void()> fn;
  };
  std::vector<Firing> firings;
  for (auto& o : plan.outages) {
    if (o.on_down) firings.push_back({o.from, o.on_down});
    if (o.on_restart && o.until != kFaultForever) {
      firings.push_back({o.until, o.on_restart});
    }
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    plan_ = std::move(plan);
  }
  if (firings.empty()) return;
  std::sort(firings.begin(), firings.end(),
            [](const Firing& a, const Firing& b) { return a.at < b.at; });
  rt_.Spawn(
      "net-chaos",
      [this, firings = std::move(firings)] {
        sim::Chan<bool> never(rt_);
        for (const Firing& f : firings) {
          if (f.at > rt_.Now()) {
            bool timed_out = false;
            auto m = never.RecvUntil(f.at, &timed_out);
            if (!m.has_value() && !timed_out) return;  // shutdown
          }
          f.fn();
        }
      },
      /*daemon=*/true);
}

void Network::PauseHost(HostId id) {
  std::lock_guard<std::mutex> lk(mu_);
  paused_.insert(id);
  stats_.Inc("net.host_pauses");
}

void Network::ResumeHost(HostId id) {
  std::lock_guard<std::mutex> lk(mu_);
  paused_.erase(id);
}

void Network::CrashHost(HostId id) {
  std::function<void()> hook;
  {
    std::lock_guard<std::mutex> lk(mu_);
    crashed_.insert(id);
    stats_.Inc("net.host_crashes");
    auto it = crash_hooks_.find(id);
    if (it != crash_hooks_.end()) hook = it->second;
  }
  // Fired outside the lock: hooks reach back into endpoint state (e.g. the
  // reassembler purge) whose own locks must not nest under mu_.
  if (hook) hook();
}

void Network::SetCrashHook(HostId id, std::function<void()> hook) {
  std::lock_guard<std::mutex> lk(mu_);
  crash_hooks_[id] = std::move(hook);
}

void Network::RestartHost(HostId id) {
  std::lock_guard<std::mutex> lk(mu_);
  crashed_.erase(id);
}

bool Network::HostDownLocked(HostId id, SimTime t) const {
  if (crashed_.count(id) > 0 || paused_.count(id) > 0) return true;
  for (const auto& o : plan_.outages) {
    if (o.host == id && InWindow(t, o.from, o.until)) return true;
  }
  return false;
}

bool Network::HostDown(HostId id, SimTime t) const {
  std::lock_guard<std::mutex> lk(mu_);
  return HostDownLocked(id, t);
}

bool Network::FaultDropLocked(const Packet& pkt, SimTime send_time,
                              SimTime deliver_time) {
  // A down host cannot put packets on the wire.
  if (HostDownLocked(pkt.src, send_time)) {
    stats_.Inc(kOutageDropped);
    return true;
  }
  // Receive side: nothing reaches a host that is down when the packet is
  // sent or when it would arrive (a crash loses in-flight packets; a paused
  // host is simply unreachable for the window).
  if (HostDownLocked(pkt.dst, send_time) ||
      HostDownLocked(pkt.dst, deliver_time)) {
    stats_.Inc(kOutageDropped);
    return true;
  }
  for (const auto& p : plan_.partitions) {
    if (!InWindow(send_time, p.from, p.until)) continue;
    if (InGroup(p.group, pkt.src) != InGroup(p.group, pkt.dst)) {
      stats_.Inc(kPartitionDropped);
      return true;
    }
  }
  for (const auto& r : plan_.drops) {
    if (!InWindow(send_time, r.from, r.until)) continue;
    if (r.src.has_value() && *r.src != pkt.src) continue;
    if (r.dst.has_value() && *r.dst != pkt.dst) continue;
    if (r.kind.has_value() && *r.kind != pkt.kind) continue;
    if (rng_.NextBool(r.probability)) {
      stats_.Inc(kRuleDropped);
      return true;
    }
  }
  return false;
}

void Network::Send(Packet pkt, SimDuration extra_delay) {
  MERMAID_CHECK_MSG(Attached(pkt.src) && Attached(pkt.dst),
                    "send between unattached hosts");
  MERMAID_CHECK(pkt.wire_size() <= cfg_.mtu);
  HostEntry& dst = hosts_[pkt.dst];

  const arch::LinkCost link =
      arch::LinkCostFor(*hosts_[pkt.src].profile, *dst.profile);
  const SimDuration fixed = pkt.kind == MsgKind::kControl ? link.control_fixed
                                                          : link.data_fixed;
  double latency =
      static_cast<double>(fixed) +
      link.wire_ns_per_byte * static_cast<double>(pkt.wire_size()) +
      static_cast<double>(extra_delay);
  bool duplicate = false;
  bool dropped = false;
  SimDuration dup_extra = 0;
  SimTime now = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (cfg_.jitter > 0) {
      latency *= 1.0 + cfg_.jitter * (2.0 * rng_.NextDouble() - 1.0);
    }
    stats_.Inc(kPacketsSent);
    stats_.Inc(kBytesSent, static_cast<std::int64_t>(pkt.wire_size()));
    now = rt_.Now();
    if (FaultDropLocked(pkt, now, now + static_cast<SimDuration>(latency))) {
      stats_.Inc(kPacketsDropped);
      dropped = true;
    } else if (cfg_.loss_probability > 0 &&
               rng_.NextBool(cfg_.loss_probability)) {
      stats_.Inc(kPacketsDropped);
      dropped = true;
    }
    if (!dropped) {
      if (plan_.reorder_probability > 0 &&
          rng_.NextBool(plan_.reorder_probability)) {
        // Delay this packet past its natural slot so later sends overtake
        // it.
        latency += static_cast<double>(
            rng_.NextBelow(static_cast<std::uint64_t>(
                std::max<SimDuration>(1, plan_.reorder_delay_max))));
        stats_.Inc(kReorderInjected);
      }
      if (plan_.duplicate_probability > 0 &&
          rng_.NextBool(plan_.duplicate_probability)) {
        duplicate = true;
        dup_extra = static_cast<SimDuration>(
            rng_.NextBelow(static_cast<std::uint64_t>(
                std::max<SimDuration>(1, plan_.reorder_delay_max))));
        stats_.Inc(kDupInjected);
      }
    }
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Record(dropped ? trace::EventKind::kPacketDrop
                            : trace::EventKind::kPacketSend,
                    pkt.src, now, trace::kNoPage, 0, 0,
                    static_cast<std::int64_t>(pkt.wire_size()), pkt.dst);
  }
  if (dropped) return;
  if (duplicate) {
    Packet copy = pkt;
    dst.rx.Send(std::move(copy),
                static_cast<SimDuration>(latency) + dup_extra);
  }
  dst.rx.Send(std::move(pkt), static_cast<SimDuration>(latency));
}

}  // namespace mermaid::net
