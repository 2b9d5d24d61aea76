// Simulated datagram network.
//
// Models the 10 Mb/s Ethernet of the paper's testbed: unreliable,
// unordered, MTU-limited datagrams between hosts. Latency follows the
// link-cost model calibrated from Table 2 (fixed per-message + wire time per
// byte, with the per-packet fragmentation cost paid by the *sender's* CPU in
// the fragment layer). Optional seeded packet loss and latency jitter
// support failure-injection tests and the paper's thrashing variance.
//
// Beyond i.i.d. loss, a scriptable FaultPlan injects the correlated failures
// a real deployment sees: timed network partitions (drop between host
// groups, then heal), targeted per-(src, dst, kind) drop rules, message
// duplication, latency-spike reordering, and host outages (pause or
// crash+restart windows during which a host can neither send nor receive).
// Every probabilistic decision draws from the network's seeded RNG, so a
// chaos run under the virtual-time engine is exactly reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "mermaid/arch/arch.h"
#include "mermaid/base/buffer.h"
#include "mermaid/base/rng.h"
#include "mermaid/base/stats.h"
#include "mermaid/sim/runtime.h"
#include "mermaid/trace/trace.h"

namespace mermaid::net {

using HostId = std::uint16_t;

// Distinguishes small protocol messages from bulk page transfers; the two
// have different fixed costs in the calibrated model (see LinkCost).
enum class MsgKind : std::uint8_t { kControl, kData };

struct Packet {
  HostId src = 0;
  HostId dst = 0;
  MsgKind kind = MsgKind::kControl;
  // Wire bytes = `bytes` followed by `payload`. Headers and small messages
  // live in `bytes`; a bulk payload tail rides along as a shared zero-copy
  // view (duplicating or re-queueing a Packet never copies the page data).
  std::vector<std::uint8_t> bytes;
  base::Buffer payload;

  std::size_t wire_size() const { return bytes.size() + payload.size(); }
};

// Open-ended time bound for fault windows.
inline constexpr SimTime kFaultForever = std::numeric_limits<SimTime>::max();

// Chaos script applied on top of the base loss/jitter model. All windows are
// [from, until) in simulation time; kFaultForever means "never heals".
struct FaultPlan {
  // Traffic between `group` and every host NOT in `group` is dropped during
  // the window (a clean two-sided partition; intra-group traffic is fine).
  struct Partition {
    std::vector<HostId> group;
    SimTime from = 0;
    SimTime until = kFaultForever;
  };

  // Targeted drop: a packet matching every specified field (nullopt = any)
  // inside the window is dropped with `probability`.
  struct DropRule {
    std::optional<HostId> src;
    std::optional<HostId> dst;
    std::optional<MsgKind> kind;
    SimTime from = 0;
    SimTime until = kFaultForever;
    double probability = 1.0;
  };

  // Host outage (pause or crash window): while down, the host neither sends
  // nor receives, and packets that would arrive during the window are lost.
  // The optional hooks fire from a chaos daemon exactly at the window edges
  // — use them to model crash/restart side effects or to assert mid-outage
  // state in tests.
  struct Outage {
    HostId host = 0;
    SimTime from = 0;
    SimTime until = kFaultForever;
    std::function<void()> on_down;     // fired at `from`
    std::function<void()> on_restart;  // fired at `until`
  };

  std::vector<Partition> partitions;
  std::vector<DropRule> drops;
  std::vector<Outage> outages;

  // Per delivered packet: probability of injecting a duplicate copy and of
  // delaying the packet by up to `reorder_delay_max` (which lets later
  // packets overtake it).
  double duplicate_probability = 0.0;
  double reorder_probability = 0.0;
  SimDuration reorder_delay_max = Milliseconds(5);
};

class Network {
 public:
  struct Config {
    std::uint64_t seed = 1;
    double loss_probability = 0.0;  // per-packet, applied after jitter
    double jitter = 0.0;            // latency *= 1 + U(-jitter, +jitter)
    std::uint32_t mtu = 1500;       // wire bytes per packet
  };

  Network(sim::Runtime& rt, Config cfg);

  // Registers a host and returns its receive channel. The architecture
  // profile drives per-link cost lookup.
  sim::Chan<Packet> Attach(HostId id, const arch::ArchProfile* profile);

  // Sends one packet. `extra_delay` lets the fragment layer account for
  // wire serialization of earlier fragments of the same message.
  void Send(Packet pkt, SimDuration extra_delay = 0);

  // Installs (replaces) the chaos script. May be called before or during a
  // run; a daemon is spawned to fire outage hooks if any are present.
  void SetFaultPlan(FaultPlan plan);

  // Imperative host control for tests that steer chaos by hand: a paused or
  // crashed host can neither send nor receive until resumed/restarted.
  void PauseHost(HostId id);
  void ResumeHost(HostId id);
  void CrashHost(HostId id);    // like pause; in-flight packets also die
  void RestartHost(HostId id);

  // Registers a hook fired (outside the network lock) every time `id` is
  // crashed — imperatively via CrashHost or by a FaultPlan outage that uses
  // CrashHost in its on_down. The endpoint layer uses it to purge the
  // crashed host's partial reassembly buffers at crash time instead of
  // leaving them to age out via the TTL sweeper.
  void SetCrashHook(HostId id, std::function<void()> hook);

  // True if `id` cannot exchange packets at time `t` (outage or imperative
  // pause/crash). Exposed so protocol tests can line assertions up with the
  // scripted windows.
  bool HostDown(HostId id, SimTime t) const;

  std::uint32_t mtu() const { return cfg_.mtu; }
  // True once `id` is attached. Ids come off the wire too, so protocol
  // layers check this before routing anything to one.
  bool Attached(HostId id) const {
    return id < hosts_.size() && hosts_[id].profile != nullptr;
  }
  const arch::ArchProfile& ProfileOf(HostId id) const;  // CHECKs Attached

  base::StatsRegistry& stats() { return stats_; }

  void SetTracer(trace::Tracer* tracer) { tracer_ = tracer; }

 private:
  struct HostEntry {
    const arch::ArchProfile* profile = nullptr;
    sim::Chan<Packet> rx;
  };

  // Drop verdict for one packet under the current plan; called with mu_
  // held (draws from rng_). `send_time`/`deliver_time` bound the windows the
  // packet must survive.
  bool FaultDropLocked(const Packet& pkt, SimTime send_time,
                       SimTime deliver_time);
  bool HostDownLocked(HostId id, SimTime t) const;

  sim::Runtime& rt_;
  Config cfg_;
  // Guards rng_, stats_, plan_ and the imperative down-sets on the real-time
  // runtime (concurrent senders); uncontended under the virtual-time engine.
  // Never held across blocking.
  mutable std::mutex mu_;
  base::Rng rng_;
  // Indexed by HostId; an entry with no profile is a gap between ids.
  std::vector<HostEntry> hosts_;
  FaultPlan plan_;
  std::set<HostId> paused_;   // imperative PauseHost
  std::set<HostId> crashed_;  // imperative CrashHost
  std::map<HostId, std::function<void()>> crash_hooks_;
  base::StatsRegistry stats_;
  trace::Tracer* tracer_ = nullptr;
};

}  // namespace mermaid::net
