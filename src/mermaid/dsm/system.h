// Mermaid system assembly: hosts + network + allocator + synchronization.
//
// Mirrors Figure 1 of the paper: thread management (SpawnThread), shared
// memory management (the Host engines + typed allocator), and remote
// operations (the request-response endpoints), over a simulated
// heterogeneous host base.
//
// Typical use:
//   sim::Engine eng;
//   dsm::SystemConfig cfg;
//   dsm::System sys(eng, cfg, {&arch::Sun3Profile(), &arch::FireflyProfile()});
//   arch::TypeId rec = sys.registry().RegisterRecord(...);  // before Start
//   sys.Start();
//   auto addr = ... (allocate from a spawned thread);
//   sys.SpawnThread(0, "master", [&](dsm::Host& h) { ... });
//   eng.Run();
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mermaid/arch/arch.h"
#include "mermaid/arch/type_registry.h"
#include "mermaid/dsm/allocator.h"
#include "mermaid/dsm/central.h"
#include "mermaid/dsm/directory.h"
#include "mermaid/dsm/host.h"
#include "mermaid/dsm/referee.h"
#include "mermaid/dsm/types.h"
#include "mermaid/net/network.h"
#include "mermaid/sim/runtime.h"
#include "mermaid/sync/sync.h"
#include "mermaid/trace/trace.h"

namespace mermaid::dsm {

class System {
 public:
  System(sim::Runtime& rt, SystemConfig cfg,
         std::vector<const arch::ArchProfile*> host_profiles);
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  // Starts endpoints, the allocation worker, and the sync server. Register
  // user-defined record types with registry() before calling this.
  void Start();

  // Allocates `count` elements of `type` in the shared region, invoked from
  // a process on host `h` (blocking; aborts if the region is exhausted —
  // sizing the region is a configuration decision).
  GlobalAddr Alloc(net::HostId h, arch::TypeId type, std::uint64_t count);

  // Spawns an application thread on host `h` ("threads may be created on
  // remote hosts directly").
  void SpawnThread(net::HostId h, const std::string& name,
                   std::function<void(Host&)> fn);

  Host& host(net::HostId h);
  std::uint16_t num_hosts() const {
    return static_cast<std::uint16_t>(hosts_.size());
  }
  std::uint32_t page_bytes() const { return page_bytes_; }
  arch::TypeRegistry& registry() { return registry_; }
  net::Network& network() { return *network_; }
  sync::Client& sync(net::HostId h);
  // The alternative central-server shared-data backend (§2.1's "several DSM
  // packages on the same system"); its region is separate from the
  // page-based one. Server lives on host 0.
  CentralClient& central(net::HostId h);
  CentralServer& central_server() { return *central_server_; }
  CoherenceReferee& referee() { return referee_; }
  const SystemConfig& config() const { return cfg_; }

  // Merged statistics across hosts, endpoints (including their reassembly
  // registries), and the network.
  base::StatsRegistry& GatherStats();

  // Drops every per-component registry and the process-global bulk-copy
  // counters, so a second run in the same process reports run-local numbers
  // instead of cumulative ones. Call between back-to-back runs.
  void ResetStats();

  // The system-wide protocol tracer (enabled iff config().trace). Always
  // present so callers can Snapshot() unconditionally; empty when disabled.
  trace::Tracer& tracer() { return *tracer_; }

  // Crash-stop with amnesia: host `h` loses every page copy, manager entry,
  // and in-flight operation; its incarnation is bumped so zombie
  // replies from its previous life are fenced. The referee forgets its
  // copies and the sync server breaks any locks it held. Requires
  // config().crash_recovery. The host stays down (messages dropped) until
  // RestartHostRecover. An Alloc meanwhile skips its type-set batch to `h`
  // and leaves those pages to the restart's replay.
  void CrashHostAmnesia(net::HostId h);
  // Brings a crashed host back: reconnects the network, replays the
  // allocator's page type/extent metadata into the restarted manager (the
  // one piece of state modeled as durable — see DESIGN.md), and runs
  // manager-state reconstruction (blocking until the rebuild finishes).
  void RestartHostRecover(net::HostId h);
  // Convenience: CrashHostAmnesia now, then a spawned process delays
  // `down_for` and runs RestartHostRecover.
  void CrashAndRestartHost(net::HostId h, SimDuration down_for);

  // Protocol quiescence snapshot: once all application threads are done and
  // confirms have drained, no manager entry should remain busy and no
  // transfer queued. Chaos tests assert both are zero.
  struct QuiescenceReport {
    std::uint64_t busy_entries = 0;
    std::uint64_t pending_transfers = 0;
  };
  QuiescenceReport CheckQuiescent();

  // Multi-line human-readable per-host breakdown (faults, transfers,
  // conversions) plus network totals.
  std::string ReportStats();

 private:
  struct AllocRequest {
    arch::TypeId type = 0;
    std::uint64_t count = 0;
    std::optional<net::RequestContext> remote;
    sim::Chan<GlobalAddr> local_reply;
  };

  void AllocWorker();

  sim::Runtime& rt_;
  SystemConfig cfg_;
  std::unique_ptr<trace::Tracer> tracer_;
  std::uint32_t page_bytes_;
  // Page -> base manager, built once and read by every host's Directory;
  // declared before hosts_ so it outlives them.
  const Placement placement_;
  arch::TypeRegistry registry_;
  CoherenceReferee referee_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::unique_ptr<Allocator> allocator_;  // host 0's bookkeeping
  sim::Chan<AllocRequest> alloc_chan_;
  // Per host: crashed with amnesia and not restarted yet.
  std::vector<bool> amnesic_;
  std::unique_ptr<sync::SyncServer> sync_server_;  // lives on host 0
  std::vector<sync::Client> sync_clients_;
  std::unique_ptr<CentralServer> central_server_;  // lives on host 0
  std::vector<CentralClient> central_clients_;
  base::StatsRegistry merged_stats_;
  bool started_ = false;
};

}  // namespace mermaid::dsm
