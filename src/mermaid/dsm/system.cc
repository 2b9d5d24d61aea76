#include "mermaid/dsm/system.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "mermaid/base/buffer.h"
#include "mermaid/base/check.h"
#include "mermaid/base/wire.h"

namespace mermaid::dsm {

namespace {

// Events the protocol trace ring keeps; older ones are evicted first.
constexpr std::size_t kTraceCapacity = 1 << 16;

std::uint32_t ResolvePageBytes(const SystemConfig& cfg,
                               const std::vector<const arch::ArchProfile*>&
                                   profiles) {
  if (cfg.page_bytes_override != 0) return cfg.page_bytes_override;
  std::uint32_t smallest = profiles.front()->vm_page_size;
  std::uint32_t largest = profiles.front()->vm_page_size;
  for (const auto* p : profiles) {
    smallest = std::min(smallest, p->vm_page_size);
    largest = std::max(largest, p->vm_page_size);
  }
  return cfg.page_policy == PageSizePolicy::kLargest ? largest : smallest;
}

}  // namespace

System::System(sim::Runtime& rt, SystemConfig cfg,
               std::vector<const arch::ArchProfile*> host_profiles)
    : rt_(rt),
      cfg_(cfg),
      tracer_(std::make_unique<trace::Tracer>(kTraceCapacity)),
      page_bytes_(ResolvePageBytes(cfg, host_profiles)),
      placement_(cfg, static_cast<std::uint16_t>(host_profiles.size()),
                 static_cast<PageNum>(cfg.region_bytes / page_bytes_)) {
  MERMAID_CHECK(!host_profiles.empty());
  MERMAID_CHECK(cfg_.region_bytes % page_bytes_ == 0);
  // Under release consistency the legality rules change (multiple deferred
  // writers, reads through older-but-committed copies): the referee judges
  // with the relaxed rule set.
  referee_.SetRelaxed(cfg_.release_consistency);
  tracer_->Enable(cfg_.trace);
  rt_.SetTracer(tracer_.get());
  network_ = std::make_unique<net::Network>(rt, cfg_.net);
  network_->SetTracer(tracer_.get());
  const auto num_hosts = static_cast<std::uint16_t>(host_profiles.size());
  for (std::uint16_t i = 0; i < num_hosts; ++i) {
    hosts_.push_back(std::make_unique<Host>(
        rt, *network_, cfg_, registry_, i, host_profiles[i], placement_,
        page_bytes_, &referee_));
    hosts_.back()->SetTracer(tracer_.get());
    // Per-message-class wire accounting (reqrep.tx_msgs.<class> /
    // reqrep.tx_bytes.<class>) named with the DSM opcode table.
    hosts_.back()->endpoint().SetOpNamer(&OpName);
  }
  allocator_ = std::make_unique<Allocator>(&registry_, cfg_.region_bytes,
                                           page_bytes_);
  alloc_chan_ = sim::Chan<AllocRequest>(rt);
  amnesic_.assign(num_hosts, false);
  sync_server_ = std::make_unique<sync::SyncServer>(rt);
  sync_server_->SetReleaseConsistency(cfg_.release_consistency);
  central_server_ = std::make_unique<CentralServer>(rt, host_profiles[0],
                                                    cfg_.region_bytes);
  for (std::uint16_t i = 0; i < num_hosts; ++i) {
    sync_clients_.emplace_back(&hosts_[i]->endpoint(), /*server_host=*/0,
                               i == 0 ? sync_server_.get() : nullptr);
    sync_clients_.back().SetTracer(tracer_.get());
    if (cfg_.release_consistency) {
      // Every sync op is a release point (flush twins, publish notices) and
      // every P/EventWait/Barrier an acquire point (pull notices, drop
      // stale copies).
      Host* h = hosts_[i].get();
      sync_clients_.back().SetRcHooks(
          [h] { return h->RcDrainNotices(); },
          [h](const std::vector<sync::WriteNotice>& ns, bool reset) {
            h->RcApplyNotices(ns, reset);
          });
    }
    central_clients_.emplace_back(&hosts_[i]->endpoint(), /*server_host=*/0,
                                  host_profiles[0],
                                  i == 0 ? central_server_.get() : nullptr);
  }
}

System::~System() = default;

void System::Start() {
  MERMAID_CHECK(!started_);
  started_ = true;

  // Extra handlers must be registered before each endpoint starts.
  sync_server_->Attach(hosts_[0]->endpoint());
  central_server_->Attach(hosts_[0]->endpoint());
  hosts_[0]->endpoint().SetHandler(
      kOpAlloc, [this](net::RequestContext ctx) {
        base::WireReader r(ctx.body());
        AllocRequest req;
        req.type = r.U16();
        req.count = r.U64();
        if (!r.ok()) return;
        req.remote = std::move(ctx);
        alloc_chan_.Send(std::move(req));
      });
  for (auto& host : hosts_) host->Start();

  rt_.Spawn("dsm-alloc-worker", [this] { AllocWorker(); },
            /*daemon=*/true);
}

void System::AllocWorker() {
  Host& h0 = *hosts_[0];
  while (auto req = alloc_chan_.Recv()) {
    auto result = allocator_->Alloc(req->type, req->count);
    MERMAID_CHECK_MSG(result.has_value(),
                      "shared region exhausted (or invalid allocation)");
    // Push authoritative type/extent to each touched page's manager before
    // publishing the address (so grants always carry current extents):
    // host 0's own pages directly, the rest as one kOpTypeSet batch per
    // manager, called in ascending manager id. A manager that is down with
    // amnesia, before the call or once it times out, is skipped: the
    // allocator has recorded this allocation, and RestartHostRecover
    // replays every record into it. A manager that is merely unreachable
    // gets no replay, so its timeout stays fatal.
    std::map<net::HostId, base::WireWriter> batches;
    for (PageNum p : result->touched_pages) {
      const net::HostId mgr = placement_.BaseManagerOf(p);
      const std::uint32_t alloc_bytes = allocator_->AllocBytesOfPage(p);
      if (mgr == 0) {
        h0.ApplyTypeSet(p, req->type, alloc_bytes);
        continue;
      }
      base::WireWriter& w = batches[mgr];
      if (w.size() == 0) w.U16(req->type);
      w.U32(p);
      w.U32(alloc_bytes);
    }
    for (auto& [mgr, w] : batches) {
      if (amnesic_[mgr]) continue;
      auto ack = h0.endpoint().CallWithStatus(mgr, kOpTypeSet,
                                              std::move(w).Take(),
                                              net::MsgKind::kControl,
                                              h0.DsmCallOpts());
      if (ack.status == net::CallStatus::kShutdown) return;
      MERMAID_CHECK_MSG(ack.ok() || amnesic_[mgr],
                        "type-set call to page manager timed out");
    }
    if (req->remote.has_value()) {
      base::WireWriter w;
      w.U64(result->addr);
      req->remote->Reply(std::move(w).Take());
    } else {
      req->local_reply.Send(result->addr);
    }
  }
}

GlobalAddr System::Alloc(net::HostId h, arch::TypeId type,
                         std::uint64_t count) {
  MERMAID_CHECK(started_);
  if (h == 0) {
    AllocRequest req;
    req.type = type;
    req.count = count;
    req.local_reply = sim::Chan<GlobalAddr>(rt_);
    auto reply_chan = req.local_reply;
    alloc_chan_.Send(std::move(req));
    auto addr = reply_chan.Recv();
    MERMAID_CHECK(addr.has_value());
    return *addr;
  }
  base::WireWriter w;
  w.U16(type);
  w.U64(count);
  const net::CallResult reply = hosts_[h]->endpoint().CallWithStatus(
      0, kOpAlloc, std::move(w).Take(), net::MsgKind::kControl,
      hosts_[h]->DsmCallOpts());
  MERMAID_CHECK_MSG(reply.ok(), "allocation call failed");
  const base::Buffer body = reply.body.Flatten();
  base::WireReader r(body.span());
  const GlobalAddr addr = r.U64();
  MERMAID_CHECK(r.ok());
  return addr;
}

void System::SpawnThread(net::HostId h, const std::string& name,
                         std::function<void(Host&)> fn) {
  Host* host = hosts_.at(h).get();
  rt_.Spawn(name, [host, fn = std::move(fn)] { fn(*host); });
}

Host& System::host(net::HostId h) { return *hosts_.at(h); }

sync::Client& System::sync(net::HostId h) { return sync_clients_.at(h); }

CentralClient& System::central(net::HostId h) {
  return central_clients_.at(h);
}

base::StatsRegistry& System::GatherStats() {
  merged_stats_.Clear();
  for (auto& h : hosts_) {
    merged_stats_.Merge(h->stats());
    merged_stats_.Merge(h->endpoint().stats());
    // The reassembler keeps a private registry; without this merge its
    // frag.* / net.reassembly_expired counters never reached system totals.
    merged_stats_.Merge(h->endpoint().frag_stats());
  }
  merged_stats_.Merge(network_->stats());
  merged_stats_.Merge(sync_server_->stats());
  return merged_stats_;
}

void System::ResetStats() {
  for (auto& h : hosts_) {
    h->stats().Clear();
    h->endpoint().stats().Clear();
    h->endpoint().frag_stats().Clear();
  }
  network_->stats().Clear();
  central_server_->stats().Clear();
  sync_server_->stats().Clear();
  merged_stats_.Clear();
  tracer_->Clear();
  // The bulk-copy budget counters are process-global (they audit every
  // Buffer copy, not just this system's); reset them too or a second run's
  // copy accounting starts inflated.
  base::BulkCopyReset();
}

void System::CrashHostAmnesia(net::HostId h) {
  MERMAID_CHECK(started_);
  MERMAID_CHECK_MSG(cfg_.crash_recovery,
                    "CrashHostAmnesia requires config().crash_recovery");
  // Host 0 carries the singleton services (allocator worker, sync server,
  // central server); the failure model keeps it up (see DESIGN.md).
  MERMAID_CHECK_MSG(h != 0, "host 0 (service host) is modeled as reliable");
  // Order matters: the referee must forget the copies before the wipe
  // re-seeds nothing, and the network must drop in-flight packets before
  // the endpoint reincarnates (so no old-life delivery races the reset).
  referee_.OnHostCrash(h);
  network_->CrashHost(h);
  hosts_.at(h)->CrashWipe();
  sync_server_->BreakHost(h);
  amnesic_.at(h) = true;
}

void System::RestartHostRecover(net::HostId h) {
  network_->RestartHost(h);
  Host& host = *hosts_.at(h);
  // From here on an Alloc calls h again; the replay below covers every
  // allocation made while it was down.
  amnesic_.at(h) = false;
  // Replay the durable allocation metadata into the restarted manager so
  // grants carry correct type/extent information again.
  allocator_->ForEachTypedPage(
      [&](PageNum p, arch::TypeId type, std::uint32_t alloc_bytes) {
        if (placement_.BaseManagerOf(p) == h) {
          host.ApplyTypeSet(p, type, alloc_bytes);
        }
      });
  host.RunManagerRecovery();
}

void System::CrashAndRestartHost(net::HostId h, SimDuration down_for) {
  CrashHostAmnesia(h);
  // Non-daemon: the engine must not declare the run finished while the
  // restart (and the recovery rebuild) is still pending.
  rt_.Spawn("dsm-recovery-" + std::to_string(h), [this, h, down_for] {
    rt_.Delay(down_for);
    RestartHostRecover(h);
  });
}

System::QuiescenceReport System::CheckQuiescent() {
  QuiescenceReport r;
  for (auto& h : hosts_) h->CountManagerLoad(&r.busy_entries, &r.pending_transfers);
  return r;
}

std::string System::ReportStats() {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-6s %-10s %8s %8s %9s %10s %9s %6s\n",
                "host", "arch", "rd-flt", "wr-flt", "pages-in", "KB-in",
                "served", "conv");
  out += line;
  for (auto& h : hosts_) {
    auto& s = h->stats();
    std::snprintf(
        line, sizeof(line), "%-6u %-10s %8lld %8lld %9lld %10lld %9lld %6lld\n",
        h->id(), h->profile().name.c_str(),
        static_cast<long long>(s.Count("dsm.read_faults")),
        static_cast<long long>(s.Count("dsm.write_faults")),
        static_cast<long long>(s.Count("dsm.pages_in")),
        static_cast<long long>(s.Count("dsm.bytes_in") / 1024),
        static_cast<long long>(s.Count("dsm.pages_served")),
        static_cast<long long>(s.Count("dsm.conversions")));
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "network: %lld packets, %lld KB, %lld dropped\n",
                static_cast<long long>(
                    network_->stats().Count("net.packets_sent")),
                static_cast<long long>(
                    network_->stats().Count("net.bytes_sent") / 1024),
                static_cast<long long>(
                    network_->stats().Count("net.packets_dropped")));
  out += line;
  std::int64_t retransmits = 0, call_timeouts = 0, backoff_ms = 0;
  std::int64_t revoked = 0;
  for (auto& h : hosts_) {
    auto& es = h->endpoint().stats();
    retransmits += es.Count("reqrep.retransmits");
    call_timeouts += es.Count("reqrep.call_timeouts");
    backoff_ms += es.Count("reqrep.backoff_total_ms");
    revoked += h->stats().Count("dsm.grants_revoked");
  }
  std::snprintf(line, sizeof(line),
                "reqrep: %lld retransmits, %lld call timeouts, "
                "%lld ms backoff, %lld grants revoked\n",
                static_cast<long long>(retransmits),
                static_cast<long long>(call_timeouts),
                static_cast<long long>(backoff_ms),
                static_cast<long long>(revoked));
  out += line;
  std::int64_t cc_hits = 0, cc_misses = 0, cc_evictions = 0;
  for (auto& h : hosts_) {
    auto& s = h->stats();
    cc_hits += s.Count("dsm.convert_cache_hits");
    cc_misses += s.Count("dsm.convert_cache_misses");
    cc_evictions += s.Count("dsm.convert_cache_evictions");
  }
  std::snprintf(line, sizeof(line),
                "convert-cache: %lld hits, %lld misses, %lld evictions\n",
                static_cast<long long>(cc_hits),
                static_cast<long long>(cc_misses),
                static_cast<long long>(cc_evictions));
  out += line;
  std::int64_t frag_delivered = 0, frag_expired = 0;
  for (auto& h : hosts_) {
    auto& fs = h->endpoint().frag_stats();
    frag_delivered += fs.Count("frag.messages_delivered");
    frag_expired += fs.Count("net.reassembly_expired");
  }
  std::snprintf(line, sizeof(line),
                "frag: %lld messages delivered, %lld partials expired\n",
                static_cast<long long>(frag_delivered),
                static_cast<long long>(frag_expired));
  out += line;
  std::int64_t crashes = 0, fenced = 0, owner_lost = 0, pages_lost = 0;
  std::int64_t zombie_calls = 0, broken_locks = 0;
  for (auto& h : hosts_) {
    auto& s = h->stats();
    crashes += s.Count("dsm.crashes");
    fenced += s.Count("dsm.fenced_transfers");
    owner_lost += s.Count("dsm.owner_lost_reports");
    pages_lost += s.Count("dsm.recovery_pages_lost");
    zombie_calls += h->endpoint().stats().Count("reqrep.fenced_zombie_calls");
  }
  broken_locks += sync_server_->stats().Count("sync.broken_locks");
  if (crashes != 0) {
    std::snprintf(line, sizeof(line),
                  "recovery: %lld crashes, %lld owner-lost reports, "
                  "%lld pages lost, %lld fenced transfers, "
                  "%lld zombie calls, %lld broken locks\n",
                  static_cast<long long>(crashes),
                  static_cast<long long>(owner_lost),
                  static_cast<long long>(pages_lost),
                  static_cast<long long>(fenced),
                  static_cast<long long>(zombie_calls),
                  static_cast<long long>(broken_locks));
    out += line;
  }
  // Per-message-class wire traffic (request/notify/reply payload bytes,
  // counted at the sending endpoint). Classes with no traffic are omitted.
  for (std::uint8_t op = kOpAlloc; op <= kOpMax; ++op) {
    const std::string cls = OpName(op);
    if (cls == "other") continue;  // unassigned opcode
    std::int64_t msgs = 0, bytes = 0;
    for (auto& h : hosts_) {
      auto& es = h->endpoint().stats();
      msgs += es.Count("reqrep.tx_msgs." + cls);
      bytes += es.Count("reqrep.tx_bytes." + cls);
    }
    if (msgs == 0) continue;
    std::snprintf(line, sizeof(line), "wire %-16s %8lld msgs %12lld bytes\n",
                  cls.c_str(), static_cast<long long>(msgs),
                  static_cast<long long>(bytes));
    out += line;
  }
  // Latency histograms, merged across hosts (per-host endpoint + DSM
  // registries). Quantiles come from the log-scaled buckets.
  static constexpr const char* kHistNames[] = {
      "dsm.fault_service_ms", "reqrep.rtt_ms", "dsm.convert_time_ms",
      "dsm.invalidate_fanout", "dsm.fault_hops", "dsm.vm_fault_hops",
      "dsm.vm_fault_rtts", "dsm.recovery_ms"};
  for (const char* name : kHistNames) {
    base::Histogram merged;
    for (auto& h : hosts_) {
      merged.Merge(h->stats().HistCopy(name));
      merged.Merge(h->endpoint().stats().HistCopy(name));
    }
    if (merged.count() == 0) continue;
    std::snprintf(line, sizeof(line),
                  "hist %-22s n=%lld mean=%.2f p50=%.2f p90=%.2f "
                  "p99=%.2f max=%.2f\n",
                  name, static_cast<long long>(merged.count()), merged.mean(),
                  merged.Percentile(50), merged.Percentile(90),
                  merged.Percentile(99), merged.max());
    out += line;
  }
  if (tracer_->enabled()) {
    std::snprintf(line, sizeof(line),
                  "trace: %lld events recorded, %lld evicted (ring %zu)\n",
                  static_cast<long long>(tracer_->total_recorded()),
                  static_cast<long long>(tracer_->dropped()),
                  tracer_->capacity());
    out += line;
  }
  // Engine internals (switches, fast resumes, processes, channels).
  // Deliberately last and never part of GatherStats, which holds only what
  // the simulated stack itself counted.
  out += rt_.SchedulerReport();
  return out;
}

}  // namespace mermaid::dsm
