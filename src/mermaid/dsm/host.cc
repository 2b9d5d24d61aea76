// dsm::Host: construction, protocol handler registration, the confirm-loss
// janitor, the application CPU model and accessors. Each protocol role has
// its own file: fault.cc (the fault path), manager.cc (the manager and
// owner roles), rc.cc (release consistency), data_path.cc (conversion,
// wire codecs and bounded FIFOs) and recovery.cc (crash-stop recovery).
#include "mermaid/dsm/host.h"

#include <algorithm>
#include <string>
#include <utility>

#include "mermaid/base/wire.h"

namespace mermaid::dsm {

namespace {

// Stat keys this file bumps, resolved once (see base::StatKey).
const base::StatKey kConfirmProbes("dsm.confirm_probes");
const base::StatKey kGrantLeaseExpired("dsm.grant_lease_expired");
const base::StatKey kMalformed("dsm.malformed");

}  // namespace

Host::Host(sim::Runtime& rt, net::Network& net, const SystemConfig& cfg,
           const arch::TypeRegistry& registry, net::HostId self,
           const arch::ArchProfile* profile, const Placement& placement,
           std::uint32_t page_bytes, CoherenceReferee* referee)
    : rt_(rt),
      net_(net),
      cfg_(cfg),
      registry_(registry),
      self_(self),
      profile_(profile),
      num_hosts_(placement.num_hosts()),
      page_bytes_(page_bytes),
      referee_(referee),
      endpoint_(rt, net, self, profile,
                [&cfg] {
                  net::Endpoint::Config c;
                  c.dedup_window = 8192;
                  c.carry_incarnation = cfg.crash_recovery;
                  return c;
                }()),
      mem_(cfg.region_bytes),
      ptable_(placement.num_pages()),
      dir_(self, placement),
      cpu_busy_until_(profile->cpu_count, 0) {
  // The base manager starts out owning every page it manages, holding the
  // zero-filled read copy (the manager entries themselves are seeded by the
  // Directory constructor).
  for (PageNum p : placement.PagesOf(self_)) {
    ptable_.Local(p).access = Access::kRead;
    ptable_.Local(p).owned = true;
    if (referee_ != nullptr) referee_->OnInstall(self_, p, 0, Access::kRead);
  }
}

void Host::Start() {
  // The role byte picks the leg of a transfer request; any other value is
  // malformed and dropped.
  const auto transfer = [this](net::RequestContext ctx, bool is_write) {
    const std::uint8_t role = ctx.body().empty() ? kToManager : ctx.body()[0];
    if (role == kToOwner) {
      HandleOwnerFetch(std::move(ctx), is_write);
    } else if (role == kToManager) {
      HandleTransferReq(std::move(ctx), is_write);
    } else {
      stats_.Inc(kMalformed);
    }
  };
  endpoint_.SetHandler(kOpReadReq, [transfer](net::RequestContext ctx) {
    transfer(std::move(ctx), /*is_write=*/false);
  });
  endpoint_.SetHandler(kOpWriteReq, [transfer](net::RequestContext ctx) {
    transfer(std::move(ctx), /*is_write=*/true);
  });
  const std::pair<std::uint8_t, void (Host::*)(net::RequestContext)>
      handlers[] = {
          {kOpTypeSet, &Host::HandleTypeSet},
          {kOpInvalidate, &Host::HandleInvalidate},
          {kOpConfirm, &Host::HandleConfirm},
          {kOpConfirmProbe, &Host::HandleConfirmProbe},
          {kOpGrantReject, &Host::HandleGrantReject},
          {kOpGrantExtend, &Host::HandleGrantExtend},
          {kOpRecoveryQuery, &Host::HandleRecoveryQuery},
          {kOpPageLost, &Host::HandlePageLost},
          {kOpRecoveryDemote, &Host::HandleRecoveryDemote},
          {kOpDiffFlush, &Host::HandleDiffFlush},
      };
  for (const auto& [op, handler] : handlers) {
    endpoint_.SetHandler(op, [this, handler](net::RequestContext ctx) {
      (this->*handler)(std::move(ctx));
    });
  }
  endpoint_.Start();

  // Confirm-loss janitor: probes requesters of long-busy transfers and
  // lease-revokes grants whose requester has been unreachable past the
  // grant lease. Blocks on a never-written channel so engine shutdown
  // unwinds it.
  rt_.Spawn(
      "dsm-janitor-" + std::to_string(self_),
      [this] {
        sim::Chan<bool> never(rt_);
        for (;;) {
          bool timed_out = false;
          auto m = never.RecvUntil(rt_.Now() + cfg_.janitor_period,
                                   &timed_out);
          if (!m.has_value() && !timed_out) return;  // shutdown
          struct Probe {
            PageNum page;
            std::uint64_t op_id;
            net::HostId requester;
          };
          std::vector<Probe> probes;
          std::vector<std::pair<PageNum, std::uint64_t>> expired;
          {
            std::lock_guard<std::mutex> lk(state_mu_);
            if (recovering_) continue;  // entries are being rebuilt
            const SimTime now = rt_.Now();
            // Ascending page order, like a scan of every managed entry.
            // Local requesters recover in their own fault path (they
            // revoke their grant directly on a failed owner fetch); the
            // janitor only chases remote ones.
            for (auto it = busy_watch_.begin(); it != busy_watch_.end();) {
              const ManagerEntry& m2 = dir_.Manager(*it);
              if (!m2.busy || m2.busy_requester == self_) {
                it = busy_watch_.erase(it);
                continue;
              }
              if (now - m2.busy_since > cfg_.grant_lease) {
                expired.push_back({*it, m2.busy_op_id});
              } else if (now - m2.busy_since > cfg_.confirm_probe_after) {
                probes.push_back({*it, m2.busy_op_id, m2.busy_requester});
              }
              ++it;
            }
          }
          for (const auto& [page, op_id] : expired) {
            stats_.Inc(kGrantLeaseExpired);
            ManagerRevoke(page, op_id);
          }
          for (const Probe& pr : probes) {
            base::WireWriter w;
            w.U32(pr.page);
            w.U64(pr.op_id);
            stats_.Inc(kConfirmProbes);
            endpoint_.Notify(pr.requester, kOpConfirmProbe,
                             std::move(w).Take());
          }
        }
      },
      /*daemon=*/true);
}

void Host::Compute(double units, bool floating_point) {
  const SimDuration per = floating_point ? profile_->float_work_cost
                                         : profile_->int_work_cost;
  const auto work = static_cast<SimDuration>(units * static_cast<double>(per));
  // Schedule the work onto this host's CPUs: with more runnable threads than
  // processors, compute time-shares (the Firefly has ~5 usable CPUs; the Sun
  // one). Pick the earliest-free CPU and queue behind it.
  SimTime start;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    auto best = std::min_element(cpu_busy_until_.begin(),
                                 cpu_busy_until_.end());
    start = std::max(rt_.Now(), *best);
    *best = start + work;
  }
  // On the real-time runtime the clock advances between the slot
  // computation and this call; the remaining delay can have elapsed already.
  rt_.Delay(std::max<SimDuration>(0, start + work - rt_.Now()));
}

LocalPageEntry Host::LocalEntrySnapshot(PageNum p) {
  std::lock_guard<std::mutex> lk(state_mu_);
  return std::as_const(ptable_).Local(p);
}

std::size_t Host::PageChunksInUse() {
  std::lock_guard<std::mutex> lk(state_mu_);
  return ptable_.ChunksInUse();
}

std::uint64_t Host::ManagerGrantsTotal() {
  std::lock_guard<std::mutex> lk(state_mu_);
  return mgr_grants_total_;
}

void Host::CountManagerLoad(std::uint64_t* busy, std::uint64_t* pending) {
  std::lock_guard<std::mutex> lk(state_mu_);
  dir_.ForEachManaged([&](PageNum, ManagerEntry& m) {
    if (m.busy) ++*busy;
    *pending += m.pending.size();
  });
}

net::Endpoint::CallOpts Host::DsmCallOpts() const {
  net::Endpoint::CallOpts opts;
  opts.timeout = cfg_.call_timeout;
  opts.max_attempts = cfg_.call_max_attempts;
  return opts;
}

}  // namespace mermaid::dsm
