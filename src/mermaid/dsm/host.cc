#include "mermaid/dsm/host.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "mermaid/base/check.h"
#include "mermaid/base/wire.h"

namespace mermaid::dsm {

namespace {

// Converts `extent` bytes of element slots in place. Slots are the
// power-of-two stride the allocator lays elements out on; for basic types
// stride == size and non-power-of-two types simply convert at the slot
// stride — one bulk call either way.
void ConvertSlots(const arch::TypeRegistry& reg, arch::TypeId type,
                  std::span<std::uint8_t> data, std::uint32_t extent,
                  const arch::ConvertContext& ctx) {
  const std::size_t stride = std::bit_ceil(reg.SizeOf(type));
  reg.ConvertStrided(type, data.first(extent), extent / stride, stride, ctx);
}

// Stat keys of the fault, manager, owner-serve and conversion paths,
// resolved once (see base::StatKey). Recovery and release-consistency code
// bumps its rarer counters by name.
const base::StatKey kBytesIn("dsm.bytes_in");
const base::StatKey kBytesOut("dsm.bytes_out");
const base::StatKey kConfirmProbes("dsm.confirm_probes");
const base::StatKey kConversions("dsm.conversions");
const base::StatKey kConvertCacheEvictions("dsm.convert_cache_evictions");
const base::StatKey kConvertCacheHits("dsm.convert_cache_hits");
const base::StatKey kConvertCacheMisses("dsm.convert_cache_misses");
const base::StatKey kConvertLossy("dsm.convert_lossy");
const base::StatKey kConvertMs("dsm.convert_ms");
const base::StatKey kConvertTimeMs("dsm.convert_time_ms");
const base::StatKey kConvertedElements("dsm.converted_elements");
const base::StatKey kDeadEpochGrants("dsm.dead_epoch_grants");
const base::StatKey kFaultDelayMs("dsm.fault_delay_ms");
const base::StatKey kFaultHandlingRMs("dsm.fault_handling_r_ms");
const base::StatKey kFaultHandlingWMs("dsm.fault_handling_w_ms");
const base::StatKey kFaultHops("dsm.fault_hops");
const base::StatKey kFaultRetries("dsm.fault_retries");
const base::StatKey kFaultServiceMs("dsm.fault_service_ms");
const base::StatKey kFencedReplies("dsm.fenced_replies");
const base::StatKey kFencedTransfers("dsm.fenced_transfers");
const base::StatKey kGrantExtends("dsm.grant_extends");
const base::StatKey kGrantLeaseExpired("dsm.grant_lease_expired");
const base::StatKey kGrantRejects("dsm.grant_rejects");
const base::StatKey kGrantsDisowned("dsm.grants_disowned");
const base::StatKey kGrantsRevoked("dsm.grants_revoked");
const base::StatKey kInvalidateFanout("dsm.invalidate_fanout");
const base::StatKey kInvalidationRetries("dsm.invalidation_retries");
const base::StatKey kInvalidationsReceived("dsm.invalidations_received");
const base::StatKey kInvalidationsSent("dsm.invalidations_sent");
const base::StatKey kMalformed("dsm.malformed");
const base::StatKey kManagerCallTimeouts("dsm.manager_call_timeouts");
const base::StatKey kOwnerFetchTimeouts("dsm.owner_fetch_timeouts");
const base::StatKey kOwnerLostDetected("dsm.owner_lost_detected");
const base::StatKey kOwnerLostObserved("dsm.owner_lost_observed");
const base::StatKey kPagesIn("dsm.pages_in");
const base::StatKey kPagesServed("dsm.pages_served");
const base::StatKey kReadFaults("dsm.read_faults");
const base::StatKey kRecoveryDroppedReqs("dsm.recovery_dropped_reqs");
const base::StatKey kSameTypeSource("dsm.same_type_source");
const base::StatKey kStaleConfirms("dsm.stale_confirms");
const base::StatKey kStaleDatalessGrants("dsm.stale_dataless_grants");
const base::StatKey kUpgrades("dsm.upgrades");
const base::StatKey kVmFaultHops("dsm.vm_fault_hops");
const base::StatKey kVmFaultRtts("dsm.vm_fault_rtts");
const base::StatKey kVmFaults("dsm.vm_faults");
const base::StatKey kWriteFaults("dsm.write_faults");

// Capped exponential backoff between whole fault-path retry rounds (the
// per-Call retransmits already jitter, so rounds need no extra randomness).
SimDuration FaultBackoff(const SystemConfig& cfg, int round) {
  SimDuration d = std::max<SimDuration>(1, cfg.fault_retry_backoff);
  const SimDuration cap = Seconds(2);
  for (int i = 1; i < round && d < cap; ++i) d *= 2;
  return std::min(d, cap);
}

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
  endpoint_.SetHandler(kOpInvalidate, [this](net::RequestContext ctx) {
    HandleInvalidate(std::move(ctx));
  });
  endpoint_.SetHandler(kOpConfirm, [this](net::RequestContext ctx) {
    HandleConfirm(std::move(ctx));
  });
  endpoint_.SetHandler(kOpConfirmProbe, [this](net::RequestContext ctx) {
    HandleConfirmProbe(std::move(ctx));
  });
  endpoint_.SetHandler(kOpGrantReject, [this](net::RequestContext ctx) {
    HandleGrantReject(std::move(ctx));
  });
  endpoint_.SetHandler(kOpGrantExtend, [this](net::RequestContext ctx) {
    HandleGrantExtend(std::move(ctx));
  });
  endpoint_.SetHandler(kOpRecoveryQuery, [this](net::RequestContext ctx) {
    HandleRecoveryQuery(std::move(ctx));
  });
  endpoint_.SetHandler(kOpPageLost, [this](net::RequestContext ctx) {
    HandlePageLost(std::move(ctx));
  });
  endpoint_.SetHandler(kOpRecoveryDemote, [this](net::RequestContext ctx) {
    HandleRecoveryDemote(std::move(ctx));
  });
  endpoint_.SetHandler(kOpDiffFlush, [this](net::RequestContext ctx) {
    HandleDiffFlush(std::move(ctx));
  });
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
  return ptable_.Local(p);
}

void Host::ApplyTypeSet(PageNum p, arch::TypeId type,
                        std::uint32_t alloc_bytes) {
  if (p >= ptable_.num_pages() || !dir_.BaseManagedHere(p)) return;
  std::lock_guard<std::mutex> lk(state_mu_);
  ManagerEntry& m = dir_.Manager(p);
  m.type = type;
  m.alloc_bytes = std::max(m.alloc_bytes, alloc_bytes);
  LocalPageEntry& e = ptable_.Local(p);
  if (e.access != Access::kNone) {
    e.type = type;
    e.alloc_bytes = m.alloc_bytes;
  }
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

// --------------------------------------------------------------------------
// Fault path
// --------------------------------------------------------------------------

void Host::EnsureAccess(PageNum p, Access needed) {
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      if (ptable_.Local(p).access >= needed) return;
    }
    FaultGroup(p, needed);
  }
}

void Host::FaultGroup(PageNum p, Access needed) {
  const SimTime start = rt_.Now();
  stats_.Inc(kVmFaults);
  // The user-level fault handler invocation + page table processing
  // (Table 1; the request send cost is modeled by the network).
  rt_.Delay(needed == Access::kWrite ? profile_->fault_cost_write
                                     : profile_->fault_cost_read);
  stats_.Sample(needed == Access::kWrite ? kFaultHandlingWMs
                                         : kFaultHandlingRMs,
                ToMillis(rt_.Now() - start));

  // A host whose VM page spans several DSM pages must fill the whole VM
  // page ("multiple DSM pages will be moved to fill that (large) page").
  PageNum first = p;
  PageNum count = 1;
  if (profile_->vm_page_size > page_bytes_) {
    const PageNum per_vm = profile_->vm_page_size / page_bytes_;
    first = p - (p % per_vm);
    count = per_vm;
  }
  const PageNum total = ptable_.num_pages();
  const PageNum last = std::min<PageNum>(first + count, total);
  FaultTelemetry telem;
  if (cfg_.release_consistency && needed == Access::kWrite) {
    // Release consistency (§11): a write fault never invalidates the
    // copyset. Fault the page in for reading, then twin it and write
    // locally; the deferred writes flush to the home at the next release.
    for (PageNum q = first; q < last; ++q) {
      for (;;) {
        FaultOne(q, Access::kRead, telem);
        const RcTwinResult tr = RcTwinPage(q);
        if (tr == RcTwinResult::kOk) break;
        if (tr == RcTwinResult::kCapacity) RcFlushTwins();
        // kNoCopy (the read copy vanished before the twin) or capacity
        // flushed: refault and try again.
      }
    }
  } else {
    for (PageNum q = first; q < last; ++q) {
      FaultOne(q, needed, telem);
    }
  }
  stats_.Sample(kFaultDelayMs, ToMillis(rt_.Now() - start));
  stats_.Hist(kFaultServiceMs, ToMillis(rt_.Now() - start));
  stats_.Hist(kVmFaultHops, static_cast<double>(telem.hops));
  stats_.Hist(kVmFaultRtts, static_cast<double>(telem.rtts));
}

void Host::FaultOne(PageNum p, Access needed, FaultTelemetry& telem) {
  int retries = 0;
  for (;;) {
    bool start_fetch = false;
    sim::Chan<bool> waiter;
    std::uint32_t life;
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      if (ptable_.Local(p).access >= needed) return;
      // Captured fresh every round: a crash mid-round fences that round's
      // install, and the next iteration starts a clean post-crash fault.
      life = life_;
      if (fault_inflight_[p]) {
        waiter = sim::Chan<bool>(rt_);
        fault_waiters_[p].push_back(waiter);
      } else {
        fault_inflight_[p] = true;
        start_fetch = true;
      }
    }
    if (!start_fetch) {
      // Another thread is fetching this page; re-check when it finishes.
      if (!waiter.Recv().has_value()) return;  // shutdown
      continue;
    }

    const bool is_write = needed == Access::kWrite;
    stats_.Inc(is_write ? kWriteFaults : kReadFaults);
    const std::uint64_t fault_ev =
        TraceEv(trace::EventKind::kFaultStart, p, 0, 0, is_write ? 1 : 0);
    TraceBind(trace::FaultKey(self_, p), fault_ev);
    const FaultOutcome outcome =
        dir_.BaseManagedHere(p)
            ? FaultViaLocalManager(p, is_write, telem, life)
            : FaultViaRemoteManager(p, is_write, telem, life);

    std::vector<sim::Chan<bool>> waiters;
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      fault_inflight_[p] = false;
      waiters.swap(fault_waiters_[p]);
    }
    for (auto& w : waiters) w.Send(true);

    switch (outcome) {
      case FaultOutcome::kShutdown:
        return;
      case FaultOutcome::kRetry:
        ++retries;
        // No silent failure: a page that stays unreachable past the retry
        // budget is a deployment fault, not something to limp past.
        if (retries > cfg_.fault_retry_limit) {
          std::fprintf(stderr,
                       "host %u: fault on page %u (%s, managed %s) "
                       "exhausted %d retry rounds\n",
                       static_cast<unsigned>(self_), static_cast<unsigned>(p),
                       is_write ? "write" : "read",
                       dir_.BaseManagedHere(p) ? "here" : "remotely", retries);
          MERMAID_CHECK_MSG(
              false, "DSM fault path exhausted retries; page unreachable");
        }
        stats_.Inc(kFaultRetries);
        rt_.Delay(FaultBackoff(cfg_, retries));
        break;
      case FaultOutcome::kDone:
        TraceEv(trace::EventKind::kFaultEnd, p, 0, fault_ev,
                is_write ? 1 : 0);
        retries = 0;  // loop re-checks access (it may have been invalidated)
        break;
    }
  }
}

Host::FaultOutcome Host::FaultViaLocalManager(PageNum p, bool is_write,
                                              FaultTelemetry& telem,
                                              std::uint32_t life) {
  ManagerGrant grant;
  bool granted_inline = false;
  sim::Chan<ManagerGrant> grant_chan;
  for (;;) {
    // Our own crash/rebuild window: wait it out instead of consuming the
    // retry budget — the outage plus the claim-gathering rebuild is not
    // bounded by fault_retry_limit rounds of backoff.
    bool wait_recovery;
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      wait_recovery = recovering_;
    }
    if (!wait_recovery) break;
    rt_.Delay(Milliseconds(20));
  }
  bool ghost_owner = false;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (recovering_) return FaultOutcome::kRetry;  // crashed again just now
    ManagerEntry& m = dir_.Manager(p);
    const bool has_copy = ptable_.Local(p).access != Access::kNone;
    if (cfg_.crash_recovery && !m.busy && m.owner == self_ && !has_copy &&
        !ptable_.Local(p).retained) {
      // The entry names this host as owner, but the copy is gone (a crash
      // of a copyset member left us promoted over a page we never held, or
      // our own amnesia outlived the record). Granting would produce a
      // dataless upgrade with nothing to upgrade; heal the entry first.
      ghost_owner = true;
    } else if (!m.busy) {
      grant = BuildGrantLocked(p, self_, is_write, has_copy);
      granted_inline = true;
    } else {
      PendingTransfer t;
      t.is_write = is_write;
      t.has_copy = has_copy;
      t.requester = self_;
      grant_chan = sim::Chan<ManagerGrant>(rt_);
      t.local_grant = grant_chan;
      m.pending.push_back(std::move(t));
    }
  }
  if (ghost_owner) {
    stats_.Inc(kOwnerLostDetected);
    HandlePageLostLocal(p, 0, self_, /*drain=*/false);
    return FaultOutcome::kRetry;
  }
  if (!granted_inline) {
    auto g = grant_chan.Recv();
    if (!g.has_value()) return FaultOutcome::kShutdown;
    grant = *g;
    // op_id 0 is the crash sentinel: the queued transfer died with the
    // wiped manager state. Retry from scratch (with a fresh life).
    if (grant.op_id == 0) return FaultOutcome::kRetry;
  }

  FetchReply reply;
  if (grant.owner == self_) {
    // We already own the page (write upgrade): no data movement.
    std::lock_guard<std::mutex> lk(state_mu_);
    const LocalPageEntry& e = ptable_.Local(p);
    reply.op_id = grant.op_id;
    reply.data_version = e.version;
    reply.new_version = grant.new_version;
    reply.owner = self_;
    reply.type = e.type;
    reply.alloc_bytes = e.alloc_bytes;
    reply.to_invalidate = grant.to_invalidate;
    reply.has_data = false;
    reply.data_rep = arch::RepClassByte(*profile_);
  } else {
    // Fetch from the owner directly (the R/M -> O pattern of Table 4).
    base::WireWriter w;
    w.U8(kToOwner);
    w.U32(p);
    w.U64(grant.op_id);
    w.U64(grant.new_version);
    w.U8(grant.requester_has_copy ? 0 : 1);  // data_needed
    w.U16(grant.type);
    w.U32(grant.alloc_bytes);
    w.U16(static_cast<std::uint16_t>(grant.to_invalidate.size()));
    for (net::HostId h : grant.to_invalidate) w.U16(h);
    auto resp = endpoint_.CallWithStatus(grant.owner,
                                         is_write ? kOpWriteReq : kOpReadReq,
                                         std::move(w).Take(),
                                         net::MsgKind::kControl,
                                         DsmCallOpts());
    if (resp.status == net::CallStatus::kShutdown) {
      return FaultOutcome::kShutdown;
    }
    if (resp.status == net::CallStatus::kTimedOut) {
      stats_.Inc(kOwnerFetchTimeouts);
      if (cfg_.crash_recovery && net_.HostDown(grant.owner, rt_.Now())) {
        // The owner did not merely time out, it died — and its copy with it
        // (crash-with-amnesia). Heal the entry now: promote a surviving
        // copy or apply the lost-page policy. This also clears the busy
        // grant, so no separate revoke.
        stats_.Inc(kOwnerLostDetected);
        HandlePageLostLocal(p, grant.op_id, grant.owner);
        return FaultOutcome::kRetry;
      }
      // The owner is unreachable: free our own grant so the entry does not
      // stay busy (other requesters may reach the owner), then retry.
      ManagerRevoke(p, grant.op_id);
      return FaultOutcome::kRetry;
    }
    reply = DecodeFetchReply(resp.body);
    telem.rtts += 1;
    if (reply.owner_lost) {
      // The owner of record restarted with amnesia; repair our own manager
      // entry (promote a surviving copy or apply the lost-page policy) and
      // refault.
      HandlePageLostLocal(p, grant.op_id, grant.owner);
      return FaultOutcome::kRetry;
    }
  }

  // Hop count: an upgrade/self-serve is message-free; a remote-owner fetch
  // is request + reply (the R -> O pattern; the manager leg was local).
  const std::int64_t hops = grant.owner == self_ ? 0 : 2;
  stats_.Hist(kFaultHops, static_cast<double>(hops));
  telem.hops += hops;

  switch (CompleteTransfer(p, is_write, reply, life)) {
    case TransferResult::kShutdown:
      return FaultOutcome::kShutdown;
    case TransferResult::kFenced:
      // We crashed mid-transfer: the wiped manager state no longer knows
      // this grant, so there is nothing to commit or revoke.
      return FaultOutcome::kRetry;
    case TransferResult::kRejected:
      // Dataless grant, no copy to back it: free our own grant and refault
      // (the retry reports has_copy honestly, so data will be served).
      ManagerRevoke(p, grant.op_id);
      return FaultOutcome::kRetry;
    case TransferResult::kOk:
      break;
  }
  ManagerCommit(p, grant.op_id, self_, is_write);
  return FaultOutcome::kDone;
}

Host::FaultOutcome Host::FaultViaRemoteManager(PageNum p, bool is_write,
                                               FaultTelemetry& telem,
                                               std::uint32_t life) {
  const net::HostId mgr = dir_.BaseManagerOf(p);
  base::WireWriter w;
  w.U8(kToManager);
  w.U32(p);
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    w.U8(ptable_.Local(p).access != Access::kNone ? 1 : 0);  // has_copy
  }
  auto resp = endpoint_.CallWithStatus(mgr, is_write ? kOpWriteReq : kOpReadReq,
                                       std::move(w).Take(),
                                       net::MsgKind::kControl, DsmCallOpts());
  if (resp.status == net::CallStatus::kShutdown) return FaultOutcome::kShutdown;
  if (resp.status == net::CallStatus::kTimedOut) {
    // The manager (or the owner it forwarded to) is unreachable. Our reply
    // channel is closed now, so a replayed grant can never be consumed; if
    // one was issued, the manager's probe/lease machinery reclaims it.
    stats_.Inc(kManagerCallTimeouts);
    return FaultOutcome::kRetry;
  }
  FetchReply reply = DecodeFetchReply(resp.body);
  telem.rtts += 1;
  if (reply.owner_lost) {
    // The manager forwarded us to an owner that has since restarted with
    // amnesia. Report the loss so the manager repairs its entry (promotes a
    // surviving copy or applies the lost-page policy), then refault.
    stats_.Inc(kOwnerLostObserved);
    base::WireWriter lw;
    lw.U32(p);
    lw.U64(reply.op_id);
    lw.U16(reply.owner);
    endpoint_.CallWithStatus(mgr, kOpPageLost, std::move(lw).Take(),
                             net::MsgKind::kControl, DsmCallOpts());
    return FaultOutcome::kRetry;
  }
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (fenced_.count({p, reply.op_id}) > 0) {
      // We disowned this grant when a confirm-probe caught us without it;
      // the manager revoked it, so this late reply must not be installed.
      stats_.Inc(kFencedReplies);
      return FaultOutcome::kRetry;
    }
    if (cfg_.crash_recovery && life != life_) {
      // We crashed while this reply was in flight. The wipe already cleared
      // inflight_ops_; registering now would plant a phantom op in the fresh
      // incarnation that answers confirm-probes "still working" forever and
      // gets adopted as busy by manager rebuilds. Leave the grant to the
      // manager's probe/lease reclaim.
      stats_.Inc(kFencedReplies);
      return FaultOutcome::kRetry;
    }
    if (cfg_.crash_recovery &&
        (reply.op_id >> 48) < endpoint_.PeerIncarnation(mgr)) {
      // The granting manager has reincarnated since issuing this grant: its
      // rebuilt map knows nothing of the op, so installing would create a
      // holder invisible to the reconstruction. Refault against the rebuilt
      // manager instead.
      stats_.Inc(kDeadEpochGrants);
      return FaultOutcome::kRetry;
    }
    inflight_ops_[{p, reply.op_id}] = InflightOp{is_write, reply.new_version};
  }
  // Hop count: served by the manager itself (or an upgrade) is request +
  // reply; a forward to the owner adds the third leg (R -> M -> O -> R).
  const std::int64_t hops =
      (reply.owner == mgr || reply.owner == self_) ? 2 : 3;
  stats_.Hist(kFaultHops, static_cast<double>(hops));
  telem.hops += hops;
  switch (CompleteTransfer(p, is_write, reply, life)) {
    case TransferResult::kShutdown: {
      std::lock_guard<std::mutex> lk(state_mu_);
      inflight_ops_.erase({p, reply.op_id});
      return FaultOutcome::kShutdown;
    }
    case TransferResult::kFenced:
      // We crashed mid-transfer (inflight_ops_ wiped with the rest) or a
      // recovery demote fenced this grant; confirming would make the manager
      // record a copy we do not hold.
      return FaultOutcome::kRetry;
    case TransferResult::kRejected: {
      // Dataless grant, no copy to back it: hand the grant back so the
      // manager unbusies now instead of at lease expiry, then refault (the
      // retry reports has_copy honestly, so data will be served). A lost
      // notify costs only the lease wait; the janitor probe reclaims it.
      base::WireWriter rw;
      rw.U32(p);
      rw.U64(reply.op_id);
      rw.U8(1);  // no_copy: the disclaim is a live "nothing here" statement
      endpoint_.Notify(mgr, kOpGrantReject, std::move(rw).Take());
      return FaultOutcome::kRetry;
    }
    case TransferResult::kOk:
      break;
  }
  RecordCompleted(p, reply.op_id, is_write);

  base::WireWriter cw;
  cw.U32(p);
  cw.U64(reply.op_id);
  cw.U16(self_);
  cw.U8(is_write ? 1 : 0);
  endpoint_.Notify(mgr, kOpConfirm, std::move(cw).Take());
  return FaultOutcome::kDone;
}

Host::TransferResult Host::CompleteTransfer(PageNum p, bool is_write,
                                            const FetchReply& reply,
                                            std::uint32_t life) {
  // Every locked section re-checks `life`: the blocking points in between
  // (conversion, install cost, invalidation rounds) are exactly where a
  // crash can interpose, and a zombie install after the wipe would put
  // state on this host that the fresh incarnation cannot account for.
  const auto fenced = [&] {
    stats_.Inc(kFencedTransfers);
    return TransferResult::kFenced;
  };
  const GlobalAddr page_base = static_cast<GlobalAddr>(p) * page_bytes_;
  if (reply.has_data) {
    const std::size_t data_size = reply.data.size();
    {
      // Copy #2 of the data path: wire buffer -> requester memory. Writing
      // into mem_ before the entry is installed is safe: access is still
      // kNone and fault coalescing keeps local threads out of this page.
      std::lock_guard<std::mutex> lk(state_mu_);
      if (life != life_ || fenced_.count({p, reply.op_id}) != 0) {
        return fenced();
      }
      MERMAID_CHECK(data_size <= page_bytes_);
      reply.data.CopyTo(
          std::span<std::uint8_t>(mem_.data() + page_base, data_size));
    }
    // Convert in place in mem_ (still uninstalled, so nothing can read it).
    // The codec runs here only when the payload arrived in a foreign
    // representation; when the owner pre-converted, just the calibrated
    // delay is charged — and a cache-hit image costs nothing at all.
    if (cfg_.convert_enabled &&
        !(reply.sender_converted && reply.from_cache)) {
      const bool foreign = reply.data_rep != arch::RepClassByte(*profile_);
      if (foreign || reply.sender_converted) {
        ConvertIncoming(
            p, std::span<std::uint8_t>(mem_.data() + page_base, data_size),
            reply.type, net_.ProfileOf(reply.owner), /*run_codec=*/foreign);
      }
    }
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      if (life != life_ || fenced_.count({p, reply.op_id}) != 0) {
        return fenced();
      }
      LocalPageEntry& e = ptable_.Local(p);
      e.access = Access::kRead;
      e.owned = false;
      e.version = reply.data_version;
      e.type = reply.type;
      e.alloc_bytes = reply.alloc_bytes;
      e.retained = false;
      if (referee_ != nullptr) {
        referee_->OnInstall(self_, p, reply.data_version, Access::kRead);
      }
    }
    stats_.Inc(kPagesIn);
    stats_.Inc(kBytesIn, static_cast<std::int64_t>(data_size));
  } else if (!is_write) {
    // A read grant without data means we hold a valid copy — possibly one we
    // relinquished in a transfer the manager has since revoked (the retained
    // bytes are still the current version; re-animate them).
    std::lock_guard<std::mutex> lk(state_mu_);
    if (life != life_ || fenced_.count({p, reply.op_id}) != 0) {
      return fenced();
    }
    LocalPageEntry& e = ptable_.Local(p);
    if (e.access == Access::kNone && e.retained) {
      e.access = Access::kRead;
      e.retained = false;
      if (referee_ != nullptr) {
        referee_->OnInstall(self_, p, e.version, Access::kRead);
      }
    }
    if (e.access < Access::kRead) {
      // The grant trusted a has_copy claim that a crash or a revoked write
      // made stale: there is nothing here to re-animate. Discard the grant
      // (the caller frees it at the manager) and refault with the truth.
      MERMAID_CHECK_MSG(cfg_.crash_recovery,
                        "read grant without data to a host without a copy");
      FenceOpLocked(p, reply.op_id);
      inflight_ops_.erase({p, reply.op_id});
      stats_.Inc(kStaleDatalessGrants);
      return TransferResult::kRejected;
    }
  } else {
    // A write grant without data is an ownership upgrade. The copy being
    // upgraded may be one we relinquished in a transfer the manager has
    // since revoked (we are still the owner of record); the retained bytes
    // are the current version, so re-animate them like the read case.
    std::lock_guard<std::mutex> lk(state_mu_);
    if (life != life_ || fenced_.count({p, reply.op_id}) != 0) {
      return fenced();
    }
    LocalPageEntry& e = ptable_.Local(p);
    if (e.access == Access::kNone && e.retained) {
      e.access = Access::kRead;
      e.retained = false;
      if (referee_ != nullptr) {
        referee_->OnInstall(self_, p, e.version, Access::kRead);
      }
    }
    if (e.access == Access::kNone) {
      // Same stale-claim discard as the read case: an upgrade-in-place with
      // no copy in place cannot be installed.
      MERMAID_CHECK_MSG(cfg_.crash_recovery,
                        "write upgrade granted to a host without a copy");
      FenceOpLocked(p, reply.op_id);
      inflight_ops_.erase({p, reply.op_id});
      stats_.Inc(kStaleDatalessGrants);
      return TransferResult::kRejected;
    }
    stats_.Inc(kUpgrades);
  }
  rt_.Delay(profile_->page_install_cost);
  const std::uint64_t install_ev =
      TraceEv(trace::EventKind::kInstall, p, reply.op_id,
              TraceParent(trace::OpKey(p, reply.op_id)), is_write ? 1 : 0,
              reply.has_data ? 1 : 0);
  TraceBind(trace::OpKey(p, reply.op_id), install_ev);

  if (is_write) {
    {
      // A crash during the install delay: the fresh incarnation must not
      // send this grant's invalidations.
      std::lock_guard<std::mutex> lk(state_mu_);
      if (life != life_) return fenced();
    }
    if (!InvalidateCopies(p, reply.to_invalidate, reply.op_id, install_ev)) {
      return TransferResult::kShutdown;
    }
    if (!FinalizeWrite(p, reply, life)) return fenced();
  }
  return TransferResult::kOk;
}

bool Host::FinalizeWrite(PageNum p, const FetchReply& reply,
                         std::uint32_t life) {
  std::lock_guard<std::mutex> lk(state_mu_);
  if (life != life_ || fenced_.count({p, reply.op_id}) != 0) {
    stats_.Inc(kFencedTransfers);
    return false;
  }
  LocalPageEntry& e = ptable_.Local(p);
  e.access = Access::kWrite;
  e.owned = true;
  e.version = reply.new_version;
  e.type = reply.type;
  e.alloc_bytes = std::max(e.alloc_bytes, reply.alloc_bytes);
  e.retained = false;
  // The version just bumped: any converted images of the old version can
  // never be served again.
  DropConvertCacheLocked(p);
  if (referee_ != nullptr) {
    referee_->OnWriteGrant(self_, p, reply.new_version);
  }
  return true;
}

bool Host::InvalidateCopies(PageNum p,
                            const std::vector<net::HostId>& hosts,
                            std::uint64_t op_id, std::uint64_t parent_ev) {
  std::vector<net::HostId> targets;
  for (net::HostId h : hosts) {
    if (h != self_) targets.push_back(h);
  }
  if (targets.empty()) return true;
  stats_.Hist(kInvalidateFanout, static_cast<double>(targets.size()));
  base::WireWriter w;
  w.U32(p);
  const auto body = std::move(w).Take();
  // Write access must not be granted until every copy is gone: re-multicast
  // to the targets that did not ack, round after round, and abort loudly if
  // a copy holder stays unreachable past the retry budget.
  for (int round = 0; !targets.empty(); ++round) {
    if (cfg_.crash_recovery) {
      // A down host's copies died with it (crash-with-amnesia): skip it
      // rather than burning the retry budget against silence.
      std::erase_if(targets,
                    [&](net::HostId h) { return net_.HostDown(h, rt_.Now()); });
      if (targets.empty()) break;
    }
    MERMAID_CHECK_MSG(round <= cfg_.fault_retry_limit,
                      "invalidation multicast exhausted retries");
    if (round > 0) {
      stats_.Inc(kInvalidationRetries);
      rt_.Delay(FaultBackoff(cfg_, round));
    }
    stats_.Inc(kInvalidationsSent, static_cast<std::int64_t>(targets.size()));
    const std::uint64_t inv_ev =
        TraceEv(trace::EventKind::kInvalidateSend, p, op_id, parent_ev,
                static_cast<std::int64_t>(targets.size()), round);
    TraceBind(trace::InvKey(p), inv_ev);
    auto acks = endpoint_.MultiCallWithStatus(targets, kOpInvalidate, body,
                                              net::MsgKind::kControl,
                                              DsmCallOpts());
    if (acks.status == net::CallStatus::kShutdown) return false;
    if (acks.status == net::CallStatus::kOk) return true;
    std::vector<net::HostId> unacked;
    for (std::size_t i : acks.timed_out) unacked.push_back(targets[i]);
    targets = std::move(unacked);
  }
  return true;
}

// --------------------------------------------------------------------------
// Manager role
// --------------------------------------------------------------------------

ManagerGrant Host::BuildGrantLocked(PageNum p, net::HostId requester,
                                    bool is_write, bool has_copy) {
  ManagerEntry& m = dir_.Manager(p);
  MERMAID_CHECK(!m.busy);
  ++mgr_grants_total_;
  ManagerGrant g;
  g.owner = m.owner;
  // §2.3: "the number of necessary conversions can be kept to a minimum by
  // transferring a page from a host of the same type whenever possible" —
  // for read faults, serve from a same-representation copyset member
  // instead of a differently-represented owner (ownership is unchanged).
  if (!is_write && cfg_.prefer_same_type_source &&
      m.copyset.count(requester) == 0 &&
      !net_.ProfileOf(m.owner).SameRepresentation(
          net_.ProfileOf(requester))) {
    for (net::HostId h : m.copyset) {
      if (net_.ProfileOf(h).SameRepresentation(net_.ProfileOf(requester))) {
        g.owner = h;  // data source only; m.owner keeps ownership
        stats_.Inc(kSameTypeSource);
        break;
      }
    }
  }
  // The incarnation epoch in the high bits keeps op ids from a previous
  // life of this manager disjoint from the fresh counter (which restarts at
  // zero with the amnesia wipe). Epoch 0 with crash recovery off, so
  // knobs-off wire images are unchanged.
  ++op_counter_;
  g.op_id = (static_cast<std::uint64_t>(op_epoch_) << 48) | op_counter_;
  g.new_version = is_write ? m.version + 1 : m.version;
  // Both must agree: after a revoked write grant the copyset can hold
  // phantom members whose copies the vanished writer already invalidated,
  // so the requester's own claim gates the "no data needed" shortcut.
  g.requester_has_copy = has_copy && m.copyset.count(requester) > 0;
  g.type = m.type;
  g.alloc_bytes = m.alloc_bytes;
  if (is_write) {
    for (net::HostId h : m.copyset) {
      if (h != requester && h != m.owner) g.to_invalidate.push_back(h);
    }
  }
  MarkBusyLocked(p, m, g.op_id, requester, is_write, g.new_version);
  const std::uint64_t grant_ev =
      TraceEv(trace::EventKind::kManagerGrant, p, g.op_id,
              TraceParent(trace::FaultKey(requester, p)), is_write ? 1 : 0,
              g.owner);
  TraceBind(trace::OpKey(p, g.op_id), grant_ev);
  return g;
}

void Host::MarkBusyLocked(PageNum p, ManagerEntry& m, std::uint64_t op_id,
                          net::HostId requester, bool is_write,
                          std::uint64_t new_version) {
  m.busy = true;
  m.busy_op_id = op_id;
  m.busy_requester = requester;
  m.busy_is_write = is_write;
  m.busy_new_version = new_version;
  m.busy_since = rt_.Now();
  if (requester != self_) busy_watch_.insert(p);
}

void Host::ManagerIssue(PageNum p, PendingTransfer t) {
  if (cfg_.crash_recovery) {
    net::HostId owner;
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      owner = dir_.Manager(p).owner;
    }
    // Note: `t.has_copy` is NOT trusted here. It was serialized when the
    // request was created, and a request can spend many retransmit rounds
    // in a lossy network while recoveries rebuild the very state it
    // describes — healing on a stale "no copy" claim has destroyed live
    // pages. An amnesiac owner-of-record instead receives the dataless
    // upgrade, rejects it (kOpGrantReject carries current truth), and the
    // reject handler heals the entry.
    const bool owner_down = owner != self_ && owner != t.requester &&
                            net_.HostDown(owner, rt_.Now());
    if (owner_down) {
      // The owner's copy died with it: heal the entry before granting, or
      // the requester would chase a corpse until its retry budget ran out.
      // op_id 0 = no grant to unbusy; drain=false because the transfer
      // being issued here is already in hand.
      stats_.Inc(kOwnerLostDetected);
      HandlePageLostLocal(p, 0, owner, /*drain=*/false);
    }
  }
  ManagerGrant grant;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    grant = BuildGrantLocked(p, t.requester, t.is_write, t.has_copy);
  }
  if (!t.remote.has_value()) {
    t.local_grant.Send(grant);
    return;
  }

  // Remote requester.
  const net::RequestContext& ctx = *t.remote;
  std::uint64_t data_version;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    data_version = dir_.Manager(p).version;
  }
  if (grant.owner == t.requester) {
    // Ownership upgrade: requester already owns the page; no data leg.
    FetchReply r;
    r.op_id = grant.op_id;
    r.data_version = data_version;
    r.new_version = grant.new_version;
    r.owner = grant.owner;
    r.type = grant.type;
    r.alloc_bytes = grant.alloc_bytes;
    r.to_invalidate = grant.to_invalidate;
    r.has_data = false;
    r.data_rep = arch::RepClassByte(net_.ProfileOf(grant.owner));
    ctx.Reply(EncodeFetchReply(r));
    return;
  }
  if (grant.owner == self_) {
    // The manager host owns the page: serve directly (R -> M/O of Table 4).
    rt_.Delay(profile_->server_op_cost);
    auto reply = EncodeServeReply(p, t.requester, t.is_write,
                                  !grant.requester_has_copy, grant.op_id,
                                  data_version, grant.new_version, grant.type,
                                  grant.alloc_bytes, grant.to_invalidate);
    ctx.Reply(std::move(reply), net::MsgKind::kData);
    return;
  }
  // Forward to the owner (R -> M -> O of Table 4).
  const std::uint64_t fwd_ev =
      TraceEv(trace::EventKind::kManagerForward, p, grant.op_id,
              TraceParent(trace::OpKey(p, grant.op_id)), grant.owner,
              t.requester);
  TraceBind(trace::OpKey(p, grant.op_id), fwd_ev);
  base::WireWriter w;
  w.U8(kToOwner);
  w.U32(p);
  w.U64(grant.op_id);
  w.U64(grant.new_version);
  w.U8(grant.requester_has_copy ? 0 : 1);
  w.U16(grant.type);
  w.U32(grant.alloc_bytes);
  w.U16(static_cast<std::uint16_t>(grant.to_invalidate.size()));
  for (net::HostId h : grant.to_invalidate) w.U16(h);
  ctx.Forward(grant.owner, std::move(w).Take());
}

void Host::ManagerCommit(PageNum p, std::uint64_t op_id,
                         net::HostId requester, bool is_write) {
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    ManagerEntry& m = dir_.Manager(p);
    if (!m.busy || m.busy_op_id != op_id) {
      stats_.Inc(kStaleConfirms);
      return;  // duplicate confirm of an already-committed transfer
    }
    if (m.busy_requester != requester) {
      // The grant went to another host: this confirm cannot commit it.
      stats_.Inc(kMalformed);
      return;
    }
    if (is_write) {
      m.owner = requester;
      m.copyset.clear();
      m.copyset.insert(requester);
      m.version = m.busy_new_version;
    } else {
      m.copyset.insert(requester);
    }
    m.busy = false;
  }
  TraceEv(trace::EventKind::kManagerCommit, p, op_id,
          TraceParent(trace::OpKey(p, op_id)), is_write ? 1 : 0, requester);
  ManagerDrain(p);
}

void Host::ManagerDrain(PageNum p) {
  PendingTransfer next;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    ManagerEntry& m = dir_.Manager(p);
    if (m.busy || m.pending.empty()) return;
    next = std::move(m.pending.front());
    m.pending.pop_front();
  }
  ManagerIssue(p, std::move(next));
}

void Host::ManagerRevoke(PageNum p, std::uint64_t op_id) {
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    ManagerEntry& m = dir_.Manager(p);
    if (!m.busy || m.busy_op_id != op_id) return;  // committed or re-granted
    m.busy = false;  // owner/copyset/version deliberately unchanged
    stats_.Inc(kGrantsRevoked);
  }
  TraceEv(trace::EventKind::kManagerRevoke, p, op_id,
          TraceParent(trace::OpKey(p, op_id)));
  ManagerDrain(p);
}

// --------------------------------------------------------------------------
// Owner role
// --------------------------------------------------------------------------

net::Body Host::EncodeServeReply(
    PageNum p, net::HostId requester, bool is_write, bool data_needed,
    std::uint64_t op_id, std::uint64_t data_version,
    std::uint64_t new_version, arch::TypeId type, std::uint32_t alloc_bytes,
    const std::vector<net::HostId>& to_invalidate) {
  FetchReply r;
  r.op_id = op_id;
  r.data_version = data_version;
  r.new_version = new_version;
  r.owner = self_;
  r.type = type;
  r.alloc_bytes = alloc_bytes;
  r.to_invalidate = to_invalidate;
  r.has_data = data_needed;
  r.data_rep = arch::RepClassByte(*profile_);

  const GlobalAddr page_base = static_cast<GlobalAddr>(p) * page_bytes_;
  const arch::ArchProfile& req_prof = net_.ProfileOf(requester);
  const std::uint8_t req_rep = arch::RepClassByte(req_prof);
  // With the cache enabled the owner converts outgoing pages itself; the
  // receiver then skips the codec (and, for cache hits, the modeled delay).
  const bool want_convert = data_needed && cfg_.convert_enabled &&
                            cfg_.convert_cache &&
                            !profile_->SameRepresentation(req_prof);

  // Phase 1 (locked): validate, read the serve parameters, look up the
  // conversion cache, and apply the downgrade/relinquish state transition.
  std::uint32_t extent = 0;
  std::uint64_t version = 0;
  bool invalidated = false;
  bool downgraded = false;
  bool cache_hit = false;
  base::Buffer image;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    LocalPageEntry& e = ptable_.Local(p);
    // A retained entry (relinquished in a since-revoked transfer) is a legal
    // data source: the bytes are still the current version.
    MERMAID_CHECK_MSG(e.access != Access::kNone || e.retained,
                      "owner asked to serve a page it does not hold");
    version = e.version;
    if (data_needed) {
      extent = cfg_.partial_page_transfer ? std::min(alloc_bytes, page_bytes_)
                                          : page_bytes_;
      if (want_convert) {
        const ConvertCacheKey key{p, version, req_rep};
        auto it = convert_cache_.find(key);
        if (it != convert_cache_.end() && it->second.size() == extent) {
          image = it->second;
          cache_hit = true;
          // LRU promotion: a hit moves the key to the back of the eviction
          // order, so hot pages survive capacity pressure from one-shot
          // conversions.
          auto pos = std::find(convert_cache_order_.begin(),
                               convert_cache_order_.end(), key);
          if (pos != convert_cache_order_.end()) {
            convert_cache_order_.erase(pos);
            convert_cache_order_.push_back(key);
          }
        }
      }
    }
    if (is_write) {
      // Relinquish: the new owner takes over. Keep the bytes servable in
      // case the manager revokes this grant and names us the source again.
      invalidated = e.access != Access::kNone;
      e.access = Access::kNone;
      e.owned = false;
      e.retained = true;
    } else if (e.access == Access::kWrite &&
               !(cfg_.release_consistency && rc_home_dirty_.count(p) != 0)) {
      // Downgrade to read-only; we stay the owner. (A home-dirty page under
      // release consistency keeps its write access: the reader legally gets
      // the mid-critical-section bytes at the committed version, and the
      // home's deferred writes commit at its own release.)
      downgraded = true;
      e.access = Access::kRead;
    }
  }
  if (referee_ != nullptr) {
    if (is_write && invalidated) {
      referee_->OnInvalidate(self_, p);
    } else if (downgraded) {
      referee_->OnDowngrade(self_, p);
    }
  }
  const std::uint64_t serve_ev =
      TraceEv(trace::EventKind::kOwnerServe, p, op_id,
              TraceParent(trace::OpKey(p, op_id)), extent,
              cache_hit ? 1 : 0);
  TraceBind(trace::OpKey(p, op_id), serve_ev);

  // Phase 2 (unlocked): copy and convert the page image. Safe outside
  // state_mu_: the manager entry stays busy until the requester confirms,
  // so no competing transfer can change these bytes underneath us.
  if (data_needed) {
    if (cache_hit) {
      r.data_rep = req_rep;
      r.sender_converted = true;
      r.from_cache = true;
      stats_.Inc(kConvertCacheHits);
    } else {
      // Copy #1 of the data path: owner memory -> wire buffer.
      std::vector<std::uint8_t> img(mem_.begin() + page_base,
                                    mem_.begin() + page_base + extent);
      base::BulkCopyRecord(img.size());
      if (want_convert) {
        arch::ConvertStats cstats;
        arch::ConvertContext cctx;
        cctx.src = profile_;
        cctx.dst = &req_prof;
        cctx.stats = &cstats;
        ConvertSlots(registry_, type, img, extent, cctx);
        if (cstats.total_lossy() > 0) {
          stats_.Inc(kConvertLossy, cstats.total_lossy());
        }
        r.data_rep = req_rep;
        r.sender_converted = true;
        stats_.Inc(kConvertCacheMisses);
      }
      image = base::Buffer(std::move(img));
      if (want_convert && !is_write) {
        // Cache the converted image for repeat readers of this version.
        std::lock_guard<std::mutex> lk(state_mu_);
        const ConvertCacheKey key{p, version, req_rep};
        if (convert_cache_.emplace(key, image).second) {
          convert_cache_order_.push_back(key);
          while (convert_cache_order_.size() > cfg_.convert_cache_capacity) {
            convert_cache_.erase(convert_cache_order_.front());
            convert_cache_order_.pop_front();
            stats_.Inc(kConvertCacheEvictions);
          }
        } else {
          convert_cache_[key] = image;  // refresh (extent grew)
        }
      }
    }
    r.data = base::BufferChain(image);
  }

  stats_.Inc(kPagesServed);
  if (data_needed) {
    stats_.Inc(kBytesOut, static_cast<std::int64_t>(r.data.size()));
  }
  return EncodeFetchReply(r);
}

// --------------------------------------------------------------------------
// Handlers (rx daemon; never block)
// --------------------------------------------------------------------------

void Host::HandleTransferReq(net::RequestContext ctx, bool is_write) {
  base::WireReader r(ctx.body());
  r.U8();  // role
  const PageNum p = r.U32();
  const bool has_copy = r.U8() != 0;
  if (!r.ok() || p >= ptable_.num_pages() || !dir_.BaseManagedHere(p)) {
    stats_.Inc(kMalformed);
    return;
  }
  rt_.Delay(profile_->server_op_cost);

  PendingTransfer t;
  t.is_write = is_write;
  t.has_copy = has_copy;
  t.requester = ctx.origin();
  t.remote = std::move(ctx);
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (recovering_) {
      // Mid-reconstruction the manager map is untrustworthy. Drop the
      // request (no reply): the requester's call times out and retries,
      // landing after recovery finishes.
      stats_.Inc(kRecoveryDroppedReqs);
      return;
    }
    ManagerEntry& m = dir_.Manager(p);
    if (m.busy) {
      m.pending.push_back(std::move(t));
      return;
    }
  }
  ManagerIssue(p, std::move(t));
}

void Host::HandleOwnerFetch(net::RequestContext ctx, bool is_write) {
  base::WireReader r(ctx.body());
  r.U8();  // role
  const PageNum p = r.U32();
  const std::uint64_t op_id = r.U64();
  const std::uint64_t new_version = r.U64();
  const bool data_needed = r.U8() != 0;
  const arch::TypeId type = r.U16();
  const std::uint32_t alloc_bytes = r.U32();
  const std::uint16_t n_inv = r.U16();
  std::vector<net::HostId> to_invalidate(n_inv);
  for (auto& h : to_invalidate) h = r.U16();
  if (!r.ok() || p >= ptable_.num_pages()) {
    stats_.Inc(kMalformed);
    return;
  }
  rt_.Delay(profile_->server_op_cost);
  std::uint64_t data_version = 0;
  bool lost = false;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    const LocalPageEntry& e = ptable_.Local(p);
    if (cfg_.crash_recovery && e.access == Access::kNone && !e.retained) {
      // Amnesia: the grant names this host as owner, but the copy died with
      // a previous life. EncodeServeReply would abort on the missing copy;
      // a minimal owner_lost reply sends the requester to the manager to
      // report the loss instead.
      lost = true;
    } else {
      data_version = e.version;
    }
  }
  if (lost) {
    stats_.Inc(kOwnerLostDetected);
    TraceEv(trace::EventKind::kOwnerLost, p, op_id,
            TraceParent(trace::OpKey(p, op_id)), self_);
    FetchReply fr;
    fr.op_id = op_id;
    fr.owner = self_;
    fr.owner_lost = true;
    ctx.Reply(EncodeFetchReply(fr));
    return;
  }
  auto reply = EncodeServeReply(p, ctx.origin(), is_write, data_needed, op_id,
                                data_version, new_version, type, alloc_bytes,
                                to_invalidate);
  ctx.Reply(std::move(reply),
            data_needed ? net::MsgKind::kData : net::MsgKind::kControl);
}

void Host::HandleInvalidate(net::RequestContext ctx) {
  base::WireReader r(ctx.body());
  const PageNum p = r.U32();
  if (!r.ok() || p >= ptable_.num_pages()) {
    stats_.Inc(kMalformed);
    return;
  }
  rt_.Delay(profile_->server_op_cost);
  TraceEv(trace::EventKind::kInvalidateRecv, p, 0,
          TraceParent(trace::InvKey(p)), ctx.origin());
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    LocalPageEntry& e = ptable_.Local(p);
    if (e.access != Access::kNone) {
      e.access = Access::kNone;
      e.owned = false;
      stats_.Inc(kInvalidationsReceived);
      if (referee_ != nullptr) referee_->OnInvalidate(self_, p);
    }
    // Another writer is committing: any retained image is now stale, and so
    // is every cached converted image of this page.
    e.retained = false;
    DropConvertCacheLocked(p);
  }
  ctx.Reply({});
}

void Host::HandleConfirm(net::RequestContext ctx) {
  base::WireReader r(ctx.body());
  const PageNum p = r.U32();
  const std::uint64_t op_id = r.U64();
  const net::HostId requester = r.U16();
  const bool is_write = r.U8() != 0;
  // Only the requester confirms its own transfer, so a confirm naming
  // another host is a lie.
  if (!r.ok() || requester != ctx.origin() || p >= ptable_.num_pages() ||
      !dir_.BaseManagedHere(p)) {
    stats_.Inc(kMalformed);
    return;
  }
  ManagerCommit(p, op_id, requester, is_write);
}

void Host::HandleConfirmProbe(net::RequestContext ctx) {
  base::WireReader r(ctx.body());
  const PageNum p = r.U32();
  const std::uint64_t op_id = r.U64();
  if (!r.ok()) return;
  enum class Answer { kConfirm, kExtend, kReject } answer;
  bool is_write = false;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (auto it = completed_.find({p, op_id}); it != completed_.end()) {
      answer = Answer::kConfirm;  // confirm was lost: replay it
      is_write = it->second;
    } else if (inflight_ops_.count({p, op_id}) > 0) {
      answer = Answer::kExtend;  // still invalidating/installing
    } else {
      // We never saw (or long evicted) this grant. Disown it — and fence the
      // op so a late-arriving reply carrying it is discarded, never
      // installed after the manager revokes.
      answer = Answer::kReject;
      FenceOpLocked(p, op_id);
    }
  }
  // Every answer goes to the prober: the manager whose entry is busy.
  base::WireWriter w;
  w.U32(p);
  w.U64(op_id);
  switch (answer) {
    case Answer::kConfirm:
      w.U16(self_);
      w.U8(is_write ? 1 : 0);
      endpoint_.Notify(ctx.origin(), kOpConfirm, std::move(w).Take());
      break;
    case Answer::kExtend:
      endpoint_.Notify(ctx.origin(), kOpGrantExtend, std::move(w).Take());
      break;
    case Answer::kReject:
      stats_.Inc(kGrantsDisowned);
      w.U8(0);  // unknown-op disown: says nothing about our copy state
      endpoint_.Notify(ctx.origin(), kOpGrantReject, std::move(w).Take());
      break;
  }
}

void Host::HandleGrantReject(net::RequestContext ctx) {
  base::WireReader r(ctx.body());
  const PageNum p = r.U32();
  const std::uint64_t op_id = r.U64();
  // Two distinct meanings share this opcode, told apart by the reason
  // byte: no_copy=1 is an install-time disclaim ("the grant is dataless
  // and I verifiably hold nothing"), no_copy=0 is mere abandonment (a probe
  // disown) that says nothing about the sender's copy.
  const bool no_copy = r.U8() != 0;
  if (!r.ok() || p >= ptable_.num_pages() || !dir_.BaseManagedHere(p)) {
    stats_.Inc(kMalformed);
    return;
  }
  bool owner_disclaimed = false;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    const ManagerEntry& m = dir_.Manager(p);
    if (!m.busy || m.busy_op_id != op_id ||
        m.busy_requester != ctx.origin()) {
      return;  // stale reject of a committed or re-granted transfer
    }
    owner_disclaimed = no_copy && m.owner == ctx.origin();
  }
  stats_.Inc(kGrantRejects);
  if (owner_disclaimed) {
    // The owner of record itself just proved it holds no copy (it received
    // a dataless upgrade it cannot back): the copy died in a restart. Heal
    // the entry — promote a surviving holder or apply the lost-page
    // policy — rather than re-granting the same ghost upgrade forever.
    stats_.Inc(kOwnerLostDetected);
    HandlePageLostLocal(p, op_id, ctx.origin());
    return;
  }
  ManagerRevoke(p, op_id);
}

void Host::HandleGrantExtend(net::RequestContext ctx) {
  base::WireReader r(ctx.body());
  const PageNum p = r.U32();
  const std::uint64_t op_id = r.U64();
  if (!r.ok() || p >= ptable_.num_pages() || !dir_.BaseManagedHere(p)) {
    stats_.Inc(kMalformed);
    return;
  }
  std::lock_guard<std::mutex> lk(state_mu_);
  ManagerEntry& m = dir_.Manager(p);
  if (m.busy && m.busy_op_id == op_id && m.busy_requester == ctx.origin()) {
    m.busy_since = rt_.Now();  // requester is alive and mid-transfer
    stats_.Inc(kGrantExtends);
  }
}

// --------------------------------------------------------------------------
// Helpers
// --------------------------------------------------------------------------

// --------------------------------------------------------------------------
// Release consistency (§11 of DESIGN.md)
//
// Under SystemConfig::release_consistency a write fault never invalidates
// the copyset: the writer twins the page and defers its writes, and every
// sync operation is a release point that diffs the twins against the
// working copies and flushes only the dirty byte ranges to each page's
// home (the fixed manager — ownership never migrates under this mode, so
// home == owner == manager for every page). Acquiring sync operations
// (P / EventWait / Barrier) return the write notices published since this
// host last looked; stale local read copies are invalidated lazily there
// instead of eagerly at every store.
// --------------------------------------------------------------------------

Host::RcTwinResult Host::RcTwinPage(PageNum p) {
  std::lock_guard<std::mutex> lk(state_mu_);
  LocalPageEntry& e = ptable_.Local(p);
  if (e.access >= Access::kWrite) return RcTwinResult::kOk;  // already live
  if (e.access < Access::kRead) return RcTwinResult::kNoCopy;
  if (dir_.BaseManagedHere(p)) {
    // The home writes its master copy in place: there is nothing to diff
    // against later (release just commits a version bump), so no twin
    // buffer and zero wire bytes.
    rc_home_dirty_.insert(p);
    e.access = Access::kWrite;
    if (referee_ != nullptr) referee_->OnRcTwin(self_, p);
    const std::uint64_t ev =
        TraceEv(trace::EventKind::kTwinCreate, p, 0, 0,
                static_cast<std::int64_t>(e.version), /*home_dirty=*/1);
    TraceBind(trace::RcTwinKey(self_, p), ev);
    stats_.Inc("dsm.rc_home_dirty_marks");
    return RcTwinResult::kOk;
  }
  if (rc_twins_.size() >= cfg_.rc_max_twins) {
    stats_.Inc("dsm.rc_twin_capacity_flushes");
    return RcTwinResult::kCapacity;
  }
  const GlobalAddr base = static_cast<GlobalAddr>(p) * page_bytes_;
  std::uint32_t extent = page_bytes_;
  if (cfg_.partial_page_transfer && e.alloc_bytes != 0) {
    extent = std::min(e.alloc_bytes, page_bytes_);
  }
  RcTwin twin;
  twin.base.assign(mem_.begin() + base, mem_.begin() + base + extent);
  twin.base_version = e.version;
  base::BulkCopyRecord(twin.base.size());
  rc_twins_.emplace(p, std::move(twin));
  e.access = Access::kWrite;  // local write permission only; owned stays off
  if (referee_ != nullptr) referee_->OnRcTwin(self_, p);
  const std::uint64_t ev =
      TraceEv(trace::EventKind::kTwinCreate, p, 0, 0,
              static_cast<std::int64_t>(e.version), /*home_dirty=*/0);
  TraceBind(trace::RcTwinKey(self_, p), ev);
  stats_.Inc("dsm.rc_twins");
  return RcTwinResult::kOk;
}

void Host::RcFlushTwins() {
  if (!cfg_.release_consistency) return;
  struct PendingFlush {
    PageNum page = 0;
    std::uint64_t seq = 0;
    std::uint64_t base_version = 0;
    arch::TypeId type = arch::TypeRegistry::kChar;
    bool home_dirty = false;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
    std::vector<std::uint8_t> bytes;  // concatenated slot-aligned ranges
    std::uint64_t twin_ev = 0;
  };
  std::vector<PendingFlush> flushes;
  std::uint32_t life = 0;

  // Snapshot-claim: under one lock acquisition, diff every twin, demote the
  // page back to read access, and erase the twin. A thread writing the page
  // concurrently re-faults into a fresh twin after the demote, so no store
  // is ever lost between snapshot and flush.
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    life = life_;
    for (auto& [p, twin] : rc_twins_) {
      LocalPageEntry& e = ptable_.Local(p);
      const GlobalAddr base = static_cast<GlobalAddr>(p) * page_bytes_;
      const std::uint32_t extent =
          static_cast<std::uint32_t>(twin.base.size());
      const std::uint32_t stride = static_cast<std::uint32_t>(
          std::bit_ceil(registry_.SizeOf(e.type)));
      PendingFlush f;
      f.page = p;
      f.seq = ++rc_flush_seq_;
      f.base_version = twin.base_version;
      f.type = e.type;
      // Scan at slot granularity (the allocator's power-of-two stride, the
      // same unit the conversion layer works in) and coalesce consecutive
      // dirty slots into ranges.
      std::uint32_t diff_bytes = 0;
      for (std::uint32_t off = 0; off + stride <= extent;) {
        if (std::memcmp(twin.base.data() + off, mem_.data() + base + off,
                        stride) != 0) {
          std::uint32_t run = stride;
          while (off + run + stride <= extent &&
                 std::memcmp(twin.base.data() + off + run,
                             mem_.data() + base + off + run, stride) != 0) {
            run += stride;
          }
          f.ranges.emplace_back(off, run);
          diff_bytes += run;
          off += run;
        } else {
          off += stride;
        }
      }
      // Past the crossover a range list costs more than the page: send one
      // full-extent range instead (the degenerate diff IS the SC transfer).
      if (!f.ranges.empty() &&
          static_cast<std::uint64_t>(diff_bytes) * 100 >=
              static_cast<std::uint64_t>(cfg_.rc_diff_crossover_pct) *
                  extent) {
        const std::uint32_t full = extent - extent % stride;
        f.ranges.assign(1, {0u, full});
        stats_.Inc("dsm.rc_flush_full_extent");
      }
      for (const auto& [off, len] : f.ranges) {
        f.bytes.insert(f.bytes.end(), mem_.begin() + base + off,
                       mem_.begin() + base + off + len);
      }
      f.twin_ev = TraceParent(trace::RcTwinKey(self_, p));
      e.access = Access::kRead;
      if (referee_ != nullptr) {
        referee_->OnRcRelease(self_, p, /*kept_copy=*/true);
      }
      if (f.ranges.empty()) {
        stats_.Inc("dsm.rc_clean_twins");  // nothing stored; just released
      } else {
        flushes.push_back(std::move(f));
      }
    }
    rc_twins_.clear();
    for (PageNum p : rc_home_dirty_) {
      PendingFlush f;
      f.page = p;
      f.seq = ++rc_flush_seq_;
      f.home_dirty = true;
      f.twin_ev = TraceParent(trace::RcTwinKey(self_, p));
      LocalPageEntry& e = ptable_.Local(p);
      e.access = Access::kRead;
      if (referee_ != nullptr) {
        referee_->OnRcRelease(self_, p, /*kept_copy=*/true);
      }
      flushes.push_back(std::move(f));
    }
    rc_home_dirty_.clear();
  }

  for (auto& f : flushes) {
    std::uint64_t new_version = 0;
    std::uint64_t prev_version = 0;
    bool applied = false;
    if (f.home_dirty) {
      // The master copy already holds the writes: committing is a version
      // bump — but not while a transfer serving the pre-release version is
      // in flight (its reply would install bytes labeled with a version the
      // commit just retired).
      for (int round = 0;; ++round) {
        bool busy = false;
        {
          std::lock_guard<std::mutex> lk(state_mu_);
          if (life != life_) break;  // crashed mid-release: state is gone
          ManagerEntry& m = dir_.Manager(f.page);
          if (m.busy) {
            busy = true;
          } else {
            const auto nv = RcCommitFlushLocked(f.page, self_);
            new_version = nv.first;
            prev_version = nv.second;
            applied = true;
          }
        }
        if (!busy) break;
        MERMAID_CHECK_MSG(round <= cfg_.fault_retry_limit * 8,
                          "home-dirty release outwaited its retry budget");
        stats_.Inc("dsm.rc_flush_busy_retries");
        rt_.Delay(FaultBackoff(cfg_, std::min(round + 1, 8)));
      }
      if (applied) {
        const std::uint64_t ev =
            TraceEv(trace::EventKind::kDiffFlush, f.page, f.seq, f.twin_ev,
                    /*diff_bytes=*/0, /*ranges=*/0);
        TraceBind(trace::RcNoticeKey(f.page), ev);
        stats_.Inc("dsm.rc_flushes");
      }
    } else {
      base::WireWriter w;
      w.U32(f.page);
      w.U64(f.seq);
      w.U16(f.type);
      w.U8(arch::RepClassByte(*profile_));
      w.U16(static_cast<std::uint16_t>(f.ranges.size()));
      for (const auto& [off, len] : f.ranges) {
        w.U32(off);
        w.U32(len);
      }
      w.Raw(f.bytes);
      const net::Body body(std::move(w).Take());
      const net::HostId home = dir_.BaseManagerOf(f.page);
      for (int round = 0;; ++round) {
        {
          std::lock_guard<std::mutex> lk(state_mu_);
          if (life != life_) break;  // crashed mid-release
        }
        auto resp = endpoint_.CallWithStatus(home, kOpDiffFlush, body,
                                             net::MsgKind::kData,
                                             DsmCallOpts());
        if (resp.status == net::CallStatus::kShutdown) return;
        if (resp.status == net::CallStatus::kOk) {
          const auto rb = resp.body.ToVector();
          base::WireReader r(rb);
          const std::uint8_t status = r.U8();
          if (status == 0) {
            new_version = r.U64();
            prev_version = r.U64();
            if (r.ok()) {
              applied = true;
              break;
            }
          }
          // Busy or recovering home: back off and re-flush (same seq; the
          // home deduplicates if the earlier attempt actually applied).
        }
        MERMAID_CHECK_MSG(round <= cfg_.fault_retry_limit * 8,
                          "diff flush exhausted its retry budget");
        stats_.Inc("dsm.rc_flush_retries");
        rt_.Delay(FaultBackoff(cfg_, std::min(round + 1, 8)));
      }
      if (applied) {
        stats_.Inc("dsm.rc_flushes");
        stats_.Inc("dsm.rc_flush_bytes",
                   static_cast<std::int64_t>(f.bytes.size()));
        stats_.Inc("dsm.rc_flush_ranges",
                   static_cast<std::int64_t>(f.ranges.size()));
        const std::uint64_t ev = TraceEv(
            trace::EventKind::kDiffFlush, f.page, f.seq, f.twin_ev,
            static_cast<std::int64_t>(f.bytes.size()),
            static_cast<std::int64_t>(f.ranges.size()));
        TraceBind(trace::RcNoticeKey(f.page), ev);
        // Keep-copy rule: when nobody flushed between our twin and our
        // flush (prev == base), the local image equals the new master and
        // the copy stays valid at the committed version. Any interleaved
        // flush means our image lacks another writer's bytes: drop it.
        std::lock_guard<std::mutex> lk(state_mu_);
        if (life == life_) {
          LocalPageEntry& e = ptable_.Local(f.page);
          if (rc_twins_.count(f.page) == 0 && e.access == Access::kRead &&
              e.version == f.base_version) {
            if (prev_version == f.base_version) {
              e.version = new_version;
              stats_.Inc("dsm.rc_copies_kept");
            } else {
              e.access = Access::kNone;
              e.owned = false;
              e.retained = false;
              DropConvertCacheLocked(f.page);
              if (referee_ != nullptr) referee_->OnInvalidate(self_, f.page);
              stats_.Inc("dsm.rc_self_invalidations");
            }
          }
        }
      }
    }
    if (applied) {
      std::lock_guard<std::mutex> lk(state_mu_);
      if (life == life_) {
        rc_pending_notices_.push_back(
            {f.page, new_version, static_cast<std::uint16_t>(self_)});
      }
    }
  }
}

std::pair<std::uint64_t, std::uint64_t> Host::RcCommitFlushLocked(
    PageNum p, net::HostId origin, bool drop_cache) {
  ManagerEntry& m = dir_.Manager(p);
  const std::uint64_t prev = m.version;
  ++m.version;
  // The home's master copy tracks the committed version, and — the
  // "write bumps the version" invariant — every cached converted image of
  // this page is unservable the instant a diff mutates it. A remote diff
  // flush knows exactly which byte ranges changed, so its caller patches
  // the cached images in place instead of dropping them (drop_cache=false).
  LocalPageEntry& e = ptable_.Local(p);
  e.version = m.version;
  if (drop_cache) DropConvertCacheLocked(p);
  if (referee_ != nullptr) referee_->OnRcFlush(origin, p, m.version);
  return {m.version, prev};
}

void Host::PatchConvertCacheLocked(
    PageNum p, std::uint64_t prev_version, std::uint64_t new_version,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& ranges) {
  // A diff flush is a partial write: whole-page converted images cached at
  // the pre-flush version stay correct outside the flushed ranges. Re-run
  // the codec on just those ranges (slot-aligned by construction) and
  // re-key the image to the committed version, instead of throwing the
  // whole conversion away.
  std::vector<ConvertCacheKey> keys;
  for (const auto& [k, img] : convert_cache_) {
    if (k.page == p && k.version == prev_version) keys.push_back(k);
  }
  const GlobalAddr base = static_cast<GlobalAddr>(p) * page_bytes_;
  const arch::TypeId type = ptable_.Local(p).type;
  for (const ConvertCacheKey& key : keys) {
    const arch::ArchProfile* target = nullptr;
    for (net::HostId h = 0; h < num_hosts_; ++h) {
      if (arch::RepClassByte(net_.ProfileOf(h)) == key.rep) {
        target = &net_.ProfileOf(h);
        break;
      }
    }
    if (target == nullptr) continue;  // no such architecture anymore
    base::Buffer& cached = convert_cache_[key];
    const std::uint32_t extent = static_cast<std::uint32_t>(cached.size());
    // Copy-on-write: the cached buffer may back an in-flight reply chain.
    std::vector<std::uint8_t> img(cached.span().begin(), cached.span().end());
    for (const auto& [off, len] : ranges) {
      if (off >= extent) continue;
      const std::uint32_t n = std::min(len, extent - off);
      std::copy(mem_.begin() + base + off, mem_.begin() + base + off + n,
                img.begin() + off);
      if (key.rep != arch::RepClassByte(*profile_)) {
        arch::ConvertStats cstats;
        arch::ConvertContext cctx;
        cctx.src = profile_;
        cctx.dst = target;
        cctx.stats = &cstats;
        ConvertSlots(registry_, type,
                     std::span<std::uint8_t>(img.data() + off, n), n, cctx);
      }
    }
    const ConvertCacheKey new_key{p, new_version, key.rep};
    convert_cache_.erase(key);
    convert_cache_[new_key] = base::Buffer(std::move(img));
    for (auto& k : convert_cache_order_) {
      if (k == key) k = new_key;
    }
    stats_.Inc("dsm.convert_cache_patched");
  }
}

std::vector<sync::WriteNotice> Host::RcDrainNotices() {
  if (!cfg_.release_consistency) return {};
  RcFlushTwins();
  std::lock_guard<std::mutex> lk(state_mu_);
  return std::exchange(rc_pending_notices_, {});
}

void Host::RcApplyNotices(const std::vector<sync::WriteNotice>& notices,
                          bool reset) {
  if (!cfg_.release_consistency) return;
  std::lock_guard<std::mutex> lk(state_mu_);
  if (reset) {
    // The server's bounded notice log was truncated past this client's
    // cursor: unknown notices were missed, so every read copy that is
    // neither twinned nor the master here is conservatively stale.
    stats_.Inc("dsm.rc_notice_resets");
    for (PageNum p = 0; p < ptable_.num_pages(); ++p) {
      if (dir_.BaseManagedHere(p) || rc_twins_.count(p) != 0) continue;
      LocalPageEntry& e = ptable_.Local(p);
      e.retained = false;
      if (e.access == Access::kNone) continue;
      e.access = Access::kNone;
      e.owned = false;
      DropConvertCacheLocked(p);
      if (referee_ != nullptr) referee_->OnInvalidate(self_, p);
      stats_.Inc("dsm.rc_reset_invalidations");
    }
  }
  for (const sync::WriteNotice& n : notices) {
    const PageNum p = n.page;
    if (p >= ptable_.num_pages()) continue;
    if (n.origin == self_) continue;          // our own flush
    if (dir_.BaseManagedHere(p)) continue;    // the master is always fresh
    if (rc_twins_.count(p) != 0) continue;    // flushed at our next release
    LocalPageEntry& e = ptable_.Local(p);
    if (e.access == Access::kNone || e.version >= n.version) continue;
    e.access = Access::kNone;
    e.owned = false;
    e.retained = false;
    DropConvertCacheLocked(p);
    if (referee_ != nullptr) referee_->OnInvalidate(self_, p);
    TraceEv(trace::EventKind::kWriteNotice, p, 0,
            TraceParent(trace::RcNoticeKey(p)),
            static_cast<std::int64_t>(n.version), n.origin);
    stats_.Inc("dsm.rc_notices_applied");
  }
}

void Host::HandleDiffFlush(net::RequestContext ctx) {
  base::WireReader r(ctx.body());
  const PageNum p = r.U32();
  const std::uint64_t seq = r.U64();
  const arch::TypeId type = r.U16();
  const std::uint8_t rep = r.U8();
  const std::uint16_t n_ranges = r.U16();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges(n_ranges);
  std::size_t total = 0;
  bool sane = true;
  for (auto& [off, len] : ranges) {
    off = r.U32();
    len = r.U32();
    if (len == 0 || off + static_cast<std::uint64_t>(len) > page_bytes_) {
      sane = false;
    }
    total += len;
  }
  const std::span<const std::uint8_t> raw = r.Raw(total);
  if (!r.ok() || !sane || !cfg_.release_consistency ||
      p >= ptable_.num_pages() || !dir_.BaseManagedHere(p)) {
    stats_.Inc(kMalformed);
    return;
  }
  const net::HostId origin = ctx.origin();
  const RcFlushKey key{p, origin, seq};
  rt_.Delay(profile_->server_op_cost);

  const auto reply_ok = [&ctx](std::uint64_t nv, std::uint64_t pv) {
    base::WireWriter w;
    w.U8(0);
    w.U64(nv);
    w.U64(pv);
    ctx.Reply(std::move(w).Take());
  };
  const auto reply_busy = [&ctx] {
    base::WireWriter w;
    w.U8(1);
    ctx.Reply(std::move(w).Take());
  };

  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (recovering_) {
      // Mid-reconstruction versions are untrustworthy; drop the request so
      // the writer's call times out and retries after the rebuild.
      stats_.Inc(kRecoveryDroppedReqs);
      return;
    }
    // A release re-issued as a fresh call after a timeout must not apply
    // its diffs twice (the endpoint dedup only covers same-req-id
    // retransmits): answer from the applied record.
    if (const auto it = rc_applied_.find(key); it != rc_applied_.end()) {
      stats_.Inc("dsm.rc_flush_replays");
      reply_ok(it->second.new_version, it->second.prev_version);
      return;
    }
    if (dir_.Manager(p).busy) {
      // A transfer is in flight at the pre-flush version; applying now
      // would let its reply install bytes newer than their label. The
      // writer backs off and retries.
      stats_.Inc("dsm.rc_flush_busy_rejects");
      reply_busy();
      return;
    }
  }

  // Convert outside the lock (the codec models real per-element cost). The
  // payload is a concatenation of slot-aligned ranges, i.e. a contiguous
  // element array in the writer's representation.
  std::vector<std::uint8_t> payload(raw.begin(), raw.end());
  if (cfg_.convert_enabled && rep != arch::RepClassByte(*profile_)) {
    ConvertIncoming(p, payload, type, net_.ProfileOf(origin),
                    /*run_codec=*/true);
  }

  std::uint64_t new_version = 0;
  std::uint64_t prev_version = 0;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (recovering_) {
      stats_.Inc(kRecoveryDroppedReqs);
      return;
    }
    if (const auto it = rc_applied_.find(key); it != rc_applied_.end()) {
      stats_.Inc("dsm.rc_flush_replays");
      reply_ok(it->second.new_version, it->second.prev_version);
      return;
    }
    if (dir_.Manager(p).busy) {  // went busy during the conversion
      stats_.Inc("dsm.rc_flush_busy_rejects");
      reply_busy();
      return;
    }
    const GlobalAddr base = static_cast<GlobalAddr>(p) * page_bytes_;
    std::size_t pos = 0;
    for (const auto& [off, len] : ranges) {
      std::copy(payload.begin() + pos, payload.begin() + pos + len,
                mem_.begin() + base + off);
      pos += len;
    }
    base::BulkCopyRecord(payload.size());
    const auto nv = RcCommitFlushLocked(p, origin, /*drop_cache=*/false);
    new_version = nv.first;
    prev_version = nv.second;
    PatchConvertCacheLocked(p, prev_version, new_version, ranges);
    while (rc_applied_order_.size() >= 8192) {
      rc_applied_.erase(rc_applied_order_.front());
      rc_applied_order_.pop_front();
    }
    rc_applied_order_.push_back(key);
    rc_applied_[key] = {new_version, prev_version};
    stats_.Inc("dsm.rc_flushes_applied");
    stats_.Inc("dsm.rc_flush_bytes_in",
               static_cast<std::int64_t>(payload.size()));
  }
  reply_ok(new_version, prev_version);
}

std::size_t Host::RcTwinCount() {
  std::lock_guard<std::mutex> lk(state_mu_);
  return rc_twins_.size() + rc_home_dirty_.size();
}

void Host::ConvertIncoming(PageNum p, std::span<std::uint8_t> data,
                           arch::TypeId type, const arch::ArchProfile& from,
                           bool run_codec) {
  if (run_codec) {
    arch::ConvertStats cstats;
    arch::ConvertContext ctx;
    ctx.src = &from;
    ctx.dst = profile_;
    ctx.stats = &cstats;
    ConvertSlots(registry_, type, data,
                 static_cast<std::uint32_t>(data.size()), ctx);
    if (cstats.total_lossy() > 0) {
      stats_.Inc(kConvertLossy, cstats.total_lossy());
    }
  }
  // The calibrated Table-3 delay and the per-host conversion counters are
  // always charged at the receiver, independent of where the codec ran, so
  // first-fault timing and stats match the paper's receiver-converts model.
  const std::size_t stride = std::bit_ceil(registry_.SizeOf(type));
  const std::size_t elems = data.size() / stride;
  const SimDuration delay = registry_.ModeledElementCost(*profile_, type) *
                            static_cast<SimDuration>(elems);
  rt_.Delay(delay);
  stats_.Inc(kConversions);
  stats_.Inc(kConvertedElements, static_cast<std::int64_t>(elems));
  stats_.Sample(kConvertMs, ToMillis(delay));
  stats_.Hist(kConvertTimeMs, ToMillis(delay));
  TraceEv(trace::EventKind::kConvert, p, 0, 0,
          static_cast<std::int64_t>(elems),
          static_cast<std::int64_t>(delay));
}

void Host::DropConvertCacheLocked(PageNum p) {
  for (auto it = convert_cache_.begin(); it != convert_cache_.end();) {
    if (it->first.page == p) {
      it = convert_cache_.erase(it);
      stats_.Inc(kConvertCacheEvictions);
    } else {
      ++it;
    }
  }
  std::erase_if(convert_cache_order_,
                [p](const ConvertCacheKey& k) { return k.page == p; });
}

void Host::FenceOpLocked(PageNum p, std::uint64_t op_id) {
  if (fenced_.insert({p, op_id}).second) {
    while (fenced_order_.size() >= 4096) {
      fenced_.erase(fenced_order_.front());
      fenced_order_.pop_front();
    }
    fenced_order_.emplace_back(p, op_id);
  }
}

void Host::RecordCompleted(PageNum p, std::uint64_t op_id, bool is_write) {
  std::lock_guard<std::mutex> lk(state_mu_);
  inflight_ops_.erase({p, op_id});
  while (completed_order_.size() >= 4096) {
    completed_.erase(completed_order_.front());
    completed_order_.pop_front();
  }
  completed_order_.emplace_back(p, op_id);
  completed_[{p, op_id}] = is_write;
}

net::Body Host::EncodeFetchReply(const FetchReply& r) const {
  base::WireWriter w;
  w.U64(r.op_id);
  w.U64(r.data_version);
  w.U64(r.new_version);
  w.U16(r.owner);
  w.U16(r.type);
  w.U32(r.alloc_bytes);
  w.U16(static_cast<std::uint16_t>(r.to_invalidate.size()));
  for (net::HostId h : r.to_invalidate) w.U16(h);
  w.U8(r.has_data ? 1 : 0);
  w.U8(r.data_rep);
  w.U8(static_cast<std::uint8_t>((r.sender_converted ? 1 : 0) |
                                 (r.from_cache ? 2 : 0) |
                                 (r.owner_lost ? 4 : 0)));
  // The page data rides as a shared buffer chain behind the metadata — the
  // endpoint and fragment layers never copy it.
  return net::Body(std::move(w).Take(), r.data);
}

Host::FetchReply Host::DecodeFetchReply(const base::BufferChain& body) const {
  // Metadata sits in the first chunk by construction (the sender serializes
  // framing + metadata into one buffer); fall back to flattening if a
  // degenerate MTU split it.
  base::Buffer meta =
      body.chunk_count() > 0 ? body.chunk(0) : base::Buffer();
  bool flattened = false;
  for (;;) {
    base::WireReader r(meta.span());
    FetchReply out;
    out.op_id = r.U64();
    out.data_version = r.U64();
    out.new_version = r.U64();
    out.owner = r.U16();
    out.type = r.U16();
    out.alloc_bytes = r.U32();
    const std::uint16_t n = r.U16();
    out.to_invalidate.resize(n);
    for (auto& h : out.to_invalidate) h = r.U16();
    out.has_data = r.U8() != 0;
    out.data_rep = r.U8();
    const std::uint8_t flags = r.U8();
    out.sender_converted = (flags & 1) != 0;
    out.from_cache = (flags & 2) != 0;
    out.owner_lost = (flags & 4) != 0;
    if (r.ok()) {
      if (out.has_data) {
        const std::size_t consumed = meta.size() - r.remaining();
        out.data = flattened ? base::BufferChain(meta).Slice(consumed)
                             : body.Slice(consumed);
      }
      return out;
    }
    MERMAID_CHECK_MSG(!flattened && meta.size() < body.size(),
                      "malformed fetch reply");
    meta = body.Flatten();
    flattened = true;
  }
}

// --------------------------------------------------------------------------
// Crash-stop recovery
// --------------------------------------------------------------------------

namespace {

std::uint8_t AccessByte(Access a) {
  return a == Access::kWrite ? 2 : (a == Access::kRead ? 1 : 0);
}

Access AccessFromByte(std::uint8_t b) {
  return b == 2 ? Access::kWrite : (b == 1 ? Access::kRead : Access::kNone);
}

}  // namespace

void Host::CrashWipe() {
  // Fence the wire first: bump this host's incarnation (stamped into every
  // subsequent message), abandon pending calls, drop reassembly partials
  // and the dedup window.
  endpoint_.CrashReset();
  std::vector<sim::Chan<bool>> waiters;
  std::vector<sim::Chan<ManagerGrant>> local_grants;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    ++life_;
    recovering_ = true;
    op_epoch_ = endpoint_.incarnation();
    op_counter_ = 0;
    // Local fault threads parked on a grant channel would wedge forever
    // once their queue entries are wiped: collect the channels and wake
    // them with the op_id==0 crash sentinel after the lock drops.
    dir_.ForEachManaged([&](PageNum, ManagerEntry& m) {
      for (PendingTransfer& t : m.pending) {
        if (!t.remote.has_value()) local_grants.push_back(t.local_grant);
      }
    });
    ptable_.WipeForCrash();
    dir_.WipeForCrash();
    busy_watch_.clear();
    mem_.Wipe();
    for (auto& [p, chans] : fault_waiters_) {
      for (auto& c : chans) waiters.push_back(std::move(c));
    }
    fault_waiters_.clear();
    fault_inflight_.clear();
    completed_.clear();
    completed_order_.clear();
    inflight_ops_.clear();
    fenced_.clear();
    fenced_order_.clear();
    convert_cache_.clear();
    convert_cache_order_.clear();
    rc_twins_.clear();
    rc_home_dirty_.clear();
    rc_pending_notices_.clear();
    rc_applied_.clear();
    rc_applied_order_.clear();
  }
  stats_.Inc("dsm.crashes");
  for (auto& c : waiters) c.Send(true);
  for (auto& c : local_grants) c.Send(ManagerGrant{});
}

void Host::HandlePageLost(net::RequestContext ctx) {
  base::WireReader r(ctx.body());
  const PageNum p = r.U32();
  const std::uint64_t op_id = r.U64();
  const net::HostId dead_owner = r.U16();
  if (!r.ok() || p >= ptable_.num_pages() || !dir_.BaseManagedHere(p)) {
    stats_.Inc(kMalformed);
    return;
  }
  rt_.Delay(profile_->server_op_cost);
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (recovering_) {
      // The rebuild arbitrates from fresh claims; a concurrent report adds
      // nothing. No reply: the reporter refaults anyway.
      stats_.Inc(kRecoveryDroppedReqs);
      return;
    }
  }
  HandlePageLostLocal(p, op_id, dead_owner);
  ctx.Reply({});
}

void Host::HandlePageLostLocal(PageNum p, std::uint64_t op_id,
                               net::HostId dead_owner, bool drain) {
  bool promote_remote = false;
  bool reinit = false;
  net::HostId new_owner = 0;
  std::uint64_t promote_version = 0;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    // A report carrying a grant id from a previous life of this manager is
    // a pre-crash zombie: the entry was rebuilt since. Drop it.
    if (op_id != 0 && (op_id >> 48) != op_epoch_) return;
    ManagerEntry& m = dir_.Manager(p);
    if (m.owner != dead_owner) return;  // stale report: already healed
    stats_.Inc("dsm.owner_lost_reports");
    m.copyset.erase(dead_owner);
    if (m.busy && m.busy_op_id == op_id) m.busy = false;
    if (!m.copyset.empty()) {
      // Promote the lowest-id surviving copy holder. The version is
      // unchanged: every copyset member holds the committed image.
      m.owner = *m.copyset.begin();
      new_owner = m.owner;
      promote_version = m.version;
      if (new_owner == self_) {
        ptable_.Local(p).owned = true;
      } else {
        promote_remote = true;
      }
    } else {
      // The sole copy died with its owner.
      MERMAID_CHECK_MSG(cfg_.lost_page_policy == SystemConfig::LostPagePolicy::kReinitZero,
                        "page lost: the only copy died with its owner");
      stats_.Inc("dsm.recovery_pages_lost");
      m.owner = self_;
      m.copyset = {self_};
      m.version = 0;
      LocalPageEntry& e = ptable_.Local(p);
      e.access = Access::kRead;
      e.owned = true;
      e.version = 0;
      e.retained = false;
      e.type = m.type;
      e.alloc_bytes = m.alloc_bytes;
      const std::size_t base = static_cast<std::size_t>(p) * page_bytes_;
      const std::size_t end =
          std::min<std::size_t>(base + page_bytes_, mem_.size());
      std::fill(mem_.begin() + base, mem_.begin() + end, 0);
      DropConvertCacheLocked(p);
      reinit = true;
    }
  }
  if (reinit) {
    TraceEv(trace::EventKind::kRecoveryLost, p, op_id, 0, dead_owner);
    if (referee_ != nullptr) referee_->OnReinit(self_, p, 0);
  } else {
    TraceEv(trace::EventKind::kRecoveryDemote, p, op_id, 0, new_owner, 2);
    if (promote_remote) {
      // Fire-and-forget: the promotion only flips the new owner's `owned`
      // bit (its copy is already live), so a lost notify costs an extra
      // manager hop later, never correctness.
      base::WireWriter w;
      w.U16(1);
      w.U32(p);
      w.U8(2);  // mode 2: promote
      w.U64(promote_version);
      endpoint_.Notify(new_owner, kOpRecoveryDemote, std::move(w).Take());
    }
  }
  if (drain) ManagerDrain(p);
}

void Host::HandleRecoveryQuery(net::RequestContext ctx) {
  // The query covers every page the querying host manages.
  const net::HostId mgr = ctx.origin();
  rt_.Delay(profile_->server_op_cost);
  struct Claim {
    PageNum page = 0;
    std::uint64_t version = 0;
    std::uint8_t access = 0;
    std::uint8_t flags = 0;
    std::uint64_t op_id = 0;
    bool op_is_write = false;
    std::uint64_t op_new_version = 0;
  };
  std::vector<Claim> claims;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    auto emit = [&](PageNum p) {
      const LocalPageEntry& e = ptable_.Local(p);
      Claim c;
      c.page = p;
      c.version = e.version;
      c.access = AccessByte(e.access);
      if (cfg_.release_consistency && e.access == Access::kWrite) {
        // Under release consistency a write-accessible page is a local twin
        // (or home-dirty): the manager of record never granted write
        // ownership, so claim it as a read copy at its base version — the
        // rebuilt entry must not adopt a deferred-write buffer as owner.
        c.access = AccessByte(Access::kRead);
      }
      c.flags = static_cast<std::uint8_t>((e.owned ? 1 : 0) |
                                          (e.retained ? 2 : 0));
      // The highest-id in-flight grant: a decoded-but-unconfirmed transfer
      // this host WILL install, which the manager must adopt as busy.
      for (auto it = inflight_ops_.lower_bound({p, 0});
           it != inflight_ops_.end() && it->first.first == p; ++it) {
        c.op_id = it->first.second;
        c.op_is_write = it->second.is_write;
        c.op_new_version = it->second.new_version;
      }
      // Claim only pages with something to say: a copy, a retained image,
      // an in-flight grant, or a version trace (evidence the page once
      // lived, so a silent total loss is detected, not reinitialized).
      if (c.version == 0 && c.access == 0 && c.flags == 0 && c.op_id == 0) {
        return;
      }
      claims.push_back(c);
    };
    if (mgr < num_hosts_) {
      for (PageNum p : dir_.placement().PagesOf(mgr)) emit(p);
    }
  }
  base::WireWriter w;
  w.U16(static_cast<std::uint16_t>(claims.size()));
  for (const Claim& c : claims) {
    w.U32(c.page);
    w.U64(c.version);
    w.U8(c.access);
    w.U8(c.flags);
    w.U64(c.op_id);
    w.U8(c.op_is_write ? 1 : 0);
    w.U64(c.op_new_version);
  }
  ctx.Reply(std::move(w).Take());
}

void Host::HandleRecoveryDemote(net::RequestContext ctx) {
  base::WireReader r(ctx.body());
  const std::uint16_t n = r.U16();
  struct Cmd {
    PageNum p = 0;
    std::uint8_t mode = 0;  // 0 drop, 1 downgrade+disown, 2 promote
    std::uint64_t version = 0;
  };
  std::vector<Cmd> cmds(n);
  for (Cmd& c : cmds) {
    c.p = r.U32();
    c.mode = r.U8();
    c.version = r.U64();
  }
  if (!r.ok()) {
    stats_.Inc(kMalformed);
    return;
  }
  rt_.Delay(profile_->server_op_cost);
  // Referee events are collected under the lock and reported after it (the
  // referee takes its own mutex; keep the order state_mu_ -> referee only).
  struct Ev {
    std::uint8_t kind = 0;  // 0 invalidate, 1 downgrade, 2 install
    PageNum p = 0;
    std::uint64_t version = 0;
  };
  std::vector<Ev> evs;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    for (const Cmd& c : cmds) {
      if (c.p >= ptable_.num_pages()) continue;
      LocalPageEntry& e = ptable_.Local(c.p);
      if (c.mode == 0 || c.mode == 1) {
        // A drop/downgrade proves the rebuilt manager did NOT adopt any
        // grant we have decoded for this page (adopted claimants are never
        // demoted): fence those ops so their pending installs are discarded
        // instead of resurrecting the demoted state, and let the fault path
        // retry against the rebuilt manager.
        for (auto it = inflight_ops_.lower_bound({c.p, 0});
             it != inflight_ops_.end() && it->first.first == c.p;) {
          FenceOpLocked(it->first.first, it->first.second);
          it = inflight_ops_.erase(it);
        }
      }
      if (c.mode == 0) {
        // This copy lost the rebuild arbitration (stale version, demoted
        // duplicate, or a dangling retained image).
        if (e.access != Access::kNone) {
          evs.push_back({0, c.p, 0});
          stats_.Inc("dsm.recovery_demotions");
        }
        e.access = Access::kNone;
        e.owned = false;
        e.retained = false;
        DropConvertCacheLocked(c.p);
      } else if (c.mode == 1) {
        // Ownership moved elsewhere; the copy stays readable.
        if (e.access == Access::kWrite) {
          e.access = Access::kRead;
          evs.push_back({1, c.p, 0});
          stats_.Inc("dsm.recovery_demotions");
        }
        e.owned = false;
      } else if (c.mode == 2) {
        // This host is the rebuilt owner. A retained pre-crash image is
        // re-animated as the live copy; a write grant is conservatively
        // downgraded (the rebuild leaves no page writable, so MRSW holds
        // by construction through the heal).
        if (e.access == Access::kNone && e.retained) {
          e.access = Access::kRead;
          e.retained = false;
          evs.push_back({2, c.p, e.version});
        } else if (e.access == Access::kWrite) {
          e.access = Access::kRead;
          evs.push_back({1, c.p, 0});
        }
        if (e.access != Access::kNone) {
          e.owned = true;
          stats_.Inc("dsm.recovery_promotions");
        }
      }
      TraceEv(trace::EventKind::kRecoveryDemote, c.p, 0, 0, ctx.origin(),
              c.mode);
    }
  }
  for (const Ev& ev : evs) {
    if (referee_ == nullptr) break;
    if (ev.kind == 0) {
      referee_->OnInvalidate(self_, ev.p);
    } else if (ev.kind == 1) {
      referee_->OnDowngrade(self_, ev.p);
    } else {
      referee_->OnInstall(self_, ev.p, ev.version, Access::kRead);
    }
  }
  ctx.Reply({});
}

void Host::RunManagerRecovery() {
  const SimTime t0 = rt_.Now();
  // Crashing AGAIN mid-recovery spawns a fresh recovery for the new life;
  // this one is then a zombie and must not touch the re-wiped state (a
  // zombie reinit would double-initialize pages the new life also
  // reinitializes, and a zombie `recovering_ = false` would open the
  // request gates while the new rebuild is still collecting claims).
  // Every mutation below re-checks the life captured here.
  std::uint32_t life;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    life = life_;
  }
  TraceEv(trace::EventKind::kRecoveryStart, trace::kNoPage, 0, 0,
          endpoint_.incarnation());
  struct Claim {
    PageNum page = 0;
    std::uint64_t version = 0;
    Access access = Access::kNone;
    bool owned = false;
    bool retained = false;
    std::uint64_t op_id = 0;
    bool op_is_write = false;
    std::uint64_t op_new_version = 0;
    net::HostId host = 0;
  };
  std::vector<Claim> claims;
  std::vector<net::HostId> unanswered;
  for (net::HostId h = 0; h < num_hosts_; ++h) {
    if (h != self_) unanswered.push_back(h);
  }
  for (int round = 0;; ++round) {
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      if (life != life_) return;
    }
    // A host that is down right now restarts with amnesia: it has nothing
    // to claim, so it counts as answered-empty.
    std::erase_if(unanswered, [&](net::HostId h) {
      return net_.HostDown(h, rt_.Now());
    });
    if (unanswered.empty()) break;
    MERMAID_CHECK_MSG(round <= cfg_.fault_retry_limit,
                      "manager recovery query exhausted retries");
    if (round > 0) rt_.Delay(FaultBackoff(cfg_, round));
    stats_.Inc("dsm.recovery_queries",
               static_cast<std::int64_t>(unanswered.size()));
    TraceEv(trace::EventKind::kRecoveryQuery, trace::kNoPage, 0, 0,
            static_cast<std::int64_t>(unanswered.size()), round);
    auto acks = endpoint_.MultiCallWithStatus(unanswered, kOpRecoveryQuery,
                                              {}, net::MsgKind::kControl,
                                              DsmCallOpts());
    if (acks.status == net::CallStatus::kShutdown) return;
    std::set<std::size_t> timed_out(acks.timed_out.begin(),
                                    acks.timed_out.end());
    std::vector<net::HostId> next;
    for (std::size_t i = 0; i < unanswered.size(); ++i) {
      if (timed_out.count(i) != 0) {
        next.push_back(unanswered[i]);
        continue;
      }
      const base::Buffer flat = acks.replies[i].Flatten();
      base::WireReader r(flat.span());
      const std::uint16_t n = r.U16();
      for (std::uint16_t k = 0; k < n && r.ok(); ++k) {
        Claim c;
        c.page = r.U32();
        c.version = r.U64();
        c.access = AccessFromByte(r.U8());
        const std::uint8_t flags = r.U8();
        c.owned = (flags & 1) != 0;
        c.retained = (flags & 2) != 0;
        c.op_id = r.U64();
        c.op_is_write = r.U8() != 0;
        c.op_new_version = r.U64();
        c.host = unanswered[i];
        if (r.ok()) claims.push_back(c);
      }
      if (!r.ok()) stats_.Inc(kMalformed);
    }
    unanswered = std::move(next);
  }
  stats_.Inc("dsm.recovery_claims",
             static_cast<std::int64_t>(claims.size()));

  std::map<PageNum, std::vector<const Claim*>> by_page;
  for (const Claim& c : claims) {
    if (c.page < ptable_.num_pages() && dir_.BaseManagedHere(c.page)) {
      by_page[c.page].push_back(&c);
    }
  }
  struct Out {
    net::HostId dst = 0;
    PageNum p = 0;
    std::uint8_t mode = 0;
    std::uint64_t version = 0;
  };
  std::vector<Out> outs;
  // Pages reinitialized (referee OnReinit after the lock): quiet initial
  // restores and policy-reinitialized losses alike.
  std::vector<PageNum> reinits;
  std::vector<PageNum> rebuilt_pages;
  std::int64_t lost = 0;
  std::int64_t adopted = 0;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (life != life_) return;
    auto rebuild = [&](PageNum p, ManagerEntry& m) {
      m.busy = false;
      m.pending.clear();  // queued requesters re-send after their timeouts
      m.copyset.clear();
      const Claim* infl = nullptr;
      bool evidence = false;
      std::vector<const Claim*> valid;
      std::uint64_t vmax = 0;
      if (auto it = by_page.find(p); it != by_page.end()) {
        for (const Claim* c : it->second) {
          if (c->version > 0 || c->op_id != 0) evidence = true;
          if (c->access != Access::kNone || c->retained) {
            valid.push_back(c);
            vmax = std::max(vmax, c->version);
          }
          if (c->op_id != 0 && (infl == nullptr || c->op_id > infl->op_id)) {
            infl = c;
          }
        }
      }
      if (valid.empty() && infl == nullptr) {
        // No copy survives anywhere. Without evidence the page was simply
        // never shared (every page starts owned by its manager): restore
        // the initial placement quietly. With evidence, the whole history
        // died in the crash: the lost-page policy applies.
        if (evidence) {
          MERMAID_CHECK_MSG(
              cfg_.lost_page_policy == SystemConfig::LostPagePolicy::kReinitZero,
              "page lost in manager crash: every copy died");
          stats_.Inc("dsm.recovery_pages_lost");
          ++lost;
        }
        m.owner = self_;
        m.copyset.insert(self_);
        m.version = 0;
        LocalPageEntry& e = ptable_.Local(p);
        e.access = Access::kRead;
        e.owned = true;
        e.version = 0;
        e.retained = false;
        e.type = m.type;
        e.alloc_bytes = m.alloc_bytes;
        const std::size_t base = static_cast<std::size_t>(p) * page_bytes_;
        const std::size_t end =
            std::min<std::size_t>(base + page_bytes_, mem_.size());
        std::fill(mem_.begin() + base, mem_.begin() + end, 0);
        reinits.push_back(p);
        return;
      }
      rebuilt_pages.push_back(p);
      // Arbitrate the surviving copies: highest version wins; among those,
      // prefer a claimed owner-writer, then a claimed owner, then any live
      // copy, then a retained image; lowest host id breaks ties.
      auto rank = [](const Claim* c) {
        if (c->owned && c->access == Access::kWrite) return 3;
        if (c->owned) return 2;
        if (c->access != Access::kNone) return 1;
        return 0;
      };
      const bool adopt = infl != nullptr && infl->op_new_version >= vmax;
      const Claim* winner = nullptr;
      for (const Claim* c : valid) {
        if (c->version < vmax) continue;
        if (winner == nullptr || rank(c) > rank(winner) ||
            (rank(c) == rank(winner) && c->host < winner->host)) {
          winner = c;
        }
      }
      if (winner != nullptr) {
        m.owner = winner->host;
        m.version = vmax;
        for (const Claim* c : valid) {
          // The adopted in-flight grant's install depends on the local state
          // its claimant reported (a read copy to upgrade, a retained image
          // to re-animate). A drop/downgrade would wipe that state out from
          // under the pending install — leave the claimant alone and let
          // the transfer's confirm settle owner and copyset.
          const bool pending_install = adopt && c->host == infl->host;
          if (c->version < vmax) {
            // Stale copy: drop it (and any retained image with it).
            if (!pending_install) outs.push_back({c->host, p, 0, vmax});
            continue;
          }
          if (c == winner) {
            m.copyset.insert(c->host);
            outs.push_back({c->host, p, 2, vmax});
            continue;
          }
          if (c->access == Access::kNone) {
            // A retained image that lost the arbitration is a dangling
            // pre-crash grant artifact: clear it.
            if (!pending_install) outs.push_back({c->host, p, 0, vmax});
            continue;
          }
          m.copyset.insert(c->host);
          if (c->owned || c->access == Access::kWrite) {
            // Duplicate owner/writer: downgrade and disown, keep the copy.
            if (!pending_install) outs.push_back({c->host, p, 1, vmax});
          }
        }
      }
      if (adopt) {
        // A host holds a decoded-but-unconfirmed grant for this page: adopt
        // it as the busy transfer so its confirm commits normally (or the
        // janitor probes it out if the claimant died meanwhile).
        if (winner == nullptr) {
          m.owner = infl->host;
          m.version = infl->op_new_version;
        }
        MarkBusyLocked(p, m, infl->op_id, infl->host, infl->op_is_write,
                       infl->op_new_version);
        ++adopted;
        stats_.Inc("dsm.recovery_inflight_adopted");
      }
    };
    dir_.ForEachManaged(rebuild);
    // Referee notification stays under the lock: a crash cannot interpose
    // between the wipe check above and the reinit becoming visible (the
    // wipe itself needs state_mu_), so the referee never records a reinit
    // from a life that has already been wiped away.
    for (PageNum p : reinits) {
      if (referee_ != nullptr) referee_->OnReinit(self_, p, 0);
    }
  }
  for (PageNum p : rebuilt_pages) {
    TraceEv(trace::EventKind::kRecoveryRebuild, p, 0, 0);
  }

  // Apply the arbitration on the claimants. Reliable delivery matters for
  // modes 0/1 (a missed demote leaves a stale owner or duplicate writer
  // behind), so each batch is a bounded-retry call, skipped only when the
  // destination itself died (amnesia voids the demote anyway).
  std::map<net::HostId, std::vector<Out>> by_dst;
  for (const Out& o : outs) by_dst[o.dst].push_back(o);
  for (const auto& [dst, cmds] : by_dst) {
    base::WireWriter w;
    w.U16(static_cast<std::uint16_t>(cmds.size()));
    for (const Out& o : cmds) {
      w.U32(o.p);
      w.U8(o.mode);
      w.U64(o.version);
    }
    const net::Body body = std::move(w).Take();
    for (int round = 0;; ++round) {
      {
        std::lock_guard<std::mutex> lk(state_mu_);
        if (life != life_) return;
      }
      if (net_.HostDown(dst, rt_.Now())) break;
      MERMAID_CHECK_MSG(round <= cfg_.fault_retry_limit,
                        "recovery demote exhausted retries");
      if (round > 0) rt_.Delay(FaultBackoff(cfg_, round));
      auto res = endpoint_.CallWithStatus(dst, kOpRecoveryDemote, body,
                                          net::MsgKind::kControl,
                                          DsmCallOpts());
      if (res.status != net::CallStatus::kTimedOut) break;
    }
  }
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (life != life_) return;
    recovering_ = false;
  }
  stats_.Hist("dsm.recovery_ms", ToMillis(rt_.Now() - t0));
  TraceEv(trace::EventKind::kRecoveryDone, trace::kNoPage, 0, 0,
          static_cast<std::int64_t>(rebuilt_pages.size()), lost);
  (void)adopted;
}

}  // namespace mermaid::dsm
