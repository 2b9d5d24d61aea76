// The fault path (application processes): a typed access without enough
// access pays the Table-1 handler cost, obtains a transfer grant from the
// page's manager (locally, or by a protocol Call), fetches the page from
// its owner, converts it, invalidates the other copies on a write, and
// confirms the transfer. Also the bounded retry loop and backoff that the
// fault path shares with crash recovery.
#include "mermaid/dsm/host.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <utility>

#include "mermaid/base/check.h"
#include "mermaid/base/wire.h"

namespace mermaid::dsm {

namespace {

// Stat keys this file bumps, resolved once (see base::StatKey).
const base::StatKey kBytesIn("dsm.bytes_in");
const base::StatKey kDeadEpochGrants("dsm.dead_epoch_grants");
const base::StatKey kFaultDelayMs("dsm.fault_delay_ms");
const base::StatKey kFaultHandlingRMs("dsm.fault_handling_r_ms");
const base::StatKey kFaultHandlingWMs("dsm.fault_handling_w_ms");
const base::StatKey kFaultHops("dsm.fault_hops");
const base::StatKey kFaultRetries("dsm.fault_retries");
const base::StatKey kFaultServiceMs("dsm.fault_service_ms");
const base::StatKey kFencedReplies("dsm.fenced_replies");
const base::StatKey kFencedTransfers("dsm.fenced_transfers");
const base::StatKey kInvalidateFanout("dsm.invalidate_fanout");
const base::StatKey kInvalidationRetries("dsm.invalidation_retries");
const base::StatKey kInvalidationsSent("dsm.invalidations_sent");
const base::StatKey kMalformed("dsm.malformed");
const base::StatKey kManagerCallTimeouts("dsm.manager_call_timeouts");
const base::StatKey kOwnerFetchTimeouts("dsm.owner_fetch_timeouts");
const base::StatKey kOwnerLostDetected("dsm.owner_lost_detected");
const base::StatKey kOwnerLostObserved("dsm.owner_lost_observed");
const base::StatKey kPagesIn("dsm.pages_in");
const base::StatKey kReadFaults("dsm.read_faults");
const base::StatKey kStaleDatalessGrants("dsm.stale_dataless_grants");
const base::StatKey kUpgrades("dsm.upgrades");
const base::StatKey kVmFaultHops("dsm.vm_fault_hops");
const base::StatKey kVmFaultRtts("dsm.vm_fault_rtts");
const base::StatKey kVmFaults("dsm.vm_faults");
const base::StatKey kWriteFaults("dsm.write_faults");

}  // namespace

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
        rt_.Delay(FaultBackoff(retries));
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
    auto resp = endpoint_.CallWithStatus(grant.owner,
                                         is_write ? kOpWriteReq : kOpReadReq,
                                         EncodeOwnerFetch(p, grant),
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
    std::optional<FetchReply> decoded = DecodeFetchReply(resp.body);
    if (!decoded.has_value()) {
      // Not a fetch reply (any host can answer our req_id): drop it, free
      // our own grant and refault.
      stats_.Inc(kMalformed);
      ManagerRevoke(p, grant.op_id);
      return FaultOutcome::kRetry;
    }
    reply = std::move(*decoded);
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
  std::optional<FetchReply> decoded = DecodeFetchReply(resp.body);
  if (!decoded.has_value()) {
    // Not a fetch reply (any host can answer our req_id): drop it and
    // refault. A grant issued for this call is never confirmed, so the
    // manager's probe/lease machinery reclaims it.
    stats_.Inc(kMalformed);
    return FaultOutcome::kRetry;
  }
  const FetchReply& reply = *decoded;
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
    if (FencedLocked(p, reply.op_id, life)) {
      // Either we disowned this grant when a confirm-probe caught us
      // without it (the manager revoked it), or we crashed while this reply
      // was in flight. In the second case the wipe already cleared
      // inflight_ops_; registering now would plant a phantom op in the
      // fresh incarnation that answers confirm-probes "still working"
      // forever and gets adopted as busy by manager rebuilds. Either way
      // the reply must not be installed; the manager reclaims the grant.
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
      if (FencedLocked(p, reply.op_id, life)) return fenced();
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
      if (FencedLocked(p, reply.op_id, life)) return fenced();
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
  } else {
    // A grant without data means we hold a valid copy: a read grant keeps
    // it, a write grant upgrades it to ownership in place. It may be a copy
    // we relinquished in a transfer the manager has since revoked (on a
    // write we are still the owner of record); the retained bytes are the
    // current version, so re-animate them.
    std::lock_guard<std::mutex> lk(state_mu_);
    if (FencedLocked(p, reply.op_id, life)) return fenced();
    LocalPageEntry& e = ptable_.Local(p);
    if (e.access == Access::kNone && e.retained) {
      e.access = Access::kRead;
      e.retained = false;
      if (referee_ != nullptr) {
        referee_->OnInstall(self_, p, e.version, Access::kRead);
      }
    }
    if (e.access == Access::kNone) {
      // The grant trusted a has_copy claim that a crash or a revoked write
      // made stale: there is nothing here to re-animate or upgrade. Discard
      // the grant (the caller frees it at the manager) and refault with the
      // truth.
      MERMAID_CHECK_MSG(
          cfg_.crash_recovery,
          is_write ? "write upgrade granted to a host without a copy"
                   : "read grant without data to a host without a copy");
      FenceOpLocked(p, reply.op_id);
      inflight_ops_.erase({p, reply.op_id});
      stats_.Inc(kStaleDatalessGrants);
      return TransferResult::kRejected;
    }
    if (is_write) stats_.Inc(kUpgrades);
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

bool Host::FencedLocked(PageNum p, std::uint64_t op_id,
                        std::uint32_t life) const {
  return life != life_ || fenced_.count({p, op_id}) != 0;
}

bool Host::FinalizeWrite(PageNum p, const FetchReply& reply,
                         std::uint32_t life) {
  std::lock_guard<std::mutex> lk(state_mu_);
  if (FencedLocked(p, reply.op_id, life)) {
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
  // Write access must not be granted until every copy is gone: re-multicast
  // to the targets that did not ack, and abort loudly if a copy holder
  // stays unreachable past the retry budget.
  return CallUntilAnswered(
      std::move(targets), kOpInvalidate, std::move(w).Take(),
      "invalidation multicast exhausted retries", /*life=*/std::nullopt,
      [&](int round, const std::vector<net::HostId>& dsts) {
        if (round > 0) stats_.Inc(kInvalidationRetries);
        stats_.Inc(kInvalidationsSent, static_cast<std::int64_t>(dsts.size()));
        const std::uint64_t inv_ev =
            TraceEv(trace::EventKind::kInvalidateSend, p, op_id, parent_ev,
                    static_cast<std::int64_t>(dsts.size()), round);
        TraceBind(trace::InvKey(p), inv_ev);
      },
      /*answered=*/nullptr);
}

bool Host::CallUntilAnswered(
    std::vector<net::HostId> dsts, std::uint8_t op, const net::Body& body,
    const char* what, std::optional<std::uint32_t> life,
    const std::function<void(int, const std::vector<net::HostId>&)>& sending,
    const std::function<void(net::HostId, const base::BufferChain&)>&
        answered) {
  for (int round = 0;; ++round) {
    if (life.has_value()) {
      std::lock_guard<std::mutex> lk(state_mu_);
      if (*life != life_) return false;
    }
    if (cfg_.crash_recovery) {
      // A down host's state died with it (crash-with-amnesia): skip it
      // rather than burning the retry budget against silence.
      std::erase_if(dsts,
                    [&](net::HostId h) { return net_.HostDown(h, rt_.Now()); });
    }
    if (dsts.empty()) return true;
    MERMAID_CHECK_MSG(round <= cfg_.fault_retry_limit, what);
    if (round > 0) rt_.Delay(FaultBackoff(round));
    if (sending) sending(round, dsts);
    auto acks = endpoint_.MultiCallWithStatus(dsts, op, body,
                                              net::MsgKind::kControl,
                                              DsmCallOpts());
    if (acks.status == net::CallStatus::kShutdown) return false;
    // acks.timed_out lists the silent destinations in ascending order.
    std::vector<net::HostId> silent;
    auto next_silent = acks.timed_out.begin();
    for (std::size_t i = 0; i < dsts.size(); ++i) {
      if (next_silent != acks.timed_out.end() && *next_silent == i) {
        silent.push_back(dsts[i]);
        ++next_silent;
      } else if (answered) {
        answered(dsts[i], acks.replies[i]);
      }
    }
    dsts = std::move(silent);
  }
}

SimDuration Host::FaultBackoff(int round) {
  constexpr SimDuration kFaultRetryBackoff = Milliseconds(50);
  constexpr SimDuration kCap = Seconds(2);
  SimDuration d = kFaultRetryBackoff;
  for (int i = 1; i < round && d < kCap; ++i) d *= 2;
  return std::min(d, kCap);
}

}  // namespace mermaid::dsm
