#include "mermaid/sync/sync.h"

#include "mermaid/base/check.h"
#include "mermaid/base/wire.h"
#include "mermaid/dsm/types.h"

namespace mermaid::sync {

namespace {

// (origin, release_seq) pairs remembered for release idempotence.
constexpr std::size_t kMaxSeenReleases = 8192;
// Write notices retained for late acquirers; a client whose cursor falls
// off the front gets the reset flag and conservatively invalidates.
constexpr std::size_t kNoticeLogCapacity = 8192;

// Stat keys, resolved once (see base::StatKey). The release-consistency
// ones are bumped on every release.
const base::StatKey kRcDupReleases("sync.rc_dup_releases");
const base::StatKey kRcNoticeLogTruncated("sync.rc_notice_log_truncated");
const base::StatKey kRcNoticesRecorded("sync.rc_notices_recorded");
const base::StatKey kDeadWaitersDropped("sync.dead_waiters_dropped");
const base::StatKey kBrokenLocks("sync.broken_locks");
const base::StatKey kMalformed("sync.malformed");

}  // namespace

SyncServer::SyncServer(sim::Runtime& rt) : rt_(rt) {}

void SyncServer::Attach(net::Endpoint& ep) {
  ep.SetHandler(dsm::kOpSync,
                [this](net::RequestContext ctx) { Handle(std::move(ctx)); });
}

void SyncServer::Wake(Waiter& w) {
  if (!w.remote.has_value()) {
    w.local.Send(true);
    return;
  }
  if (!rc_ || !w.acquire) {
    w.remote->Reply({});
    return;
  }
  // Acquire reply: every notice recorded since the client's cursor — built
  // at wake time, so a P that parked through several releases returns with
  // all of them.
  std::vector<WriteNotice> notices;
  bool reset = false;
  const std::uint64_t latest = NoticesSince(w.last_seen, &notices, &reset);
  base::WireWriter wr;
  wr.U64(latest);
  wr.U8(reset ? 1 : 0);
  wr.U16(static_cast<std::uint16_t>(notices.size()));
  for (const auto& n : notices) {
    wr.U32(n.page);
    wr.U64(n.version);
    wr.U16(n.origin);
  }
  w.remote->Reply(std::move(wr).Take());
}

void SyncServer::RecordNotices(net::HostId origin, std::uint64_t release_seq,
                               const std::vector<WriteNotice>& notices) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!seen_releases_.insert({origin, release_seq}).second) {
    stats_.Inc(kRcDupReleases);
    return;
  }
  seen_release_order_.emplace_back(origin, release_seq);
  while (seen_release_order_.size() > kMaxSeenReleases) {
    seen_releases_.erase(seen_release_order_.front());
    seen_release_order_.pop_front();
  }
  for (const auto& n : notices) {
    if (notice_log_.size() >= kNoticeLogCapacity) {
      notice_log_.pop_front();
      stats_.Inc(kRcNoticeLogTruncated);
    }
    notice_log_.push_back(n);
    ++next_notice_seq_;
  }
  if (!notices.empty()) {
    stats_.Inc(kRcNoticesRecorded, static_cast<std::int64_t>(notices.size()));
  }
}

std::uint64_t SyncServer::NoticesSince(std::uint64_t last_seen,
                                       std::vector<WriteNotice>* out,
                                       bool* reset) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::uint64_t first = next_notice_seq_ - notice_log_.size();
  if (last_seen < first) {
    *reset = true;
    last_seen = first;
  }
  for (std::uint64_t s = last_seen; s < next_notice_seq_; ++s) {
    out->push_back(notice_log_[static_cast<std::size_t>(s - first)]);
  }
  return next_notice_seq_;
}

void SyncServer::Handle(net::RequestContext ctx) {
  base::WireReader r(ctx.body());
  const std::uint8_t subop = r.U8();
  const SyncId id = r.U64();
  const std::int64_t arg = r.I64();
  if (!r.ok()) return;
  if (subop < kSemInit || subop > kBarrier) {
    stats_.Inc(kMalformed);  // no reply: the caller times out
    return;
  }

  Waiter self;
  self.origin = ctx.origin();
  if (rc_) {
    // Release block (present on every RC client's request): cursor, release
    // seq, and the notices of this release. Recorded before ApplyLocked so
    // any waiter this op wakes sees them in its acquire reply.
    const std::uint64_t last_seen = r.U64();
    const std::uint64_t release_seq = r.U64();
    const std::uint16_t n = r.U16();
    std::vector<WriteNotice> notices;
    notices.reserve(n);
    for (std::uint16_t i = 0; i < n && r.ok(); ++i) {
      WriteNotice wn;
      wn.page = r.U32();
      wn.version = r.U64();
      wn.origin = r.U16();
      notices.push_back(wn);
    }
    if (!r.ok()) return;
    self.last_seen = last_seen;
    self.acquire =
        subop == kSemP || subop == kEventWait || subop == kBarrier;
    RecordNotices(self.origin, release_seq, notices);
  }
  self.remote = std::move(ctx);
  std::vector<Waiter> release;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ApplyLocked(subop, id, arg, std::move(self), &release);
  }
  for (auto& w : release) Wake(w);
}

// Contract: if the issuing party proceeds immediately, ApplyLocked pushes
// `self` onto `release` (so it is woken/replied like any other waiter) and
// returns true; if the party must wait, `self` is parked inside the state
// and the function returns false.
bool SyncServer::ApplyLocked(std::uint8_t subop, SyncId id, std::int64_t arg,
                             Waiter&& self, std::vector<Waiter>* release) {
  switch (subop) {
    case kSemInit: {
      Sem& s = sems_[id];
      s.count = arg;
      MERMAID_CHECK_MSG(s.waiters.empty(),
                        "semaphore re-initialized while threads wait on it");
      release->push_back(std::move(self));
      return true;
    }
    case kSemP: {
      Sem& s = sems_[id];
      if (s.count > 0) {
        --s.count;
        s.holders.insert(self.origin);
        release->push_back(std::move(self));
        return true;
      }
      s.waiters.push_back(std::move(self));
      return false;
    }
    case kSemV: {
      Sem& s = sems_[id];
      // A V normally releases the issuer's own hold; when used as a pure
      // signal (no prior P from this host) there is no hold to clear.
      auto hold = s.holders.find(self.origin);
      if (hold != s.holders.end()) s.holders.erase(hold);
      if (!s.waiters.empty()) {
        s.holders.insert(s.waiters.front().origin);
        release->push_back(std::move(s.waiters.front()));
        s.waiters.pop_front();
      } else {
        ++s.count;
      }
      release->push_back(std::move(self));
      return true;
    }
    case kEventSet: {
      Event& e = events_[id];
      e.set = true;
      for (auto& w : e.waiters) release->push_back(std::move(w));
      e.waiters.clear();
      release->push_back(std::move(self));
      return true;
    }
    case kEventClear: {
      events_[id].set = false;
      release->push_back(std::move(self));
      return true;
    }
    case kEventWait: {
      Event& e = events_[id];
      if (e.set) {
        release->push_back(std::move(self));
        return true;
      }
      e.waiters.push_back(std::move(self));
      return false;
    }
    case kBarrier: {
      Barrier& b = barriers_[id];
      b.waiters.push_back(std::move(self));
      if (static_cast<std::int64_t>(b.waiters.size()) >= arg) {
        for (auto& w : b.waiters) release->push_back(std::move(w));
        b.waiters.clear();
        return true;
      }
      return false;
    }
    default:
      MERMAID_CHECK_MSG(false, "unknown sync subop");
  }
  return false;
}

// Local-path implementation: run the op against the server state directly;
// if parked, block on the local grant channel.
#define MERMAID_SYNC_LOCAL(subop_, id_, arg_)                             \
  do {                                                                    \
    Waiter self;                                                          \
    self.local = sim::Chan<bool>(rt_);                                    \
    sim::Chan<bool> wait_chan = self.local;                               \
    std::vector<Waiter> release;                                          \
    bool proceed;                                                         \
    {                                                                     \
      std::lock_guard<std::mutex> lk(mu_);                                \
      proceed = ApplyLocked((subop_), (id_), (arg_), std::move(self),     \
                            &release);                                    \
    }                                                                     \
    for (auto& w : release) Wake(w);                                      \
    if (!proceed) wait_chan.Recv();                                       \
  } while (false)

void SyncServer::LocalSemInit(SyncId id, std::int64_t value) {
  MERMAID_SYNC_LOCAL(kSemInit, id, value);
}
void SyncServer::LocalP(SyncId id) { MERMAID_SYNC_LOCAL(kSemP, id, 0); }
void SyncServer::LocalV(SyncId id) { MERMAID_SYNC_LOCAL(kSemV, id, 0); }
void SyncServer::LocalEventSet(SyncId id) {
  MERMAID_SYNC_LOCAL(kEventSet, id, 0);
}
void SyncServer::LocalEventClear(SyncId id) {
  MERMAID_SYNC_LOCAL(kEventClear, id, 0);
}
void SyncServer::LocalEventWait(SyncId id) {
  MERMAID_SYNC_LOCAL(kEventWait, id, 0);
}
void SyncServer::LocalBarrier(SyncId id, std::int64_t parties) {
  MERMAID_SYNC_LOCAL(kBarrier, id, parties);
}

#undef MERMAID_SYNC_LOCAL

void SyncServer::BreakHost(net::HostId h) {
  std::vector<Waiter> release;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& [id, s] : sems_) {
      // Ghost waiters go first, so a force-released grant can never be
      // consumed by a request whose issuer no longer exists.
      const auto dropped = std::erase_if(
          s.waiters, [h](const Waiter& w) { return w.origin == h; });
      if (dropped != 0) {
        stats_.Inc(kDeadWaitersDropped, static_cast<std::int64_t>(dropped));
      }
      auto broken = s.holders.count(h);
      if (broken == 0) continue;
      s.holders.erase(h);
      // Each broken hold is a forced V: hand the grant to the next live
      // waiter, or return it to the count.
      while (broken-- > 0) {
        stats_.Inc(kBrokenLocks);
        if (!s.waiters.empty()) {
          s.holders.insert(s.waiters.front().origin);
          release.push_back(std::move(s.waiters.front()));
          s.waiters.pop_front();
        } else {
          ++s.count;
        }
      }
    }
    for (auto& [id, e] : events_) {
      const auto dropped = std::erase_if(
          e.waiters, [h](const Waiter& w) { return w.origin == h; });
      if (dropped != 0) {
        stats_.Inc(kDeadWaitersDropped, static_cast<std::int64_t>(dropped));
      }
    }
    // A dead barrier arrival is forgotten: the restarted host's thread must
    // arrive again for the barrier to complete.
    for (auto& [id, b] : barriers_) {
      const auto dropped = std::erase_if(
          b.waiters, [h](const Waiter& w) { return w.origin == h; });
      if (dropped != 0) {
        stats_.Inc(kDeadWaitersDropped, static_cast<std::int64_t>(dropped));
      }
    }
  }
  for (auto& w : release) Wake(w);
}

Client::Client(net::Endpoint* ep, net::HostId server_host, SyncServer* local)
    : ep_(ep), server_host_(server_host), local_(local) {}

void Client::Trace(std::uint8_t subop, SyncId id) {
  if (tracer_ == nullptr || !tracer_->enabled() || ep_ == nullptr) return;
  tracer_->Record(trace::EventKind::kSyncOp, ep_->self(),
                  ep_->runtime().Now(), trace::kNoPage, id, 0, subop,
                  server_host_);
}

void Client::Op(std::uint8_t subop, SyncId id, std::int64_t arg) {
  Trace(subop, id);
  const bool rc = static_cast<bool>(rc_flush_);
  const bool acquire = subop == SyncServer::kSemP ||
                       subop == SyncServer::kEventWait ||
                       subop == SyncServer::kBarrier;
  std::vector<WriteNotice> notices;
  std::uint64_t release_seq = 0;
  if (rc) {
    // Every sync op is a release point: the host's deferred writes must be
    // visible at their homes before any party this op unblocks acquires.
    notices = rc_flush_();
    release_seq = ++release_seq_;
  }
  if (local_ != nullptr) {
    if (rc) local_->RecordNotices(ep_->self(), release_seq, notices);
    switch (subop) {
      case SyncServer::kSemInit: local_->LocalSemInit(id, arg); break;
      case SyncServer::kSemP: local_->LocalP(id); break;
      case SyncServer::kSemV: local_->LocalV(id); break;
      case SyncServer::kEventSet: local_->LocalEventSet(id); break;
      case SyncServer::kEventClear: local_->LocalEventClear(id); break;
      case SyncServer::kEventWait: local_->LocalEventWait(id); break;
      case SyncServer::kBarrier: local_->LocalBarrier(id, arg); break;
      default: MERMAID_CHECK_MSG(false, "unknown sync subop");
    }
    if (rc && acquire) {
      // Read the log only after the wait: a waiter woken by a V must see
      // the releaser's notices, which were recorded before the wake.
      std::vector<WriteNotice> pending;
      bool reset = false;
      last_seen_ = local_->NoticesSince(last_seen_, &pending, &reset);
      rc_apply_(pending, reset);
    }
    return;
  }
  Issue(subop, id, arg, rc && acquire, release_seq, notices);
}

void Client::Issue(std::uint8_t subop, SyncId id, std::int64_t arg,
                   bool acquire, std::uint64_t release_seq,
                   const std::vector<WriteNotice>& notices) {
  MERMAID_CHECK(ep_ != nullptr);
  net::Endpoint::CallOpts opts;
  opts.timeout = Milliseconds(500);
  opts.max_attempts = 1 << 20;  // a parked P may wait arbitrarily long
  base::WireWriter w;
  w.U8(subop);
  w.U64(id);
  w.I64(arg);
  if (rc_flush_) {
    MERMAID_CHECK(notices.size() <= 0xFFFF);
    w.U64(last_seen_);
    w.U64(release_seq);
    w.U16(static_cast<std::uint16_t>(notices.size()));
    for (const auto& n : notices) {
      w.U32(n.page);
      w.U64(n.version);
      w.U16(n.origin);
    }
  }
  const std::uint32_t inc0 = ep_->incarnation();
  auto r = ep_->CallWithStatus(server_host_, dsm::kOpSync,
                               std::move(w).Take(),
                               net::MsgKind::kControl, opts);
  // A call fenced by this host's own crash-with-amnesia is abandoned, not
  // an error: the issuing life is gone, and the server either applied the
  // op before the crash or broke the hold when the crash was reported.
  if (r.status == net::CallStatus::kTimedOut && ep_->incarnation() != inc0) {
    return;
  }
  // Shutdown unwinds silently; anything else losing a sync op would corrupt
  // the application's synchronization invariants, so fail loudly.
  MERMAID_CHECK_MSG(r.status != net::CallStatus::kTimedOut,
                    "sync operation timed out: sync server unreachable");
  if (r.ok() && acquire) {
    const std::vector<std::uint8_t> body = r.body.ToVector();
    base::WireReader rr(body);
    const std::uint64_t latest = rr.U64();
    const bool reset = rr.U8() != 0;
    const std::uint16_t n = rr.U16();
    std::vector<WriteNotice> pending;
    pending.reserve(n);
    for (std::uint16_t i = 0; i < n && rr.ok(); ++i) {
      WriteNotice wn;
      wn.page = rr.U32();
      wn.version = rr.U64();
      wn.origin = rr.U16();
      pending.push_back(wn);
    }
    MERMAID_CHECK_MSG(rr.ok(), "malformed sync acquire reply");
    // A deduplicated retransmit replays the original reply; the cursor only
    // ever moves forward.
    if (latest > last_seen_) last_seen_ = latest;
    rc_apply_(pending, reset);
  }
}

void Client::SemInit(SyncId id, std::int64_t value) {
  Op(SyncServer::kSemInit, id, value);
}
void Client::P(SyncId id) { Op(SyncServer::kSemP, id, 0); }
void Client::V(SyncId id) { Op(SyncServer::kSemV, id, 0); }
void Client::EventSet(SyncId id) { Op(SyncServer::kEventSet, id, 0); }
void Client::EventClear(SyncId id) { Op(SyncServer::kEventClear, id, 0); }
void Client::EventWait(SyncId id) { Op(SyncServer::kEventWait, id, 0); }
void Client::Barrier(SyncId id, std::int64_t parties) {
  Op(SyncServer::kBarrier, id, parties);
}

}  // namespace mermaid::sync
