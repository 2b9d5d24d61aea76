// The manager and owner roles (Li's fixed distributed manager, §2): the
// manager serializes transfers of the pages it manages (busy entry plus a
// pending queue, locked until the requester confirms) and issues grants;
// the owner serves page data, downgrading on a read fetch and
// relinquishing on a write fetch. Their request handlers run in the
// endpoint's rx daemon and never block.
#include "mermaid/dsm/host.h"

#include <algorithm>
#include <utility>

#include "mermaid/base/check.h"
#include "mermaid/base/wire.h"

namespace mermaid::dsm {

namespace {

// Stat keys this file bumps, resolved once (see base::StatKey).
const base::StatKey kBytesOut("dsm.bytes_out");
const base::StatKey kConvertCacheEvictions("dsm.convert_cache_evictions");
const base::StatKey kConvertCacheHits("dsm.convert_cache_hits");
const base::StatKey kConvertCacheMisses("dsm.convert_cache_misses");
const base::StatKey kConvertLossy("dsm.convert_lossy");
const base::StatKey kGrantExtends("dsm.grant_extends");
const base::StatKey kGrantRejects("dsm.grant_rejects");
const base::StatKey kGrantsDisowned("dsm.grants_disowned");
const base::StatKey kGrantsRevoked("dsm.grants_revoked");
const base::StatKey kInvalidationsReceived("dsm.invalidations_received");
const base::StatKey kMalformed("dsm.malformed");
const base::StatKey kOwnerLostDetected("dsm.owner_lost_detected");
const base::StatKey kPagesServed("dsm.pages_served");
const base::StatKey kRecoveryDroppedReqs("dsm.recovery_dropped_reqs");
const base::StatKey kStaleConfirms("dsm.stale_confirms");

}  // namespace

ManagerGrant Host::BuildGrantLocked(PageNum p, net::HostId requester,
                                    bool is_write, bool has_copy) {
  ManagerEntry& m = dir_.Manager(p);
  MERMAID_CHECK(!m.busy);
  ++mgr_grants_total_;
  ManagerGrant g;
  g.owner = m.owner;
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
    ctx.Reply(EncodeServeReply(p, t.requester, t.is_write, grant, data_version),
              net::MsgKind::kData);
    return;
  }
  // Forward to the owner (R -> M -> O of Table 4).
  const std::uint64_t fwd_ev =
      TraceEv(trace::EventKind::kManagerForward, p, grant.op_id,
              TraceParent(trace::OpKey(p, grant.op_id)), grant.owner,
              t.requester);
  TraceBind(trace::OpKey(p, grant.op_id), fwd_ev);
  ctx.Forward(grant.owner, EncodeOwnerFetch(p, grant));
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

net::Body Host::EncodeServeReply(PageNum p, net::HostId requester,
                                 bool is_write, const ManagerGrant& grant,
                                 std::uint64_t data_version) {
  const bool data_needed = !grant.requester_has_copy;
  FetchReply r;
  r.op_id = grant.op_id;
  r.data_version = data_version;
  r.new_version = grant.new_version;
  r.owner = self_;
  r.type = grant.type;
  r.alloc_bytes = grant.alloc_bytes;
  r.to_invalidate = grant.to_invalidate;
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
      extent = cfg_.partial_page_transfer
                   ? std::min(grant.alloc_bytes, page_bytes_)
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
      TraceEv(trace::EventKind::kOwnerServe, p, grant.op_id,
              TraceParent(trace::OpKey(p, grant.op_id)), extent,
              cache_hit ? 1 : 0);
  TraceBind(trace::OpKey(p, grant.op_id), serve_ev);

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
        const std::int64_t lossy =
            ConvertSlots(grant.type, img, extent, *profile_, req_prof);
        if (lossy > 0) stats_.Inc(kConvertLossy, lossy);
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
  // The fields EncodeOwnerFetch wrote (the owner is this host).
  base::WireReader r(ctx.body());
  r.U8();  // role
  const PageNum p = r.U32();
  ManagerGrant grant;
  grant.op_id = r.U64();
  grant.new_version = r.U64();
  grant.requester_has_copy = r.U8() == 0;  // the wire carries data_needed
  grant.type = r.U16();
  grant.alloc_bytes = r.U32();
  grant.to_invalidate.resize(r.U16());
  for (auto& h : grant.to_invalidate) h = r.U16();
  if (!r.ok() || p >= ptable_.num_pages()) {
    stats_.Inc(kMalformed);
    return;
  }
  rt_.Delay(profile_->server_op_cost);
  std::uint64_t data_version = 0;
  bool lost = false;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    const LocalPageEntry& e = std::as_const(ptable_).Local(p);
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
    TraceEv(trace::EventKind::kOwnerLost, p, grant.op_id,
            TraceParent(trace::OpKey(p, grant.op_id)), self_);
    FetchReply fr;
    fr.op_id = grant.op_id;
    fr.owner = self_;
    fr.owner_lost = true;
    ctx.Reply(EncodeFetchReply(fr));
    return;
  }
  ctx.Reply(EncodeServeReply(p, ctx.origin(), is_write, grant, data_version),
            grant.requester_has_copy ? net::MsgKind::kControl
                                     : net::MsgKind::kData);
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

void Host::ApplyTypeSet(PageNum p, arch::TypeId type,
                        std::uint32_t alloc_bytes) {
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

void Host::HandleTypeSet(net::RequestContext ctx) {
  // Every entry is checked before any is applied, so a bad batch is dropped
  // whole. Applying a forged one would make the page's transfers convert
  // with a type the allocator never set, or one the registry cannot size.
  const std::span<const std::uint8_t> body = ctx.body();
  base::WireReader r(body);
  const arch::TypeId type = r.U16();
  bool ok = ctx.origin() == 0 && body.size() > 2 &&
            (body.size() - 2) % 8 == 0 && registry_.IsValid(type);
  for (base::WireReader e = r; ok && e.remaining() > 0;) {
    const PageNum p = e.U32();
    const std::uint32_t alloc_bytes = e.U32();
    ok = p < ptable_.num_pages() && dir_.BaseManagedHere(p) &&
         alloc_bytes <= page_bytes_;
  }
  if (!ok) {
    stats_.Inc(kMalformed);
    return;
  }
  while (r.remaining() > 0) {
    const PageNum p = r.U32();
    ApplyTypeSet(p, type, r.U32());
  }
  ctx.Reply({});
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

}  // namespace mermaid::dsm
