// Crash-stop recovery (DESIGN.md §7): the crash-with-amnesia wipe, the
// dead-owner repair and lost-page policy, and the rebuild of a restarted
// manager's entries from the claims of every live host.
#include "mermaid/dsm/host.h"

#include <algorithm>
#include <map>
#include <utility>

#include "mermaid/base/check.h"
#include "mermaid/base/wire.h"

namespace mermaid::dsm {

namespace {

// Stat keys this file bumps, resolved once (see base::StatKey). The rarer
// recovery counters are bumped by name.
const base::StatKey kMalformed("dsm.malformed");
const base::StatKey kRecoveryDroppedReqs("dsm.recovery_dropped_reqs");

// One host's claim on a page, as a restarted manager gathers them
// (kOpRecoveryQuery replies). `host` is the claimant; the receiver fills
// it in.
struct Claim {
  PageNum page = 0;
  std::uint64_t version = 0;
  Access access = Access::kNone;
  bool owned = false;
  bool retained = false;
  // The highest-id grant the claimant has decoded but not confirmed (0 =
  // none): its kind and the version it installs.
  std::uint64_t op_id = 0;
  bool op_is_write = false;
  std::uint64_t op_new_version = 0;
  net::HostId host = 0;

  void Encode(base::WireWriter& w) const {
    w.U32(page);
    w.U64(version);
    w.U8(static_cast<std::uint8_t>(access));
    w.U8(static_cast<std::uint8_t>((owned ? 1 : 0) | (retained ? 2 : 0)));
    w.U64(op_id);
    w.U8(op_is_write ? 1 : 0);
    w.U64(op_new_version);
  }

  // Reads one claim by `host`; valid only while r.ok().
  static Claim Decode(base::WireReader& r, net::HostId host) {
    Claim c;
    c.page = r.U32();
    c.version = r.U64();
    const std::uint8_t access = r.U8();
    c.access = access == 2   ? Access::kWrite
               : access == 1 ? Access::kRead
                             : Access::kNone;
    const std::uint8_t flags = r.U8();
    c.owned = (flags & 1) != 0;
    c.retained = (flags & 2) != 0;
    c.op_id = r.U64();
    c.op_is_write = r.U8() != 0;
    c.op_new_version = r.U64();
    c.host = host;
    return c;
  }
};

// One command of a kOpRecoveryDemote batch: what a claimant must do with
// its copy of `page` after a manager's rebuild or a dead-owner repair.
struct Demote {
  static constexpr std::uint8_t kDrop = 0;       // lost the arbitration
  static constexpr std::uint8_t kDowngrade = 1;  // keep it read-only, disowned
  static constexpr std::uint8_t kPromote = 2;    // become the owner
  PageNum page = 0;
  std::uint8_t mode = kDrop;
  std::uint64_t version = 0;
};

net::Body EncodeDemotes(const std::vector<Demote>& cmds) {
  base::WireWriter w;
  w.U16(static_cast<std::uint16_t>(cmds.size()));
  for (const Demote& d : cmds) {
    w.U32(d.page);
    w.U8(d.mode);
    w.U64(d.version);
  }
  return std::move(w).Take();
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
      ReinitLostPageLocked(p, m);
      DropConvertCacheLocked(p);
      reinit = true;
    }
  }
  if (reinit) {
    TraceEv(trace::EventKind::kRecoveryLost, p, op_id, 0, dead_owner);
  } else {
    TraceEv(trace::EventKind::kRecoveryDemote, p, op_id, 0, new_owner,
            Demote::kPromote);
    if (promote_remote) {
      // Fire-and-forget: the promotion only flips the new owner's `owned`
      // bit (its copy is already live), so a lost notify costs an extra
      // manager hop later, never correctness.
      endpoint_.Notify(new_owner, kOpRecoveryDemote,
                       EncodeDemotes({{p, Demote::kPromote, promote_version}}));
    }
  }
  if (drain) ManagerDrain(p);
}

void Host::ReinitLostPageLocked(PageNum p, ManagerEntry& m) {
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
  if (referee_ != nullptr) referee_->OnReinit(self_, p, 0);
}

void Host::HandleRecoveryQuery(net::RequestContext ctx) {
  // The query covers every page the querying host manages.
  const net::HostId mgr = ctx.origin();
  rt_.Delay(profile_->server_op_cost);
  std::vector<Claim> claims;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    auto emit = [&](PageNum p) {
      const LocalPageEntry& e = std::as_const(ptable_).Local(p);
      Claim c;
      c.page = p;
      c.version = e.version;
      c.access = e.access;
      if (cfg_.release_consistency && e.access == Access::kWrite) {
        // Under release consistency a write-accessible page is a local twin
        // (or home-dirty): the manager of record never granted write
        // ownership, so claim it as a read copy at its base version — the
        // rebuilt entry must not adopt a deferred-write buffer as owner.
        c.access = Access::kRead;
      }
      c.owned = e.owned;
      c.retained = e.retained;
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
      if (c.version == 0 && c.access == Access::kNone && !c.owned &&
          !c.retained && c.op_id == 0) {
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
  for (const Claim& c : claims) c.Encode(w);
  ctx.Reply(std::move(w).Take());
}

void Host::HandleRecoveryDemote(net::RequestContext ctx) {
  base::WireReader r(ctx.body());
  const std::uint16_t n = r.U16();
  std::vector<Demote> cmds(n);
  for (Demote& c : cmds) {
    c.page = r.U32();
    c.mode = r.U8();
    c.version = r.U64();
  }
  if (!r.ok()) {
    stats_.Inc(kMalformed);
    return;
  }
  rt_.Delay(profile_->server_op_cost);
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    for (const Demote& c : cmds) {
      if (c.page >= ptable_.num_pages()) continue;
      LocalPageEntry& e = ptable_.Local(c.page);
      if (c.mode == Demote::kDrop || c.mode == Demote::kDowngrade) {
        // A drop/downgrade proves the rebuilt manager did NOT adopt any
        // grant we have decoded for this page (adopted claimants are never
        // demoted): fence those ops so their pending installs are discarded
        // instead of resurrecting the demoted state, and let the fault path
        // retry against the rebuilt manager.
        for (auto it = inflight_ops_.lower_bound({c.page, 0});
             it != inflight_ops_.end() && it->first.first == c.page;) {
          FenceOpLocked(it->first.first, it->first.second);
          it = inflight_ops_.erase(it);
        }
      }
      if (c.mode == Demote::kDrop) {
        // This copy lost the rebuild arbitration (stale version, demoted
        // duplicate, or a dangling retained image).
        if (e.access != Access::kNone) {
          if (referee_ != nullptr) referee_->OnInvalidate(self_, c.page);
          stats_.Inc("dsm.recovery_demotions");
        }
        e.access = Access::kNone;
        e.owned = false;
        e.retained = false;
        DropConvertCacheLocked(c.page);
      } else if (c.mode == Demote::kDowngrade) {
        // Ownership moved elsewhere; the copy stays readable.
        if (e.access == Access::kWrite) {
          e.access = Access::kRead;
          if (referee_ != nullptr) referee_->OnDowngrade(self_, c.page);
          stats_.Inc("dsm.recovery_demotions");
        }
        e.owned = false;
      } else if (c.mode == Demote::kPromote) {
        // This host is the rebuilt owner. A retained pre-crash image is
        // re-animated as the live copy; a write grant is conservatively
        // downgraded (the rebuild leaves no page writable, so MRSW holds
        // by construction through the heal).
        if (e.access == Access::kNone && e.retained) {
          e.access = Access::kRead;
          e.retained = false;
          if (referee_ != nullptr) {
            referee_->OnInstall(self_, c.page, e.version, Access::kRead);
          }
        } else if (e.access == Access::kWrite) {
          e.access = Access::kRead;
          if (referee_ != nullptr) referee_->OnDowngrade(self_, c.page);
        }
        if (e.access != Access::kNone) {
          e.owned = true;
          stats_.Inc("dsm.recovery_promotions");
        }
      }
      TraceEv(trace::EventKind::kRecoveryDemote, c.page, 0, 0, ctx.origin(),
              c.mode);
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
  std::vector<Claim> claims;
  std::vector<net::HostId> others;
  for (net::HostId h = 0; h < num_hosts_; ++h) {
    if (h != self_) others.push_back(h);
  }
  // A host that is down restarts with amnesia: it has nothing to claim, so
  // the retry loop counts it as answered-empty.
  const bool gathered = CallUntilAnswered(
      std::move(others), kOpRecoveryQuery, net::Body{},
      "manager recovery query exhausted retries", life,
      [&](int round, const std::vector<net::HostId>& dsts) {
        stats_.Inc("dsm.recovery_queries",
                   static_cast<std::int64_t>(dsts.size()));
        TraceEv(trace::EventKind::kRecoveryQuery, trace::kNoPage, 0, 0,
                static_cast<std::int64_t>(dsts.size()), round);
      },
      [&](net::HostId h, const base::BufferChain& reply) {
        const base::Buffer flat = reply.Flatten();
        base::WireReader r(flat.span());
        const std::uint16_t n = r.U16();
        for (std::uint16_t k = 0; k < n && r.ok(); ++k) {
          const Claim c = Claim::Decode(r, h);
          if (r.ok()) claims.push_back(c);
        }
        if (!r.ok()) stats_.Inc(kMalformed);
      });
  if (!gathered) return;
  stats_.Inc("dsm.recovery_claims",
             static_cast<std::int64_t>(claims.size()));

  std::map<PageNum, std::vector<const Claim*>> by_page;
  for (const Claim& c : claims) {
    if (c.page < ptable_.num_pages() && dir_.BaseManagedHere(c.page)) {
      by_page[c.page].push_back(&c);
    }
  }
  std::map<net::HostId, std::vector<Demote>> demotes;  // by claimant
  std::vector<PageNum> rebuilt_pages;
  std::int64_t lost = 0;
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
        ReinitLostPageLocked(p, m);
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
          const auto demote = [&](std::uint8_t mode) {
            if (!pending_install) demotes[c->host].push_back({p, mode, vmax});
          };
          if (c->version < vmax) {
            // Stale copy: drop it (and any retained image with it).
            demote(Demote::kDrop);
            continue;
          }
          if (c == winner) {
            m.copyset.insert(c->host);
            demotes[c->host].push_back({p, Demote::kPromote, vmax});
            continue;
          }
          if (c->access == Access::kNone) {
            // A retained image that lost the arbitration is a dangling
            // pre-crash grant artifact: clear it.
            demote(Demote::kDrop);
            continue;
          }
          m.copyset.insert(c->host);
          if (c->owned || c->access == Access::kWrite) {
            // Duplicate owner/writer: downgrade and disown, keep the copy.
            demote(Demote::kDowngrade);
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
        stats_.Inc("dsm.recovery_inflight_adopted");
      }
    };
    // Under the lock, a crash cannot interpose between the life check
    // above and a reinit reaching the referee (the wipe itself needs
    // state_mu_), so the referee never records a reinit from a life that
    // has already been wiped away.
    dir_.ForEachManaged(rebuild);
  }
  for (PageNum p : rebuilt_pages) {
    TraceEv(trace::EventKind::kRecoveryRebuild, p, 0, 0);
  }

  // Apply the arbitration on the claimants. Reliable delivery matters for
  // modes 0/1 (a missed demote leaves a stale owner or duplicate writer
  // behind), so each batch is a bounded-retry call, skipped only when the
  // destination itself died (amnesia voids the demote anyway). A batch that
  // fails on shutdown moves on to the next; once this host has crashed
  // again, every later batch returns before sending and the life check
  // below ends the zombie recovery.
  for (const auto& [dst, cmds] : demotes) {
    CallUntilAnswered({dst}, kOpRecoveryDemote, EncodeDemotes(cmds),
                      "recovery demote exhausted retries", life,
                      /*sending=*/nullptr, /*answered=*/nullptr);
  }
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (life != life_) return;
    recovering_ = false;
  }
  stats_.Hist("dsm.recovery_ms", ToMillis(rt_.Now() - t0));
  TraceEv(trace::EventKind::kRecoveryDone, trace::kNoPage, 0, 0,
          static_cast<std::int64_t>(rebuilt_pages.size()), lost);
}

}  // namespace mermaid::dsm
